/**
 * @file
 * Tests for the experiment driver: table printing, CLI parsing, the
 * paper configuration preset, and workload lookup.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "driver/cli.hh"
#include "driver/experiment.hh"
#include "driver/table.hh"

namespace tss
{
namespace
{

TEST(TablePrinter, AlignsColumns)
{
    TablePrinter table({"A", "LongHeader"});
    table.addRow({"x", "1"});
    table.addRow({"longcell", "2"});
    std::ostringstream os;
    table.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("A"), std::string::npos);
    EXPECT_NE(out.find("longcell"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TablePrinter, CsvOutput)
{
    TablePrinter table({"a", "b"});
    table.addRow({"1", "2"});
    std::ostringstream os;
    table.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TablePrinter, NumberFormatting)
{
    EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
    EXPECT_EQ(TablePrinter::num(3.6, 0), "4");
    EXPECT_EQ(TablePrinter::num(std::uint64_t(42)), "42");
}

TEST(CliArgs, ParsesFlagsAndValues)
{
    const char *argv[] = {"prog", "--quick", "--scale=0.5",
                          "--cores=128", "--name=H264"};
    CliArgs args(5, const_cast<char **>(argv));
    EXPECT_TRUE(args.has("quick"));
    EXPECT_FALSE(args.has("full"));
    EXPECT_DOUBLE_EQ(args.getDouble("scale", 1.0), 0.5);
    EXPECT_EQ(args.getLong("cores", 0), 128);
    EXPECT_EQ(args.get("name", ""), "H264");
    EXPECT_EQ(args.get("missing", "dflt"), "dflt");
}

TEST(CliArgs, ScalePresetPrecedence)
{
    const char *quick[] = {"prog", "--quick"};
    EXPECT_DOUBLE_EQ(CliArgs(2, const_cast<char **>(quick))
                         .scale(0.1, 1.0, 0.4), 0.1);
    const char *full[] = {"prog", "--full"};
    EXPECT_DOUBLE_EQ(CliArgs(2, const_cast<char **>(full))
                         .scale(0.1, 1.0, 0.4), 1.0);
    const char *expl[] = {"prog", "--quick", "--scale=0.7"};
    EXPECT_DOUBLE_EQ(CliArgs(3, const_cast<char **>(expl))
                         .scale(0.1, 1.0, 0.4), 0.7);
    const char *none[] = {"prog"};
    EXPECT_DOUBLE_EQ(CliArgs(1, const_cast<char **>(none))
                         .scale(0.1, 1.0, 0.4), 0.4);
}

TEST(CliArgs, BoundedParserRejectsInvalidValues)
{
    EXPECT_EQ(parseBounded("0", 0, 10), 0u);
    EXPECT_EQ(parseBounded("10", 1, 10), 10u);
    EXPECT_EQ(parseBounded("18446744073709551615", 0, UINT64_MAX),
              UINT64_MAX);
    // Signs, non-digits, blanks and empty text.
    for (const char *bad : {"-1", "+1", "", "1x", "x", " 1", "1.5"})
        EXPECT_FALSE(parseBounded(bad, 0, UINT64_MAX)) << bad;
    // Out of range, and past 64 bits.
    EXPECT_FALSE(parseBounded("0", 1, 10));
    EXPECT_FALSE(parseBounded("11", 1, 10));
    EXPECT_FALSE(parseBounded("18446744073709551616", 0, UINT64_MAX));
    EXPECT_FALSE(parseBounded("99999999999999999999999", 0, UINT64_MAX));
    // A size in MiB whose byte count would overflow 64 bits.
    EXPECT_TRUE(parseBounded("17592186044415", 1, UINT64_MAX >> 20));
    EXPECT_FALSE(parseBounded("17592186044416", 1, UINT64_MAX >> 20));
}

TEST(CliArgs, BoundedFlagAbsentOrValid)
{
    const char *argv[] = {"prog", "--workers=4"};
    CliArgs args(2, const_cast<char **>(argv));
    EXPECT_EQ(args.getBounded("workers", 1, 256), 4u);
    EXPECT_FALSE(args.getBounded("missing", 1, 256));
}

TEST(CliArgsDeathTest, BoundedFlagOutOfRangeExits)
{
    const char *argv[] = {"prog", "--execute-workers=-1", "--queue=0",
                          "--jobs=-3"};
    CliArgs args(4, const_cast<char **>(argv));
    EXPECT_EXIT((void)args.getBounded("execute-workers", 1, 256),
                ::testing::ExitedWithCode(1), "execute-workers");
    EXPECT_EXIT((void)args.getBounded("queue", 1, UINT32_MAX),
                ::testing::ExitedWithCode(1), "queue");
    // The bounds fig19_serve_load and tss-loadgen give --jobs.
    EXPECT_EXIT((void)args.getBounded("jobs", 1, 1000000),
                ::testing::ExitedWithCode(1), "jobs");
}

TEST(Experiment, PaperConfigMatchesSectionSix)
{
    PipelineConfig cfg = paperConfig(256);
    EXPECT_EQ(cfg.numTrs, 8u);
    EXPECT_EQ(cfg.numOrt, 2u);
    EXPECT_EQ(cfg.trsTotalBytes, 6u * 1024 * 1024);
    EXPECT_EQ(cfg.ortTotalBytes, 512u * 1024);
    EXPECT_EQ(cfg.numCores, 256u);
    // 6 MB of 128 B blocks: 49152 total - the paper's "12,000-50,000
    // in-flight tasks" window.
    EXPECT_EQ(cfg.blocksPerTrs() * cfg.numTrs, 49152u);
}

TEST(Experiment, MakeWorkloadByName)
{
    TaskTrace trace = makeWorkload("FFT", 0.05);
    EXPECT_EQ(trace.name, "FFT");
    EXPECT_GT(trace.size(), 50u);
}

TEST(Experiment, RunHardwareAndSoftwareOnSameTrace)
{
    TaskTrace trace = makeWorkload("MatMul", 0.03);
    PipelineConfig cfg = paperConfig(32);
    RunResult hw = runHardware(cfg, trace);
    SwRuntimeConfig sw_cfg;
    sw_cfg.numCores = 32;
    SwRunResult sw = runSoftware(sw_cfg, trace);
    EXPECT_EQ(hw.numTasks, trace.size());
    EXPECT_EQ(sw.numTasks, trace.size());
    EXPECT_GT(hw.speedup, 1.0);
    EXPECT_GT(sw.speedup, 1.0);
}

} // namespace
} // namespace tss
