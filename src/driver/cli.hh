/**
 * @file
 * Minimal command-line parsing shared by the bench binaries and
 * examples: `--key=value` options plus boolean flags.
 */

#ifndef TSS_DRIVER_CLI_HH
#define TSS_DRIVER_CLI_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>

namespace tss
{

/**
 * Parse @p text as a decimal integer in [@p min, @p max]. Returns
 * std::nullopt for empty text, a sign, any non-digit, or a value out
 * of range (including one that overflows 64 bits).
 */
std::optional<std::uint64_t> parseBounded(const std::string &text,
                                          std::uint64_t min,
                                          std::uint64_t max);

/** Parsed command line. */
class CliArgs
{
  public:
    CliArgs(int argc, char **argv);

    bool has(const std::string &flag) const;
    std::string get(const std::string &key,
                    const std::string &fallback) const;
    double getDouble(const std::string &key, double fallback) const;
    long getLong(const std::string &key, long fallback) const;

    /**
     * The value of --@p key checked by parseBounded: std::nullopt
     * when the flag is absent; an out-of-range or malformed value is
     * a user error (fatal(), naming the flag and the range).
     */
    std::optional<std::uint64_t> getBounded(const std::string &key,
                                            std::uint64_t min,
                                            std::uint64_t max) const;

    /**
     * Benchmark scale preset: --quick selects a CI-sized run,
     * --full the paper-sized run; --scale=X overrides both.
     */
    double scale(double quick, double full, double fallback) const;

  private:
    std::map<std::string, std::string> values;
};

} // namespace tss

#endif // TSS_DRIVER_CLI_HH
