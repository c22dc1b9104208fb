#include "protocol.hh"

#include <cerrno>
#include <cstring>
#include <sstream>

#include <unistd.h>

#include "mem/block_layout.hh"
#include "trace/trace_io.hh"

namespace tss::serve
{

namespace
{

bool
readFull(int fd, void *buf, std::size_t len)
{
    auto *p = static_cast<char *>(buf);
    while (len > 0) {
        ssize_t n = ::read(fd, p, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false; // EOF mid-frame
        p += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

bool
writeFull(int fd, const void *buf, std::size_t len)
{
    const auto *p = static_cast<const char *>(buf);
    while (len > 0) {
        ssize_t n = ::write(fd, p, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

bool
parseDirText(const std::string &s, Dir &out)
{
    if (s == "in")
        out = Dir::In;
    else if (s == "out")
        out = Dir::Out;
    else if (s == "inout")
        out = Dir::InOut;
    else if (s == "scalar")
        out = Dir::Scalar;
    else
        return false;
    return true;
}

} // namespace

bool
readFrame(int fd, Frame &frame, std::uint32_t max_payload)
{
    unsigned char header[5];
    if (!readFull(fd, header, sizeof(header)))
        return false;
    std::uint32_t len = static_cast<std::uint32_t>(header[0]) |
        static_cast<std::uint32_t>(header[1]) << 8 |
        static_cast<std::uint32_t>(header[2]) << 16 |
        static_cast<std::uint32_t>(header[3]) << 24;
    if (len > max_payload)
        return false;
    frame.type = static_cast<MsgType>(header[4]);
    frame.payload.resize(len);
    return len == 0 || readFull(fd, frame.payload.data(), len);
}

bool
writeFrame(int fd, const Frame &frame)
{
    auto len = static_cast<std::uint32_t>(frame.payload.size());
    unsigned char header[5] = {
        static_cast<unsigned char>(len & 0xff),
        static_cast<unsigned char>(len >> 8 & 0xff),
        static_cast<unsigned char>(len >> 16 & 0xff),
        static_cast<unsigned char>(len >> 24 & 0xff),
        static_cast<unsigned char>(frame.type),
    };
    return writeFull(fd, header, sizeof(header)) &&
        (len == 0 ||
         writeFull(fd, frame.payload.data(), frame.payload.size()));
}

bool
parseTraceText(const std::string &text, TaskTrace &out)
{
    TaskTrace trace;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string tag;
        ls >> tag;
        if (tag == "trace") {
            ls >> trace.name;
        } else if (tag == "kernel") {
            std::size_t id = 0;
            std::string kname;
            if (!(ls >> id >> kname) ||
                id != trace.kernelNames.size())
                return false;
            trace.kernelNames.push_back(kname);
        } else if (tag == "task") {
            TraceTask task;
            std::size_t nops = 0;
            // Bound the wire count before reserve(): an unchecked
            // one can throw bad_alloc.
            if (!(ls >> task.kernel >> task.runtime >> nops) ||
                task.kernel >= trace.kernelNames.size() ||
                nops > layout::maxOperands)
                return false;
            task.operands.reserve(nops);
            for (std::size_t i = 0; i < nops; ++i) {
                if (!std::getline(is, line))
                    return false;
                std::istringstream ops(line);
                std::string optag, dir;
                TraceOperand op;
                if (!(ops >> optag >> dir >> std::hex >> op.addr >>
                      std::dec >> op.bytes) ||
                    optag != "op" || !parseDirText(dir, op.dir))
                    return false;
                task.operands.push_back(op);
            }
            trace.tasks.push_back(std::move(task));
        } else {
            return false;
        }
    }
    out = std::move(trace);
    return true;
}

bool
operandsFitLayout(const TaskTrace &trace)
{
    for (const TraceTask &task : trace.tasks)
        if (task.operands.size() > layout::maxOperands)
            return false;
    return true;
}

std::string
formatTraceText(const TaskTrace &trace)
{
    std::ostringstream os;
    writeTrace(os, trace);
    return os.str();
}

} // namespace tss::serve
