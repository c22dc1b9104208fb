#include "cli.hh"

#include <cstdint>
#include <cstdlib>

#include "sim/logging.hh"

namespace tss
{

std::optional<std::uint64_t>
parseBounded(const std::string &text, std::uint64_t min,
             std::uint64_t max)
{
    if (text.empty())
        return std::nullopt;
    std::uint64_t value = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return std::nullopt;
        auto digit = static_cast<std::uint64_t>(c - '0');
        if (value > (UINT64_MAX - digit) / 10)
            return std::nullopt;
        value = value * 10 + digit;
    }
    if (value < min || value > max)
        return std::nullopt;
    return value;
}

CliArgs::CliArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            fatal("unexpected positional argument '%s'", arg.c_str());
        }
        arg = arg.substr(2);
        auto eq_pos = arg.find('=');
        if (eq_pos == std::string::npos)
            values[arg] = "1";
        else
            values[arg.substr(0, eq_pos)] = arg.substr(eq_pos + 1);
    }
}

bool
CliArgs::has(const std::string &flag) const
{
    return values.count(flag) > 0;
}

std::string
CliArgs::get(const std::string &key, const std::string &fallback) const
{
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
}

double
CliArgs::getDouble(const std::string &key, double fallback) const
{
    auto it = values.find(key);
    return it == values.end() ? fallback : std::atof(it->second.c_str());
}

long
CliArgs::getLong(const std::string &key, long fallback) const
{
    auto it = values.find(key);
    return it == values.end() ? fallback : std::atol(it->second.c_str());
}

std::optional<std::uint64_t>
CliArgs::getBounded(const std::string &key, std::uint64_t min,
                    std::uint64_t max) const
{
    auto it = values.find(key);
    if (it == values.end())
        return std::nullopt;
    auto value = parseBounded(it->second, min, max);
    if (!value) {
        fatal("--%s must be an integer in [%llu, %llu] (got '%s')",
              key.c_str(), (unsigned long long)min,
              (unsigned long long)max, it->second.c_str());
    }
    return value;
}

double
CliArgs::scale(double quick, double full, double fallback) const
{
    if (has("scale"))
        return getDouble("scale", fallback);
    if (has("quick"))
        return quick;
    if (has("full"))
        return full;
    return fallback;
}

} // namespace tss
