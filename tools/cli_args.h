/**
 * @file
 * Command-line flags of the ssdcheck tools: `--key value` and
 * `--key=value` options, with checked numeric values.
 */
#pragma once

#include <charconv>
#include <cmath>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace ssdcheck::cli {

/** argv parsed into a command word plus --key value options. */
struct Args
{
    std::string command;
    std::map<std::string, std::string> options;
    /** Words that are neither a --key nor its value. No tool takes
     *  any; they are kept so the tools can refuse them. */
    std::vector<std::string> positional;
    bool has(const std::string &k) const { return options.count(k) > 0; }
    std::string get(const std::string &k, const std::string &dflt) const
    {
        const auto it = options.find(k);
        return it == options.end() ? dflt : it->second;
    }
};

/** Parse argv; with @p hasCommand, argv[1] is the command word. */
inline Args
parseArgs(int argc, char **argv, bool hasCommand)
{
    Args a;
    int i = 1;
    if (hasCommand && argc >= 2)
        a.command = argv[i++];
    for (; i < argc; ++i) {
        std::string key = argv[i];
        if (key.rfind("--", 0) != 0) {
            a.positional.push_back(key);
            continue;
        }
        key = key.substr(2);
        const size_t eq = key.find('=');
        if (eq != std::string::npos)
            a.options[key.substr(0, eq)] = key.substr(eq + 1);
        else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0)
            a.options[key] = argv[++i];
        else
            a.options[key] = "";
    }
    return a;
}

/** A numeric flag whose value is not a number in range. */
struct BadFlag : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * The value of numeric flag --@p key, or @p dflt when it is absent.
 * The whole value must parse as a T in range (and be finite for a
 * floating-point T); otherwise this throws BadFlag, which the tools'
 * main() maps to their bad-arguments exit.
 */
template <typename T>
T
numFlag(const Args &args, const std::string &key, T dflt)
{
    if (!args.has(key))
        return dflt;
    const std::string v = args.get(key, "");
    T out{};
    const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
    bool ok = !v.empty() && ec == std::errc() && end == v.data() + v.size();
    if constexpr (std::is_floating_point_v<T>)
        ok = ok && std::isfinite(out);
    if (!ok)
        throw BadFlag("bad value for --" + key + ": '" + v + "'");
    return out;
}

/** True when @p path names a readable file. */
inline bool
fileExists(const std::string &path)
{
    return std::ifstream(path).good();
}

} // namespace ssdcheck::cli
