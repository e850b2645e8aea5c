/**
 * @file
 * Minimal command-line argument parser for the tools/ binaries.
 *
 * Accepts "--name value" and "--flag" styles; values are fetched with
 * typed getters that fatal() on malformed input so tools fail loudly.
 * Each tool declares its flags, and any other flag is a one-line
 * fatal(): a misspelled or retired flag must not change the experiment
 * without a word.
 */

#ifndef CACHELAB_TOOLS_ARGS_HH
#define CACHELAB_TOOLS_ARGS_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/logging.hh"

namespace cachelab::tools
{

/** Parsed command line: options plus positional arguments. */
class Args
{
  public:
    /**
     * Parse @p argv against @p flags, the tool's flag names without
     * "--" (static storage).  fatal() on any other flag.
     */
    Args(int argc, char **argv, std::span<const std::string_view> flags)
        : flags_(flags)
    {
        for (int i = 1; i < argc; ++i) {
            std::string token = argv[i];
            if (token.rfind("--", 0) == 0) {
                const std::string name = token.substr(2);
                if (!declared(name))
                    fatal("unknown flag '", token, "' (see --help)");
                if (i + 1 < argc &&
                    std::string(argv[i + 1]).rfind("--", 0) != 0) {
                    options_[name] = argv[++i];
                } else {
                    options_[name] = "";
                }
            } else {
                positional_.push_back(std::move(token));
            }
        }
    }

    bool has(const std::string &name) const
    {
        return options_.contains(checked(name));
    }

    std::string
    get(const std::string &name, const std::string &fallback = "") const
    {
        const auto it = options_.find(checked(name));
        return it == options_.end() ? fallback : it->second;
    }

    std::uint64_t
    getUint(const std::string &name, std::uint64_t fallback) const
    {
        const auto it = options_.find(checked(name));
        if (it == options_.end())
            return fallback;
        try {
            std::size_t pos = 0;
            const std::uint64_t v = std::stoull(it->second, &pos, 0);
            if (pos != it->second.size())
                fatal("--", name, ": bad number '", it->second, "'");
            return v;
        } catch (const std::exception &) {
            fatal("--", name, ": bad number '", it->second, "'");
        }
    }

    double
    getDouble(const std::string &name, double fallback) const
    {
        const auto it = options_.find(checked(name));
        if (it == options_.end())
            return fallback;
        try {
            std::size_t pos = 0;
            const double v = std::stod(it->second, &pos);
            if (pos != it->second.size())
                fatal("--", name, ": bad number '", it->second, "'");
            return v;
        } catch (const std::exception &) {
            fatal("--", name, ": bad number '", it->second, "'");
        }
    }

    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

  private:
    bool
    declared(std::string_view name) const
    {
        return std::find(flags_.begin(), flags_.end(), name) != flags_.end();
    }

    /** @return @p name; panic() when the tool reads an undeclared flag. */
    const std::string &
    checked(const std::string &name) const
    {
        CACHELAB_ASSERT(declared(name), "flag --", name,
                        " is read but not declared");
        return name;
    }

    std::span<const std::string_view> flags_;
    std::map<std::string, std::string> options_;
    std::vector<std::string> positional_;
};

} // namespace cachelab::tools

#endif // CACHELAB_TOOLS_ARGS_HH
