/**
 * @file
 * A typed key/value configuration store.
 *
 * Used by the example programs and benchmark harnesses to override
 * simulation parameters from the command line ("key=value" tokens)
 * without every binary growing its own flag parser.  Lookups with a
 * default never fail; lookups without a default call fatal() when the
 * key is missing, because a missing required key is a user error.
 */

#ifndef PCMAP_SIM_CONFIG_H
#define PCMAP_SIM_CONFIG_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace pcmap {

/** String-backed configuration dictionary with typed accessors. */
class Config
{
  public:
    Config() = default;

    /** Parse "key=value" tokens; unrecognized tokens are fatal(). */
    static Config fromArgs(int argc, char **argv);

    /** Set (or overwrite) a key. */
    void set(const std::string &key, const std::string &value);
    void set(const std::string &key, std::int64_t value);
    void set(const std::string &key, double value);
    void set(const std::string &key, bool value);

    /** True when @p key has been set. */
    bool has(const std::string &key) const;

    /** Typed getters with a default for absent keys. */
    std::string getString(const std::string &key,
                          const std::string &fallback) const;
    std::int64_t getInt(const std::string &key,
                        std::int64_t fallback) const;
    std::uint64_t getUint(const std::string &key,
                          std::uint64_t fallback) const;
    /** getUint() for 32-bit settings: fatal() above UINT_MAX. */
    unsigned getUnsigned(const std::string &key, unsigned fallback) const;
    double getDouble(const std::string &key, double fallback) const;
    bool getBool(const std::string &key, bool fallback) const;

    /** Required getters; fatal() when the key is missing or malformed. */
    std::string requireString(const std::string &key) const;
    std::int64_t requireInt(const std::string &key) const;
    double requireDouble(const std::string &key) const;

    /** All keys in sorted order (for help/dump output). */
    std::vector<std::string> keys() const;

  private:
    std::optional<std::string> raw(const std::string &key) const;

    std::map<std::string, std::string> values;
};

/**
 * The candidate most similar to @p word by edit distance
 * (case-insensitive Levenshtein), for "unknown key, did you mean X?"
 * diagnostics.  Empty when no candidate comes close — the distance
 * must be at most half the word's length (minimum 2) to suggest, so a
 * typo gets a pointer but an unrelated word doesn't get a misleading
 * one.
 */
std::string closestMatch(const std::string &word,
                         const std::vector<std::string> &candidates);

/**
 * fatal() for an unrecognized enumerated value or key: names the
 * offender, adds a "did you mean 'X'?" clause when closestMatch()
 * finds a candidate near @p value, and closes with a parenthesised
 * @p known_summary telling the user where the valid spellings live
 * (e.g. "known: baseline, row, ..." or "help=1 lists every key").
 */
[[noreturn]] void fatalUnknown(const char *what, const std::string &value,
                               const std::vector<std::string> &candidates,
                               const std::string &known_summary);

} // namespace pcmap

#endif // PCMAP_SIM_CONFIG_H
