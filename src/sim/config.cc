#include "sim/config.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <limits>

#include "sim/log.h"

namespace pcmap {

Config
Config::fromArgs(int argc, char **argv)
{
    Config cfg;
    for (int i = 1; i < argc; ++i) {
        const std::string token = argv[i];
        const auto eq = token.find('=');
        if (eq == std::string::npos || eq == 0) {
            fatal("malformed argument '", token,
                  "'; expected key=value");
        }
        const std::string key = token.substr(0, eq);
        if (cfg.has(key)) {
            fatal("duplicate argument '", key,
                  "'; each key may be given once");
        }
        cfg.set(key, token.substr(eq + 1));
    }
    return cfg;
}

void
Config::set(const std::string &key, const std::string &value)
{
    values[key] = value;
}

void
Config::set(const std::string &key, std::int64_t value)
{
    values[key] = std::to_string(value);
}

void
Config::set(const std::string &key, double value)
{
    values[key] = std::to_string(value);
}

void
Config::set(const std::string &key, bool value)
{
    values[key] = value ? "true" : "false";
}

bool
Config::has(const std::string &key) const
{
    return values.count(key) > 0;
}

std::optional<std::string>
Config::raw(const std::string &key) const
{
    auto it = values.find(key);
    if (it == values.end())
        return std::nullopt;
    return it->second;
}

std::string
Config::getString(const std::string &key,
                  const std::string &fallback) const
{
    return raw(key).value_or(fallback);
}

namespace {

std::int64_t
parseInt(const std::string &key, const std::string &text)
{
    errno = 0;
    char *end = nullptr;
    const long long v = std::strtoll(text.c_str(), &end, 0);
    if (errno != 0 || end == text.c_str() || *end != '\0')
        fatal("config key '", key, "': '", text, "' is not an integer");
    return v;
}

double
parseDouble(const std::string &key, const std::string &text)
{
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (errno != 0 || end == text.c_str() || *end != '\0')
        fatal("config key '", key, "': '", text, "' is not a number");
    return v;
}

} // namespace

std::int64_t
Config::getInt(const std::string &key, std::int64_t fallback) const
{
    auto v = raw(key);
    return v ? parseInt(key, *v) : fallback;
}

std::uint64_t
Config::getUint(const std::string &key, std::uint64_t fallback) const
{
    auto v = raw(key);
    if (!v)
        return fallback;
    const std::int64_t parsed = parseInt(key, *v);
    if (parsed < 0)
        fatal("config key '", key, "' must be non-negative");
    return static_cast<std::uint64_t>(parsed);
}

unsigned
Config::getUnsigned(const std::string &key, unsigned fallback) const
{
    const std::uint64_t v = getUint(key, fallback);
    if (v > std::numeric_limits<unsigned>::max()) {
        fatal("config key '", key, "': ", v, " exceeds the maximum ",
              std::numeric_limits<unsigned>::max());
    }
    return static_cast<unsigned>(v);
}

double
Config::getDouble(const std::string &key, double fallback) const
{
    auto v = raw(key);
    return v ? parseDouble(key, *v) : fallback;
}

bool
Config::getBool(const std::string &key, bool fallback) const
{
    auto v = raw(key);
    if (!v)
        return fallback;
    std::string t = *v;
    std::transform(t.begin(), t.end(), t.begin(), ::tolower);
    if (t == "true" || t == "1" || t == "yes" || t == "on")
        return true;
    if (t == "false" || t == "0" || t == "no" || t == "off")
        return false;
    fatal("config key '", key, "': '", *v, "' is not a boolean");
}

std::string
Config::requireString(const std::string &key) const
{
    auto v = raw(key);
    if (!v)
        fatal("missing required config key '", key, "'");
    return *v;
}

std::int64_t
Config::requireInt(const std::string &key) const
{
    return parseInt(key, requireString(key));
}

double
Config::requireDouble(const std::string &key) const
{
    return parseDouble(key, requireString(key));
}

std::vector<std::string>
Config::keys() const
{
    std::vector<std::string> out;
    out.reserve(values.size());
    for (const auto &[k, v] : values)
        out.push_back(k);
    return out;
}

namespace {

std::string
lowered(const std::string &s)
{
    std::string out = s;
    std::transform(out.begin(), out.end(), out.begin(), ::tolower);
    return out;
}

std::size_t
editDistance(const std::string &a, const std::string &b)
{
    // Two-row Levenshtein; candidate lists are short and words are
    // key-sized, so the quadratic cost is negligible.
    std::vector<std::size_t> prev(b.size() + 1);
    std::vector<std::size_t> cur(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        prev[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        cur[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t sub =
                prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
            cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
        }
        std::swap(prev, cur);
    }
    return prev[b.size()];
}

} // namespace

std::string
closestMatch(const std::string &word,
             const std::vector<std::string> &candidates)
{
    const std::string needle = lowered(word);
    const std::size_t cutoff =
        std::max<std::size_t>(2, needle.size() / 2);
    std::size_t best_dist = cutoff + 1;
    std::string best;
    for (const std::string &cand : candidates) {
        const std::size_t d = editDistance(needle, lowered(cand));
        if (d < best_dist) {
            best_dist = d;
            best = cand;
        }
    }
    return best;
}

void
fatalUnknown(const char *what, const std::string &value,
             const std::vector<std::string> &candidates,
             const std::string &known_summary)
{
    const std::string suggestion = closestMatch(value, candidates);
    if (!suggestion.empty()) {
        fatal(what, " '", value, "'; did you mean '", suggestion,
              "'? (", known_summary, ")");
    }
    fatal(what, " '", value, "' (", known_summary, ")");
}

} // namespace pcmap
