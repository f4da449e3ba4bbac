/**
 * @file
 * The stat writer.  Each layer keeps its counters as plain fields and
 * exports them through one exportStats(stats::Writer &) next to them;
 * the writer names each value by a dotted path and either appends it
 * to a FlatStats listing (collect) or prints it as a
 * "name value  # description" line (dump).  There are no stat objects:
 * every key is written once, straight from the live counter, in the
 * order it appears in the output.
 */

#ifndef PCMAP_SIM_STATS_H
#define PCMAP_SIM_STATS_H

#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pcmap::obs {
class LogHistogram;
} // namespace pcmap::obs

namespace pcmap::stats {

/** A flattened "dotted.name -> value" stat listing. */
using FlatStats = std::vector<std::pair<std::string, double>>;

/** Names and writes stat values into a FlatStats or a text stream. */
class Writer
{
  public:
    /** Collect: append each (dotted.name, value) pair to @p out. */
    explicit Writer(FlatStats &out);
    /** Dump: write each value as one text line to @p os. */
    explicit Writer(std::ostream &os);

    /**
     * A named group: while it lives, every name written through the
     * writer carries "name." (or "name<index>.") in front.  Scopes
     * nest and must close in reverse order of opening.
     */
    class Scope
    {
      public:
        Scope(Writer &w, std::string_view name);
        Scope(Writer &w, std::string_view name, unsigned index);
        ~Scope() { writer.path.resize(base); }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Writer &writer;
        std::size_t base;
    };

    /** One value under @p name. */
    void scalar(std::string_view name, double value,
                std::string_view desc);

    /**
     * The percentile summary of @p h as seven keys, name.p50, .p90,
     * .p99, .p999, .max, .mean and .samples.  Every value but the
     * sample count is multiplied by @p scale (1e-3 exports a tick
     * histogram in ns).
     */
    void percentiles(std::string_view name, const obs::LogHistogram &h,
                     double scale, std::string_view desc);

  private:
    /** Write @p value under the current path. */
    void emit(double value, std::string_view desc);

    // One growing dotted-path buffer: scopes and keys append to it and
    // restore it on the way out, so a key costs no concatenation
    // chain, only the copy a collected pair keeps.
    std::string path;
    FlatStats *flat = nullptr;
    std::ostream *os = nullptr;
};

} // namespace pcmap::stats

#endif // PCMAP_SIM_STATS_H
