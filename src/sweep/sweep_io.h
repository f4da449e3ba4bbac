/**
 * @file
 * Stable serialization of sweep reports.
 *
 * The JSONL and CSV writers are deterministic: fixed key order, fixed
 * double formatting (shortest round-trippable via %.17g), rows in
 * point-index order, and no wall-clock fields.  Two runs of the same
 * spec — at any thread counts — serialize byte-identically, which is
 * what the determinism regression test asserts.
 */

#ifndef PCMAP_SWEEP_SWEEP_IO_H
#define PCMAP_SWEEP_SWEEP_IO_H

#include <cstdint>
#include <iosfwd>
#include <string>

#include "sweep/sweep_runner.h"

namespace pcmap::sweep {

/** One record as a single JSON object line (no trailing newline). */
std::string toJsonLine(const RunRecord &rec);

/**
 * Canonical text form of a spec: every axis and every result-relevant
 * SystemConfig field of every config variant, in a fixed order with
 * fixed number formatting.  Two specs serialize identically iff they
 * describe the same sweep.  The per-point overridden fields (the
 * controller's mechanism switches, config.seed) are deliberately
 * excluded — they are a
 * function of the axes, and including them would make two equivalent
 * specs fingerprint differently.
 */
std::string stableSerialize(const SweepSpec &spec);

/**
 * FNV-1a 64-bit hash of stableSerialize(spec).  Stamped into every
 * shard partial's header so partials of different sweeps can never
 * silently merge (see sweep/dist/partial_io.h).
 */
std::uint64_t specFingerprint(const SweepSpec &spec);

/** A fingerprint as the fixed-width lowercase hex used in headers. */
std::string fingerprintHex(std::uint64_t fp);

/** Whole report as JSONL, one row per point, index order. */
void writeJsonl(const SweepReport &report, std::ostream &os);

/**
 * Whole report as CSV.  Columns: identity fields, ok/error, the fixed
 * SystemResults metrics, then the union (in first-seen order) of stat
 * counters across rows; failed rows leave metric cells empty.
 */
void writeCsv(const SweepReport &report, std::ostream &os);

/** writeJsonl() into a string (test/aggregation convenience). */
std::string toJsonl(const SweepReport &report);

} // namespace pcmap::sweep

#endif // PCMAP_SWEEP_SWEEP_IO_H
