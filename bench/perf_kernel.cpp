/**
 * @file
 * Microbenchmarks (google-benchmark) of the two simulation-kernel
 * hot structures the hot-path overhaul targets:
 *
 *  - the pooled EventQueue: schedule/fire cycles with controller-sized
 *    captures, deep heaps, and direct-index cancellation;
 *  - the BackingStore page directory: the essentialWords + writeWords
 *    commit pair and read bursts, sequential (MRU page hits) and
 *    strided (directory lookups).
 *
 * tools/pcmap-perf measures the same structures end to end through a
 * full simulation; these benches isolate each one so a regression can
 * be attributed.  Counters use the same keys as perf::RunMetrics.
 */

#include <benchmark/benchmark.h>

#include <array>

#include "mem/backing_store.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace {

using namespace pcmap;

// --------------------------------------------------------------------
// EventQueue
// --------------------------------------------------------------------

/** Schedule/fire with a capture the size of a read-completion closure. */
void
BM_KernelScheduleFire240B(benchmark::State &state)
{
    EventQueue eq;
    std::array<unsigned char, 240> payload{};
    payload[0] = 1;
    std::uint64_t count = 0;
    for (auto _ : state) {
        eq.scheduleIn(1, [payload, &count] { count += payload[0]; });
        eq.step();
    }
    benchmark::DoNotOptimize(count);
    state.counters["events_per_sec"] = benchmark::Counter(
        static_cast<double>(eq.counters().eventsExecuted),
        benchmark::Counter::kIsRate);
    state.counters["oversized"] = benchmark::Counter(
        static_cast<double>(eq.counters().oversizedCallbacks));
}
BENCHMARK(BM_KernelScheduleFire240B);

/** Pop order under a deep heap (the sweep steady state). */
void
BM_KernelDeepHeapChurn(benchmark::State &state)
{
    const auto depth = static_cast<std::uint64_t>(state.range(0));
    EventQueue eq;
    std::uint64_t count = 0;
    Rng rng(7);
    // Pre-fill to depth, then hold it there: every fired event
    // schedules a replacement at a pseudo-random future tick.
    std::function<void()> churn = [&] {
        ++count;
        eq.scheduleIn(1 + rng.below(1000), churn);
    };
    for (std::uint64_t i = 0; i < depth; ++i)
        eq.schedule(1 + rng.below(1000), churn);
    for (auto _ : state)
        eq.step();
    benchmark::DoNotOptimize(count);
    state.counters["pool_slots"] = benchmark::Counter(
        static_cast<double>(eq.poolSlots()));
}
BENCHMARK(BM_KernelDeepHeapChurn)->Arg(64)->Arg(1024)->Arg(16384);

/** The write-cancellation pattern: schedule, cancel, reschedule. */
void
BM_KernelCancelReschedule(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t count = 0;
    for (auto _ : state) {
        EventHandle h = eq.scheduleIn(500, [&count] { ++count; });
        eq.cancel(h);
        eq.scheduleIn(1, [&count] { ++count; });
        eq.step();
    }
    benchmark::DoNotOptimize(count);
}
BENCHMARK(BM_KernelCancelReschedule);

// --------------------------------------------------------------------
// BackingStore page directory
// --------------------------------------------------------------------

/** The write-commit pair on consecutive lines (MRU page hits). */
void
BM_StoreCommitSequential(benchmark::State &state)
{
    BackingStore store(/*footprint_lines_hint=*/1 << 16);
    Rng rng(3);
    CacheLine data;
    for (auto &w : data.w)
        w = rng.next();
    std::uint64_t line = 0;
    for (auto _ : state) {
        data.w[line & 7] = rng.next();
        const WordMask essential = store.essentialWords(line, data);
        benchmark::DoNotOptimize(store.writeWords(line, data, essential));
        line = (line + 1) & 0xffff;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StoreCommitSequential);

/** The same pair with a large stride (per-access directory lookup). */
void
BM_StoreCommitStrided(benchmark::State &state)
{
    BackingStore store(/*footprint_lines_hint=*/1 << 16);
    Rng rng(4);
    CacheLine data;
    for (auto &w : data.w)
        w = rng.next();
    std::uint64_t line = 0;
    for (auto _ : state) {
        data.w[line & 7] = rng.next();
        const WordMask essential = store.essentialWords(line, data);
        benchmark::DoNotOptimize(store.writeWords(line, data, essential));
        line = (line + 257) & 0xffff; // coprime stride: new page each access
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StoreCommitStrided);

/** Read bursts over a warm footprint. */
void
BM_StoreReadSequential(benchmark::State &state)
{
    BackingStore store(/*footprint_lines_hint=*/1 << 14);
    Rng rng(5);
    CacheLine data;
    for (std::uint64_t l = 0; l < (1 << 14); ++l) {
        for (auto &w : data.w)
            w = rng.next();
        store.writeLine(l, data);
    }
    std::uint64_t line = 0;
    std::uint64_t sum = 0;
    for (auto _ : state) {
        sum += store.read(line).data.w[0];
        line = (line + 1) & 0x3fff;
    }
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StoreReadSequential);

} // namespace

BENCHMARK_MAIN();
