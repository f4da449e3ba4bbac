/**
 * @file
 * Microbenchmarks of end-to-end simulation speed: generator op rate
 * and full-system simulated instructions per wall second (the figure
 * harness cost model).
 */

#include <benchmark/benchmark.h>

#include "core/system.h"
#include "mem/backing_store.h"
#include "workload/generator.h"

namespace {

using namespace pcmap;

void
BM_GeneratorOps(benchmark::State &state)
{
    BackingStore store;
    workload::SyntheticGenerator gen(
        workload::findProfile("canneal"), store, 1);
    MemOp op;
    for (auto _ : state) {
        gen.next(op);
        if (op.isWrite) {
            const std::uint64_t line = op.addr / kLineBytes;
            store.writeWords(line, op.data,
                             store.essentialWords(line, op.data));
        }
        benchmark::DoNotOptimize(op.addr);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GeneratorOps);

void
BM_FullSystem(benchmark::State &state)
{
    const ControllerPolicy &system = kPaperSystems[state.range(0)];
    constexpr std::uint64_t kInsts = 50'000;
    std::uint64_t events = 0;
    std::uint64_t schedules = 0;
    for (auto _ : state) {
        SystemConfig cfg;
        system.applyTo(cfg.controller);
        cfg.instructionsPerCore = kInsts;
        cfg.seed = 1;
        const SystemResults r = runWorkload(cfg, "MP1");
        events += r.hostEventsExecuted;
        schedules += r.hostScheduleCalls;
        benchmark::DoNotOptimize(r.ipcSum);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(kInsts * 8));
    // The same kernel rates tools/pcmap-perf reports, so the
    // microbench and the harness numbers are directly comparable.
    state.counters["events_per_sec"] = benchmark::Counter(
        static_cast<double>(events), benchmark::Counter::kIsRate);
    state.counters["schedule_calls_per_sec"] = benchmark::Counter(
        static_cast<double>(schedules), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FullSystem)
    ->Arg(0) // Baseline, kPaperSystems' first
    ->Arg(5) // RWoW-RDE, its last
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
