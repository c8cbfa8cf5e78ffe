/**
 * @file
 * google-benchmark micro-benchmarks of the raw clock operations:
 * get/increment (both O(1)), join and copy under controlled
 * knowledge patterns, across thread counts. These isolate the
 * per-operation costs behind the macro results: a vacuous VC join
 * still pays Θ(k); a vacuous TC join pays O(1).
 *
 * Every benchmark reports a heap_allocs counter — allocations (via
 * the alloc_hook.cc global operator new) performed inside the
 * measured loop (per copy for BM_FirstCopy, whose loop creates a
 * clock; per window for BM_{Hb,Shb,Maz}FeedWindow). The
 * steady-state join/copy benchmarks must report 0: the clock hot
 * paths reuse their scratch and never allocate once warmed. So must
 * the FeedWindow benchmarks, the same gate one layer up: each
 * engine's per-event work over already-sized state. Pass --json <path> for
 * a machine-readable report (BENCH_baseline.json is generated this
 * way).
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/hb_engine.hh"
#include "analysis/maz_engine.hh"
#include "analysis/shb_engine.hh"
#include "bench_common.hh"
#include "core/tree_clock.hh"
#include "core/vector_clock.hh"
#include "support/rng.hh"

namespace tc {
namespace {

/**
 * Build a pair (a, b) of clocks of k threads where b carries fresh
 * knowledge about roughly `fresh` threads that a lacks, learned
 * through a chain (a realistic tree shape).
 */
template <typename ClockT>
std::pair<ClockT, ClockT>
makeClockPair(Tid k, Tid fresh)
{
    ClockT a(0, static_cast<std::size_t>(k));
    ClockT b(1, static_cast<std::size_t>(k));
    std::vector<ClockT> others;
    others.reserve(static_cast<std::size_t>(k));
    for (Tid t = 0; t < k; t++) {
        others.emplace_back(t, static_cast<std::size_t>(k));
        others.back().increment(static_cast<Clk>(t) + 1);
    }
    a.increment(5);
    b.increment(5);
    // Both learn everything once (so joins below are warm).
    for (Tid t = 2; t < k; t++) {
        a.join(others[static_cast<std::size_t>(t)]);
        b.join(others[static_cast<std::size_t>(t)]);
    }
    // b additionally learns fresh progress on `fresh` threads.
    for (Tid t = 2; t < 2 + fresh && t < k; t++) {
        others[static_cast<std::size_t>(t)].increment(100);
        b.join(others[static_cast<std::size_t>(t)]);
    }
    return {std::move(a), std::move(b)};
}

/** Allocations inside the measured loop (0 = allocation-free). */
void
setAllocCounter(benchmark::State &state, std::uint64_t before)
{
    state.counters["heap_allocs"] = benchmark::Counter(
        static_cast<double>(bench::heapAllocCount() - before));
}

template <typename ClockT>
void
BM_Get(benchmark::State &state)
{
    const Tid k = static_cast<Tid>(state.range(0));
    auto [a, b] = makeClockPair<ClockT>(k, k / 4);
    Tid t = 0;
    const std::uint64_t allocs = bench::heapAllocCount();
    for (auto _ : state) {
        benchmark::DoNotOptimize(a.get(t));
        t = (t + 1) % k;
    }
    setAllocCounter(state, allocs);
}

template <typename ClockT>
void
BM_Increment(benchmark::State &state)
{
    const Tid k = static_cast<Tid>(state.range(0));
    ClockT c(0, static_cast<std::size_t>(k));
    const std::uint64_t allocs = bench::heapAllocCount();
    for (auto _ : state)
        c.increment(1);
    benchmark::DoNotOptimize(c.get(0));
    setAllocCounter(state, allocs);
}

/** Vacuous join: the operand holds nothing new. VC pays Θ(k), TC
 * pays O(1) — the heart of the paper. */
template <typename ClockT>
void
BM_JoinVacuous(benchmark::State &state)
{
    const Tid k = static_cast<Tid>(state.range(0));
    auto [a, b] = makeClockPair<ClockT>(k, 0);
    a.join(b); // make any residue vacuous
    const std::uint64_t allocs = bench::heapAllocCount();
    for (auto _ : state)
        a.join(b);
    benchmark::DoNotOptimize(a.get(0));
    setAllocCounter(state, allocs);
}

/**
 * A full release/acquire round trip: thread a publishes through a
 * lock clock, thread b consumes, then roles swap. Each iteration
 * performs 2 increments, 1 monotone copy and 1 join with a small
 * genuine delta — the realistic steady-state op mix of the HB
 * algorithm.
 */
template <typename ClockT>
void
BM_SyncRoundTrip(benchmark::State &state)
{
    const Tid k = static_cast<Tid>(state.range(0));
    auto [a, b] = makeClockPair<ClockT>(k, 0);
    ClockT lock;
    // One untimed round trip per role warms the lock clock and the
    // traversal scratch so the measured loop is steady-state.
    for (int warm = 0; warm < 2; warm++) {
        ClockT &src = warm == 0 ? a : b;
        ClockT &dst = warm == 0 ? b : a;
        src.increment(1);
        lock.monotoneCopy(src);
        dst.increment(1);
        dst.join(lock);
    }
    bool a_turn = true;
    const std::uint64_t allocs = bench::heapAllocCount();
    for (auto _ : state) {
        ClockT &src = a_turn ? a : b;
        ClockT &dst = a_turn ? b : a;
        src.increment(1);
        lock.monotoneCopy(src);
        dst.increment(1);
        dst.join(lock);
        a_turn = !a_turn;
    }
    benchmark::DoNotOptimize(a.get(0));
    benchmark::DoNotOptimize(b.get(1));
    setAllocCounter(state, allocs);
}

/** Monotone copy of a fully-known clock (release-path pattern). */
template <typename ClockT>
void
BM_MonotoneCopy(benchmark::State &state)
{
    const Tid k = static_cast<Tid>(state.range(0));
    auto [a, b] = makeClockPair<ClockT>(k, 0);
    ClockT lock;
    lock.monotoneCopy(b);
    b.increment(1);
    lock.monotoneCopy(b); // warm the scratch / copy path
    const std::uint64_t allocs = bench::heapAllocCount();
    for (auto _ : state) {
        b.increment(1);
        lock.monotoneCopy(b);
    }
    benchmark::DoNotOptimize(lock.get(1));
    setAllocCounter(state, allocs);
}

/**
 * Monotone copy into a stale lock clock: half of the k entries have
 * progressed since the lock last saw its source, as for SHB's
 * last-write and lock clocks after a long absence. TC's bounded walk
 * switches to its block copy here; VC pays its usual flat copy. A
 * deepCopy of the stale snapshot restores the lock before each copy;
 * manual timing reports the copy alone (PauseTiming's per-iteration
 * cost would swamp the small-k copies).
 */
template <typename ClockT>
void
BM_StaleMonotoneCopy(benchmark::State &state)
{
    const Tid k = static_cast<Tid>(state.range(0));
    // Same construction, so stale ⊑ fresh: fresh also learned new
    // progress on k/2 threads.
    const ClockT stale = makeClockPair<ClockT>(k, 0).second;
    const ClockT fresh = makeClockPair<ClockT>(k, k / 2).second;
    ClockT lock;
    lock.deepCopy(stale);
    lock.monotoneCopy(fresh); // warm the scratch / copy path
    const std::uint64_t allocs = bench::heapAllocCount();
    for (auto _ : state) {
        lock.deepCopy(stale);
        const auto start = std::chrono::steady_clock::now();
        lock.monotoneCopy(fresh);
        const auto stop = std::chrono::steady_clock::now();
        state.SetIterationTime(
            std::chrono::duration<double>(stop - start).count());
    }
    benchmark::DoNotOptimize(lock.get(1));
    setAllocCounter(state, allocs);
}

/**
 * First monotone copy into an empty auxiliary clock: how MAZ
 * creates each read clock R_{t,x} and last-write clock LW_x. The
 * target is built and dropped inside the loop, so the copy pays for
 * its own storage. heap_allocs is reported per copy here, so it
 * stays deterministic: what one creation costs (a vector clock pays
 * 1, and a tree clock must not pay more).
 */
template <typename ClockT>
void
BM_FirstCopy(benchmark::State &state)
{
    const Tid k = static_cast<Tid>(state.range(0));
    const ClockT source = makeClockPair<ClockT>(k, k / 4).second;
    const std::uint64_t allocs = bench::heapAllocCount();
    for (auto _ : state) {
        ClockT fresh;
        fresh.monotoneCopy(source);
        benchmark::DoNotOptimize(fresh.get(1));
    }
    state.counters["heap_allocs"] = benchmark::Counter(
        static_cast<double>(bench::heapAllocCount() - allocs),
        benchmark::Counter::kAvgIterations);
}

/**
 * An engine with the analysis phase, fed one 4096-event window
 * again and again through AnalysisDriver::feedWindow: 8 threads,
 * 1024 reserved variables that the warm-up windows have already
 * touched, 70% reads — many concurrent, so histories promote to
 * shared read vectors and later writes hand them back (and MAZ's
 * read clocks all exist) — and 1% lock pairs. heap_allocs is per
 * window: steady-state engine work must not allocate.
 */
template <template <typename> class Engine, typename ClockT>
void
feedWindowLoop(benchmark::State &state)
{
    constexpr Tid kThreads = 8;
    constexpr LockId kLocks = 4;
    constexpr VarId kVars = 1024;
    Rng rng(42);
    std::vector<Event> events;
    while (events.size() < kDefaultSourceWindow) {
        const auto t = static_cast<Tid>(rng.below(kThreads));
        if (events.size() + 2 <= kDefaultSourceWindow &&
            rng.chance(0.005)) {
            const auto l =
                static_cast<std::uint32_t>(rng.below(kLocks));
            events.emplace_back(t, OpType::Acquire, l);
            events.emplace_back(t, OpType::Release, l);
            continue;
        }
        events.emplace_back(
            t, rng.chance(0.7) ? OpType::Read : OpType::Write,
            static_cast<std::uint32_t>(rng.below(kVars)));
    }
    const EventWindow window{events.data(), events.size()};

    Engine<ClockT> engine;
    engine.begin({kThreads, kLocks, kVars, kUnknownEventCount, false});
    for (int warm = 0; warm < 3; warm++)
        engine.feedWindow(window);
    const std::uint64_t allocs = bench::heapAllocCount();
    for (auto _ : state) {
        engine.feedWindow(window);
        benchmark::DoNotOptimize(engine.races().total());
    }
    state.counters["heap_allocs"] = benchmark::Counter(
        static_cast<double>(bench::heapAllocCount() - allocs),
        benchmark::Counter::kAvgIterations);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(window.size));
}

template <typename ClockT>
void
BM_HbFeedWindow(benchmark::State &state)
{
    feedWindowLoop<HbEngine, ClockT>(state);
}

/** The same window under SHB: per-variable clocks LW_x are read
 * and stale-copied on every access. */
template <typename ClockT>
void
BM_ShbFeedWindow(benchmark::State &state)
{
    feedWindowLoop<ShbEngine, ClockT>(state);
}

/** The same window under MAZ: LW_x and R_{t,x} per access. */
template <typename ClockT>
void
BM_MazFeedWindow(benchmark::State &state)
{
    feedWindowLoop<MazEngine, ClockT>(state);
}

#define TC_BENCH_RANGE RangeMultiplier(4)->Range(8, 2048)

BENCHMARK_TEMPLATE(BM_Get, VectorClock)->TC_BENCH_RANGE;
BENCHMARK_TEMPLATE(BM_Get, TreeClock)->TC_BENCH_RANGE;
BENCHMARK_TEMPLATE(BM_Increment, VectorClock)->TC_BENCH_RANGE;
BENCHMARK_TEMPLATE(BM_Increment, TreeClock)->TC_BENCH_RANGE;
BENCHMARK_TEMPLATE(BM_JoinVacuous, VectorClock)->TC_BENCH_RANGE;
BENCHMARK_TEMPLATE(BM_JoinVacuous, TreeClock)->TC_BENCH_RANGE;
BENCHMARK_TEMPLATE(BM_SyncRoundTrip, VectorClock)->TC_BENCH_RANGE;
BENCHMARK_TEMPLATE(BM_SyncRoundTrip, TreeClock)->TC_BENCH_RANGE;
BENCHMARK_TEMPLATE(BM_MonotoneCopy, VectorClock)->TC_BENCH_RANGE;
BENCHMARK_TEMPLATE(BM_MonotoneCopy, TreeClock)->TC_BENCH_RANGE;
BENCHMARK_TEMPLATE(BM_StaleMonotoneCopy, VectorClock)
    ->TC_BENCH_RANGE->UseManualTime();
BENCHMARK_TEMPLATE(BM_StaleMonotoneCopy, TreeClock)
    ->TC_BENCH_RANGE->UseManualTime();
BENCHMARK_TEMPLATE(BM_FirstCopy, VectorClock)->TC_BENCH_RANGE;
BENCHMARK_TEMPLATE(BM_FirstCopy, TreeClock)->TC_BENCH_RANGE;
BENCHMARK_TEMPLATE(BM_HbFeedWindow, VectorClock);
BENCHMARK_TEMPLATE(BM_HbFeedWindow, TreeClock);
BENCHMARK_TEMPLATE(BM_ShbFeedWindow, VectorClock);
BENCHMARK_TEMPLATE(BM_ShbFeedWindow, TreeClock);
BENCHMARK_TEMPLATE(BM_MazFeedWindow, VectorClock);
BENCHMARK_TEMPLATE(BM_MazFeedWindow, TreeClock);

/** Mirrors every finished run into the shared JsonReporter while
 * keeping the familiar console table. */
class JsonBridgeReporter : public benchmark::ConsoleReporter
{
  public:
    explicit JsonBridgeReporter(bench::JsonReporter *json)
        : json_(json)
    {}

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (runFailed(run))
                continue;
            json_->entry(run.benchmark_name());
            json_->metric("real_time_ns", run.GetAdjustedRealTime());
            json_->metric("cpu_time_ns", run.GetAdjustedCPUTime());
            json_->metric("iterations",
                          static_cast<double>(run.iterations));
            for (const auto &[name, counter] : run.counters)
                json_->metric(name, counter.value);
        }
        ConsoleReporter::ReportRuns(runs);
    }

  private:
    /** benchmark <= 1.7 flags failures via error_occurred; 1.8+
     * replaced it with the skipped enum (0 = ran). A template so
     * the branch for the other library version is never
     * instantiated. */
    template <typename R>
    static bool
    runFailed(const R &run)
    {
        if constexpr (requires { run.error_occurred; })
            return run.error_occurred;
        else if constexpr (requires { run.skipped; })
            return run.skipped != decltype(run.skipped){};
        else
            return false;
    }

    bench::JsonReporter *json_;
};

} // namespace
} // namespace tc

int
main(int argc, char **argv)
{
    // Peel off our --json flag before google-benchmark sees the
    // argument vector (it rejects flags it does not know).
    std::string json_path;
    int kept = 1;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg.rfind("--json=", 0) == 0) {
            json_path = arg.substr(7);
        } else if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            argv[kept++] = argv[i];
        }
    }
    argc = kept;

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    tc::bench::JsonReporter json;
    tc::JsonBridgeReporter reporter(&json);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    if (!json_path.empty() && !json.writeTo(json_path)) {
        std::fprintf(stderr, "failed to write json to %s\n",
                     json_path.c_str());
        return 1;
    }
    return 0;
}
