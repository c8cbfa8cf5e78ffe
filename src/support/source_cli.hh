/**
 * @file
 * Shared CLI plumbing for tools that analyze an event stream: one
 * set of input flags (--trace / --generate, the generator knobs,
 * and the file-reading knobs --io, --prefetch and --merge-workers)
 * and one factory that turns parsed flags into an EventSource, so
 * every tool reads trace files, shard sets and synthetic workloads
 * through the same chunked interface. Callers that analyze the
 * stream wrap it in makeValidatingSource (trace/event_source.hh),
 * which checks every event before the analysis sees it.
 */

#ifndef TC_SUPPORT_SOURCE_CLI_HH
#define TC_SUPPORT_SOURCE_CLI_HH

#include <memory>

#include "gen/random_trace.hh"
#include "support/cli.hh"
#include "trace/event_source.hh"

namespace tc {

/** Register --trace, --generate and the generator parameter flags
 * shared by the trace-consuming tools. */
void addTraceSourceFlags(ArgParser &args);

/** The generator parameters the flags describe. */
RandomTraceParams traceParamsFromFlags(const ArgParser &args);

/** Sentinel: --parallel given bare — one worker per consumer. */
inline constexpr std::size_t kParallelAuto =
    ~static_cast<std::size_t>(0);

/** Register --parallel[=K] for tools that run an AnalysisPipeline
 * fan-out (bare = one worker per analysis, K = worker cap, 0 =
 * sequential; rejected negative/oversized values are clamped by
 * parallelWorkersFromFlags). */
void addParallelFlag(ArgParser &args);

/** The fan-out request the flags describe: 0 = run sequentially
 * (the default), kParallelAuto = one worker per consumer,
 * otherwise the worker-thread cap. Every negative raw value maps
 * to kParallelAuto (-1 is the bare-flag sentinel); tools that
 * want to reject other negatives as typos should check
 * args.getInt("parallel") < -1 before calling (race_detector
 * does). */
std::size_t parallelWorkersFromFlags(const ArgParser &args);

/** Sentinel: --shard-analysis given bare — one worker per
 * hardware thread. */
inline constexpr std::size_t kShardAuto =
    ~static_cast<std::size_t>(0);

/** Register --shard-analysis[=W] for tools that can split a single
 * analysis across variable shards (sharded_driver.hh): bare = one
 * worker per hardware thread, W = worker count, 0/1 = the ordinary
 * sequential analysis. Composes with --parallel (each analysis in
 * the fan-out is itself sharded). */
void addShardAnalysisFlag(ArgParser &args);

/** The intra-analysis worker request the flags describe: 0 =
 * sequential (the default), kShardAuto = one worker per hardware
 * thread, otherwise the worker count. As with --parallel, every
 * negative raw value maps to the auto sentinel; tools rejecting
 * other negatives as typos check args.getInt("shard-analysis")
 * < -1 themselves. */
std::size_t shardAnalysisWorkersFromFlags(const ArgParser &args);

/** Resolve a shard worker request to a concrete count: the auto
 * sentinel becomes the hardware concurrency (at least 2), and a
 * request of 1 collapses to 0 (a one-worker shard *is* the
 * sequential analysis). */
std::size_t resolveShardWorkers(std::size_t requested);

/** Sentinel: --merge-workers given bare — one merge worker per
 * hardware thread. */
inline constexpr std::size_t kMergeAuto =
    ~static_cast<std::size_t>(0);

/** Register --merge-workers[=P] for tools that read shard sets:
 * the K-way merge reconstructing the total order is itself split
 * into P contiguous sequence ranges, one merge worker per range
 * (openShardSetPartitioned), output byte-identical to the
 * sequential merge. Bare = one worker per hardware thread; 0/1 =
 * the ordinary single-thread merge. Composes with --prefetch,
 * --parallel, --shard-analysis and checkpoint/resume. */
void addMergeWorkersFlag(ArgParser &args);

/** The merge-worker request the flags describe: 0 = sequential
 * merge (the default), kMergeAuto = one worker per hardware
 * thread, otherwise the worker count. As with the other worker
 * flags, every negative raw value maps to the auto sentinel; tools
 * rejecting other negatives as typos check
 * args.getInt("merge-workers") < -1 themselves. */
std::size_t mergeWorkersFromFlags(const ArgParser &args);

/** Resolve a merge-worker request to a concrete count: the auto
 * sentinel becomes the hardware concurrency (at least 2), and a
 * request of 1 collapses to 0 (a one-range partitioned merge adds
 * a hand-off thread for nothing the sequential merge doesn't
 * already do). */
std::size_t resolveMergeWorkers(std::size_t requested);

/**
 * The byte-source request --io describes: "auto" (mmap where it
 * applies — regular binary/shard files with no armed fault
 * injection — buffered streams elsewhere), "mmap", or "stream".
 * Returns false on any other value, leaving @p out untouched;
 * makeEventSource reports that as a failed source, so tools only
 * call this directly when they need the mode for their own I/O.
 */
bool ioModeFromFlags(const ArgParser &args, IoMode &out);

/**
 * Build the EventSource the parsed flags describe:
 *  --trace=FILE     a chunked streaming file reader (text/binary/
 *                   shard set by extension; never materializes the
 *                   event vector); --merge-workers=P merges a shard
 *                   set on P range-partitioned workers, and
 *                   --prefetch adds an asynchronous double-buffering
 *                   decorator on top;
 *  --generate       a generated synthetic workload.
 * Returns a source in the failed() state on open/parse errors, and
 * null only when neither input flag was given.
 */
std::unique_ptr<EventSource> makeEventSource(const ArgParser &args);

} // namespace tc

#endif // TC_SUPPORT_SOURCE_CLI_HH
