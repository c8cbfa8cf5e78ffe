#include "support/source_cli.hh"

#include <thread>

#include "gen/generator_source.hh"
#include "support/strings.hh"
#include "trace/prefetch_source.hh"

namespace tc {

void
addTraceSourceFlags(ArgParser &args)
{
    args.addString("trace", "",
                   "trace file to analyze (.tct/.tcb, or any "
                   ".tcs member of a sharded capture)");
    args.addString("io", "auto",
                   "byte source for --trace: mmap decodes binary "
                   "files in place, stream reads through buffered "
                   "I/O, auto picks mmap where it applies "
                   "(auto|mmap|stream)");
    args.addBool("prefetch", false,
                 "decode --trace on a background reader thread "
                 "(double-buffered windows)");
    addMergeWorkersFlag(args);
    args.addBool("generate", false, "generate a synthetic trace");
    args.addInt("threads", 16, "threads for --generate");
    args.addInt("locks", 16, "locks for --generate");
    args.addInt("vars", 4096, "variables for --generate");
    args.addInt("events", 500000, "events for --generate");
    args.addDouble("sync-ratio", 0.1, "sync share for --generate");
    args.addInt("seed", 1, "seed for --generate");
}

void
addParallelFlag(ArgParser &args)
{
    args.addOptionalInt(
        "parallel", 0, -1,
        "fan-out worker threads (bare --parallel = one per "
        "analysis; K caps the pool; 0 = sequential)");
}

std::size_t
parallelWorkersFromFlags(const ArgParser &args)
{
    const std::int64_t raw = args.getInt("parallel");
    if (raw < 0)
        return kParallelAuto;
    return static_cast<std::size_t>(raw);
}

void
addShardAnalysisFlag(ArgParser &args)
{
    args.addOptionalInt(
        "shard-analysis", 0, -1,
        "split each analysis across W var-shard workers (bare = "
        "one per hardware thread; 0/1 = sequential)");
}

std::size_t
shardAnalysisWorkersFromFlags(const ArgParser &args)
{
    const std::int64_t raw = args.getInt("shard-analysis");
    if (raw < 0)
        return kShardAuto;
    return static_cast<std::size_t>(raw);
}

std::size_t
resolveShardWorkers(std::size_t requested)
{
    if (requested == kShardAuto) {
        const unsigned hw = std::thread::hardware_concurrency();
        return hw >= 2 ? static_cast<std::size_t>(hw) : 2;
    }
    return requested <= 1 ? 0 : requested;
}

void
addMergeWorkersFlag(ArgParser &args)
{
    args.addOptionalInt(
        "merge-workers", 0, -1,
        "split a sharded --trace's K-way merge across P "
        "sequence-range workers (bare = one per hardware thread; "
        "0/1 = sequential merge)");
}

std::size_t
mergeWorkersFromFlags(const ArgParser &args)
{
    const std::int64_t raw = args.getInt("merge-workers");
    if (raw < 0)
        return kMergeAuto;
    return static_cast<std::size_t>(raw);
}

std::size_t
resolveMergeWorkers(std::size_t requested)
{
    if (requested == kMergeAuto) {
        const unsigned hw = std::thread::hardware_concurrency();
        return hw >= 2 ? static_cast<std::size_t>(hw) : 2;
    }
    return requested <= 1 ? 0 : requested;
}

bool
ioModeFromFlags(const ArgParser &args, IoMode &out)
{
    const std::string raw = args.getString("io");
    if (raw == "auto")
        out = IoMode::Auto;
    else if (raw == "mmap")
        out = IoMode::Mmap;
    else if (raw == "stream")
        out = IoMode::Stream;
    else
        return false;
    return true;
}

RandomTraceParams
traceParamsFromFlags(const ArgParser &args)
{
    RandomTraceParams params;
    params.threads = static_cast<Tid>(args.getInt("threads"));
    params.locks = static_cast<LockId>(args.getInt("locks"));
    params.vars = static_cast<VarId>(args.getInt("vars"));
    params.events =
        static_cast<std::uint64_t>(args.getInt("events"));
    params.syncRatio = args.getDouble("sync-ratio");
    params.seed = static_cast<std::uint64_t>(args.getInt("seed"));
    return params;
}

std::unique_ptr<EventSource>
makeEventSource(const ArgParser &args)
{
    if (!args.getString("trace").empty()) {
        const std::size_t mergeWorkers =
            resolveMergeWorkers(mergeWorkersFromFlags(args));
        IoMode io = IoMode::Auto;
        if (!ioModeFromFlags(args, io)) {
            return makeFailedSource(strFormat(
                "unknown --io mode '%s' (auto|mmap|stream)",
                args.getString("io").c_str()));
        }
        auto source = openTraceFile(args.getString("trace"),
                                    kDefaultSourceWindow,
                                    mergeWorkers, io);
        // Prefetch pays off where there is decode + I/O to hide;
        // generated sources below have neither. Over a partitioned
        // merge the range workers decode and merge, and prefetch
        // moves the stitching off the analysis thread.
        if (args.getBool("prefetch") && !source->failed())
            source = makePrefetchSource(std::move(source));
        return source;
    }
    if (args.getBool("generate"))
        return makeRandomTraceSource(traceParamsFromFlags(args));
    return nullptr;
}

} // namespace tc
