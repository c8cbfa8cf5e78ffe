/**
 * @file
 * Driver of the end-to-end benchmark (run.py). Three modes:
 *
 *   gen     Generate one workload's input from a seed with src/gen
 *           and write it as .tcb, plus the .tcb of its first 20k
 *           events, which the oracle check runs on. Prints the event
 *           count as JSON.
 *   oracle  Racy-variable count per partial order from PoOracle,
 *           the graph-closure reference, on a (small) trace file.
 *   traced  Repeat race_detector's own sequence of public calls on
 *           a trace file, loadTrace -> validate -> computeStats ->
 *           AnalysisPipeline::run, once per clock, then time each
 *           layer on its own: PO-only and full engine runs of every
 *           partial order (whatever the CLI ran), a
 *           decode drain with no consumer, and the pipeline run
 *           sequentially and on a worker pool. Every call records
 *           a span (name, start, end, parent, run id) with the
 *           counts taken at that boundary; the spans are kept in
 *           memory and written as JSON when the run ends.
 *
 *   tcbench_driver gen --workload=shb-sync --seed=1 --out=in.tcb \
 *       --prefix-out=prefix.tcb
 *   tcbench_driver oracle --trace=prefix.tcb
 *   tcbench_driver traced --trace=in.tcb --po=hb,shb,maz \
 *       --parallel --run=fanout --spans=spans.json
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "analysis/hb_engine.hh"
#include "analysis/maz_engine.hh"
#include "analysis/oracle.hh"
#include "analysis/pipeline.hh"
#include "analysis/shb_engine.hh"
#include "core/tree_clock.hh"
#include "core/vector_clock.hh"
#include "gen/corpus.hh"
#include "support/cli.hh"
#include "support/strings.hh"
#include "trace/event_source.hh"
#include "trace/trace_io.hh"
#include "trace/trace_stats.hh"

// ------------------------------------------------ allocation counter

// Counts operator new calls made by the calling thread. Engine runs
// happen on the main thread, so a thread-local count is exact for
// them and costs the pipeline's worker threads no shared cache line.
namespace {

thread_local std::uint64_t t_heap_allocs = 0;

void *
countedAlloc(std::size_t size)
{
    void *p = std::malloc(size ? size : 1);
    if (!p)
        throw std::bad_alloc();
    t_heap_allocs++;
    return p;
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    void *p = std::malloc(size ? size : 1);
    if (p)
        t_heap_allocs++;
    return p;
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return operator new(size, std::nothrow);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

using namespace tc;

namespace {

const char *const kPos[] = {"hb", "shb", "maz"};
/** Long enough to hold races, short enough for the O(n^2)-bit
 * PoOracle (~0.1 s). */
constexpr std::size_t kOraclePrefixEvents = 20000;
/** Repetitions of each single-layer timing; the runner takes the
 * median span. */
constexpr int kLayerReps = 3;

// ---------------------------------------------------------- workloads

/** Corpus entry named @p name (the benchmark's workloads reuse the
 * corpus recipes, locality settings included). */
CorpusSpec
corpusEntry(const std::string &name)
{
    for (const CorpusSpec &spec : defaultCorpus())
        if (spec.name == name)
            return spec;
    std::fprintf(stderr, "error: no corpus entry '%s'\n",
                 name.c_str());
    std::exit(1);
}

/**
 * The input recipe of workload @p name at full size, seeded from
 * @p seed. False for an unknown name.
 */
bool
workloadSpec(const std::string &name, std::uint64_t seed,
             CorpusSpec &spec)
{
    if (name == "hb-access") {
        // Access-dominated: few threads and locks, 1% sync, an
        // access history (1M vars) far bigger than L2. Corpus
        // locality settings, so joins are rare and mostly vacuous.
        spec = corpusEntry("java-lufact-like");
        spec.name = name;
        spec.params.threads = 8;
        spec.params.locks = 4;
        spec.params.vars = 1 << 20;
        spec.params.events = 8'000'000;
        spec.params.syncRatio = 0.01;
        spec.params.readFraction = 0.7;
        spec.params.hotVars = 64;
    } else if (name == "shb-sync") {
        spec = corpusEntry("java-cassandra-like");
        spec.params.events = 2'000'000;
    } else if (name == "fanout") {
        spec = corpusEntry("omp-kripke-96");
        spec.params.events = 1'500'000;
    } else {
        return false;
    }
    // Distinct seeds per workload and benchmark seed, stable
    // across runs.
    spec.params.seed = spec.params.seed * 1'000'003 + seed;
    return true;
}

// -------------------------------------------------------------- spans

/** One timed call at a layer boundary. */
struct Span
{
    std::string name;
    std::string run;
    int parent = -1;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::map<std::string, double> counts;
};

/** In-memory span recorder; written out once, at the end. */
class Tracer
{
  public:
    Tracer() : origin_(Clock::now()) {}

    void setRun(std::string run) { run_ = std::move(run); }

    int
    begin(const std::string &name)
    {
        Span s;
        s.name = name;
        s.run = run_;
        s.parent = open_.empty() ? -1 : open_.back();
        spans_.push_back(std::move(s));
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        spans_.back().startNs = now();
        return open_.back();
    }

    void
    end(int id)
    {
        const std::int64_t t = now();
        spans_[static_cast<std::size_t>(id)].endNs = t;
        open_.pop_back();
    }

    void
    count(int id, const std::string &key, double value)
    {
        spans_[static_cast<std::size_t>(id)].counts[key] = value;
    }

    /** Run @p fn inside a span named @p name; returns the span id. */
    template <typename Fn>
    int
    span(const std::string &name, Fn &&fn)
    {
        const int id = begin(name);
        fn();
        end(id);
        return id;
    }

    bool
    write(const std::string &path) const
    {
        std::ofstream os(path);
        os << "{\"spans\": [\n";
        for (std::size_t i = 0; i < spans_.size(); i++) {
            const Span &s = spans_[i];
            os << "  {\"id\": " << i << ", \"name\": \"" << s.name
               << "\", \"run\": \"" << s.run
               << "\", \"parent\": " << s.parent
               << ", \"start_ns\": " << s.startNs
               << ", \"end_ns\": " << s.endNs << ", \"counts\": {";
            bool first = true;
            for (const auto &[key, value] : s.counts) {
                os << (first ? "" : ", ") << "\"" << key
                   << "\": " << strFormat("%.17g", value);
                first = false;
            }
            os << "}}" << (i + 1 < spans_.size() ? "," : "") << "\n";
        }
        os << "]}\n";
        return static_cast<bool>(os);
    }

  private:
    using Clock = std::chrono::steady_clock;

    std::int64_t
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    Clock::time_point origin_;
    std::string run_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

// ------------------------------------------------------------ helpers

std::vector<std::string>
splitList(const std::string &raw)
{
    std::vector<std::string> out;
    for (const std::string &item : splitString(raw, ',')) {
        const std::string t = trimString(item);
        if (!t.empty())
            out.push_back(t);
    }
    return out;
}

/** <Po>Engine<ClockT>::run(trace). */
template <typename ClockT>
EngineResult
runEngine(const std::string &po, const Trace &trace,
          const EngineConfig &cfg)
{
    if (po == "hb") {
        HbEngine<ClockT> engine(cfg);
        return engine.run(trace);
    }
    if (po == "shb") {
        ShbEngine<ClockT> engine(cfg);
        return engine.run(trace);
    }
    MazEngine<ClockT> engine(cfg);
    return engine.run(trace);
}

/** Attach @p r's outcome and work counters to span @p id, keys
 * prefixed by @p prefix. */
void
countResult(Tracer &tracer, int id, const EngineResult &r,
            const std::string &prefix = "")
{
    const std::pair<const char *, std::uint64_t> counts[] = {
        {"events", r.events},
        {"races", r.races.total()},
        {"racy_vars", r.races.racyVarCount()},
        {"ds_work", r.work.dsWork},
        {"vt_work", r.work.vtWork},
        {"joins", r.work.joins},
        {"copies", r.work.copies},
        {"deep_copies", r.work.deepCopies},
        {"clock_bytes_peak", r.work.clockBytesPeak},
    };
    for (const auto &[key, value] : counts)
        tracer.count(id, prefix + key, static_cast<double>(value));
}

/** The CLI's pipeline: one consumer per (po, clock). */
AnalysisPipeline
makePipeline(const std::vector<std::string> &pos,
             const std::string &clock)
{
    AnalysisPipeline pipeline;
    EngineConfig cfg;
    cfg.maxReports = 10; // race_detector's --max-reports default
    for (const std::string &po : pos)
        pipeline.add(makeAnalysisConsumer(po, clock, cfg));
    return pipeline;
}

std::vector<AnalysisReport>
runPipeline(AnalysisPipeline &pipeline, EventSource &source,
            std::size_t workers)
{
    if (workers <= 1)
        return pipeline.run(source);
    ParallelOptions popt;
    popt.workers = workers;
    return pipeline.run(source, popt);
}

// -------------------------------------------------------------- modes

int
modeGen(const ArgParser &args)
{
    CorpusSpec spec;
    if (!workloadSpec(args.getString("workload"),
                      static_cast<std::uint64_t>(args.getInt("seed")),
                      spec)) {
        std::fprintf(stderr, "error: unknown workload '%s'\n",
                     args.getString("workload").c_str());
        return 1;
    }
    const Trace trace =
        buildCorpusTrace(spec, args.getDouble("scale"));
    if (!trace.validate().ok) {
        std::fprintf(stderr, "error: generated trace is invalid\n");
        return 1;
    }
    if (!saveTrace(trace, args.getString("out"))) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     args.getString("out").c_str());
        return 1;
    }
    const std::size_t prefix_n =
        std::min(trace.size(), kOraclePrefixEvents);
    Trace prefix(trace.numThreads(), trace.numLocks(),
                 trace.numVars());
    prefix.append(trace.events().data(), prefix_n);
    if (!saveTrace(prefix, args.getString("prefix-out"))) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     args.getString("prefix-out").c_str());
        return 1;
    }
    std::printf("{\"events\": %zu, \"threads\": %d, \"locks\": %d, "
                "\"vars\": %d, \"prefix_events\": %zu}\n",
                trace.size(), trace.numThreads(), trace.numLocks(),
                trace.numVars(), prefix_n);
    return 0;
}

int
modeOracle(const ArgParser &args)
{
    ParseResult parsed = loadTrace(args.getString("trace"));
    if (!parsed.ok) {
        std::fprintf(stderr, "error: %s\n", parsed.message.c_str());
        return 1;
    }
    std::printf("{");
    const PartialOrderKind kinds[] = {PartialOrderKind::HB,
                                      PartialOrderKind::SHB,
                                      PartialOrderKind::MAZ};
    for (int i = 0; i < 3; i++) {
        const PoOracle oracle(parsed.trace, kinds[i]);
        std::printf("%s\"%s\": %llu", i ? ", " : "", kPos[i],
                    static_cast<unsigned long long>(
                        oracle.races().racyVarCount));
    }
    std::printf("}\n");
    return 0;
}

template <typename ClockT>
void
tracedEngines(Tracer &tracer, const Trace &trace)
{
    for (const std::string po : kPos) {
        for (const bool analysis : {false, true}) {
            WorkCounters work;
            EngineConfig cfg;
            cfg.analysis = analysis;
            cfg.validate = false;
            cfg.maxReports = 10;
            cfg.counters = &work;
            EngineResult r;
            const std::uint64_t allocs0 = t_heap_allocs;
            const int id =
                tracer.span((analysis ? "engine.run." : "engine.po.") +
                                po,
                            [&] { r = runEngine<ClockT>(po, trace,
                                                        cfg); });
            tracer.count(id, "heap_allocs",
                         static_cast<double>(t_heap_allocs - allocs0));
            countResult(tracer, id, r);
        }
    }
}

int
modeTraced(const ArgParser &args)
{
    const std::string path = args.getString("trace");
    const std::vector<std::string> pos =
        splitList(args.getString("po"));
    // race_detector --parallel: one worker per analysis.
    const std::size_t workers =
        args.getBool("parallel") ? pos.size() : 1;
    Tracer tracer;

    for (const std::string clock : {"tc", "vc"}) {
        tracer.setRun(args.getString("run") + "/" + clock);

        // The CLI's own sequence of public calls.
        const int root = tracer.begin("cli_mirror");
        ParseResult parsed;
        tracer.span("trace.load",
                    [&] { parsed = loadTrace(path); });
        if (!parsed.ok) {
            std::fprintf(stderr, "error: %s\n",
                         parsed.message.c_str());
            return 3;
        }
        Trace trace = std::move(parsed.trace);
        ValidationResult valid;
        tracer.span("trace.validate",
                    [&] { valid = trace.validate(); });
        if (!valid.ok) {
            std::fprintf(stderr, "error: invalid trace: %s\n",
                         valid.message.c_str());
            return 2;
        }
        TraceStats stats;
        tracer.span("trace.stats",
                    [&] { stats = computeStats(trace); });
        {
            AnalysisPipeline pipeline = makePipeline(pos, clock);
            TraceSource source(trace);
            std::vector<AnalysisReport> reports;
            const int id = tracer.span("pipeline.run", [&] {
                reports = runPipeline(pipeline, source, workers);
            });
            for (const AnalysisReport &report : reports)
                countResult(tracer, id, report.result,
                            report.name + ".");
        }
        tracer.end(root);

        // Each layer on its own, on the same materialized trace.
        for (int rep = 0; rep < kLayerReps; rep++) {
            if (clock == std::string("tc"))
                tracedEngines<TreeClock>(tracer, trace);
            else
                tracedEngines<VectorClock>(tracer, trace);
            for (const std::size_t w : {std::size_t{1}, pos.size()}) {
                AnalysisPipeline pipeline = makePipeline(pos, clock);
                TraceSource source(trace);
                tracer.span(w > 1 ? "pipeline.parallel"
                                  : "pipeline.sequential",
                            [&] { runPipeline(pipeline, source, w); });
                if (pos.size() == 1)
                    break; // one consumer: the pool is the sequential
                           // run
            }
        }
    }

    // Decode with no consumer: the ingest layer alone.
    tracer.setRun(args.getString("run") + "/io");
    for (int rep = 0; rep < kLayerReps; rep++) {
        std::uint64_t decoded = 0;
        bool decode_failed = false;
        const int drain = tracer.span("decode.drain", [&] {
            std::unique_ptr<EventSource> source = openTraceFile(path);
            std::vector<Event> storage;
            EventWindow window;
            while (!(window = source->readWindow(
                         storage, kDefaultSourceWindow))
                        .empty())
                decoded += window.size;
            decode_failed = source->failed();
        });
        tracer.count(drain, "events", static_cast<double>(decoded));
        if (decode_failed) {
            std::fprintf(stderr, "error: decode drain failed\n");
            return 3;
        }
    }

    if (!tracer.write(args.getString("spans"))) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     args.getString("spans").c_str());
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("benchmark driver: gen | oracle | traced");
    args.addString("workload", "", "gen: workload name");
    args.addInt("seed", 1, "gen: input seed");
    args.addDouble("scale", 1.0, "gen: event-count scale factor");
    args.addString("out", "", "gen: output .tcb");
    args.addString("prefix-out", "", "gen: output prefix .tcb");
    args.addString("trace", "", "oracle/traced: input file");
    args.addString("po", "hb",
                   "traced: the CLI's partial orders (pipeline)");
    args.addBool("parallel", false,
                 "traced: the CLI ran with --parallel");
    args.addString("run", "run", "traced: run id prefix");
    args.addString("spans", "spans.json", "traced: span output");
    if (!args.parse(argc, argv) || args.positional().size() != 1) {
        std::fprintf(stderr, "usage: tcbench_driver "
                             "gen|oracle|traced --flags\n");
        return 1;
    }
    const std::string mode = args.positional()[0];
    if (mode == "gen")
        return modeGen(args);
    if (mode == "oracle")
        return modeOracle(args);
    if (mode == "traced")
        return modeTraced(args);
    std::fprintf(stderr, "error: unknown mode '%s'\n", mode.c_str());
    return 1;
}
