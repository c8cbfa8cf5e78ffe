/**
 * @file
 * Ill-formed traces through the real race_detector. Every input
 * reaches the analyses through the validating source, so whatever
 * Trace::validate() rejects must stop the run with exit 2 and
 * exactly "error: malformed trace at event N: <msg>" — the index
 * and message Trace::validate() reports — before any analysis
 * report is printed. That holds in every read mode: sequential,
 * --parallel, --checkpoint-every, and a .tcs shard set merged by
 * --merge-workers=2. No input may end the CLI by a signal or with
 * an exit code other than 0, 2 or 3; well-formed inputs report
 * identically in all four modes.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gen/pool_workload.hh"
#include "gen/random_trace.hh"
#include "support/rng.hh"
#include "support/strings.hh"
#include "trace/shard.hh"
#include "trace/trace_io.hh"

namespace tc {
namespace {

const std::string kWorkDir = "/tmp/tc_cli_validation";
const std::string kAnalyses = " --po=hb,shb,maz --clock=tc,vc";

struct CliRun
{
    bool signaled = false;
    int exitCode = -1;
    std::string out;
    std::string err;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
clearDir(const std::string &dir)
{
    if (DIR *d = opendir(dir.c_str())) {
        while (dirent *entry = readdir(d)) {
            const std::string name = entry->d_name;
            if (name != "." && name != "..")
                std::remove((dir + "/" + name).c_str());
        }
        closedir(d);
    }
}

/** Run @p command_line (a CLI and its arguments) from the build
 * directory, capturing its output. */
CliRun
runTool(const std::string &command_line)
{
    const std::string out = kWorkDir + "/out.txt";
    const std::string err = kWorkDir + "/err.txt";
    const std::string command =
        command_line + " > " + out + " 2> " + err;
    const int status = std::system(command.c_str());
    CliRun run;
    run.signaled = status == -1 || WIFSIGNALED(status) ||
                   (WIFEXITED(status) && WEXITSTATUS(status) > 128);
    if (status != -1 && WIFEXITED(status))
        run.exitCode = WEXITSTATUS(status);
    run.out = readFile(out);
    run.err = readFile(err);
    return run;
}

CliRun
runDetector(const std::string &args)
{
    return runTool("./race_detector " + args);
}

/** The per-analysis report blocks ("--- hb/tc ---" onward). */
std::string
reportSection(const std::string &out)
{
    const std::size_t at = out.find("--- ");
    return at == std::string::npos ? std::string() : out.substr(at);
}

class CliValidation : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        mkdir(kWorkDir.c_str(), 0755);
        mkdir(snapDir().c_str(), 0755);
    }

    static std::string
    snapDir()
    {
        return kWorkDir + "/snaps";
    }

    /**
     * Write @p trace to disk and run it through all four read
     * modes, holding each run to the contract in the file comment.
     * @p binary picks .tcb over .tct for the single-file modes.
     */
    void
    expectContract(const Trace &trace, const std::string &label,
                   bool binary = false)
    {
        const std::string file =
            kWorkDir + (binary ? "/input.tcb" : "/input.tct");
        ASSERT_TRUE(saveTrace(trace, file)) << label;
        const std::string prefix = kWorkDir + "/input";
        {
            TraceSource source(trace);
            std::string error;
            ASSERT_EQ(splitTraceStream(source, prefix, 2, &error),
                      trace.size())
                << label << ": " << error;
        }
        clearDir(snapDir());

        const ValidationResult v = trace.validate();
        const std::string expected_error =
            v.ok ? std::string()
                 : strFormat("error: malformed trace at event %zu: "
                             "%s\n",
                             v.eventIndex, v.message.c_str());
        const std::string input = " --trace=" + file + kAnalyses;
        const std::string modes[][2] = {
            {"sequential", input},
            {"parallel", input + " --parallel"},
            {"checkpoint", input + " --checkpoint-every=3" +
                               " --snapshot-dir=" + snapDir()},
            {"merge-workers", " --trace=" + shardPath(prefix, 0) +
                                  kAnalyses + " --merge-workers=2"},
        };
        std::string reference;
        for (const auto &mode : modes) {
            const std::string where = label + " [" + mode[0] + "]";
            const CliRun run = runDetector(mode[1]);
            ASSERT_FALSE(run.signaled)
                << where << " died by a signal: " << run.err;
            ASSERT_TRUE(run.exitCode == 0 || run.exitCode == 2 ||
                        run.exitCode == 3)
                << where << " exit " << run.exitCode << ": "
                << run.err;
            if (!v.ok) {
                EXPECT_EQ(run.exitCode, 2) << where;
                EXPECT_EQ(run.err, expected_error) << where;
                EXPECT_EQ(reportSection(run.out), "")
                    << where << " printed reports";
                continue;
            }
            EXPECT_NE(run.exitCode, 3) << where << ": " << run.err;
            EXPECT_EQ(run.err, "") << where;
            const std::string reports = reportSection(run.out);
            EXPECT_NE(reports, "") << where;
            if (mode[0] == modes[0][0])
                reference = reports;
            else
                EXPECT_EQ(reports, reference) << where;
        }
        for (std::uint32_t i = 0; i < 2; i++)
            std::remove(shardPath(prefix, i).c_str());
    }
};

/** One small trace per Trace::validate() failure kind a file can
 * carry (negative ids never decode, so the range checks are out of
 * reach here), each violation at the last event. */
TEST_F(CliValidation, EveryFailureKindExitsTwoInEveryMode)
{
    struct Case
    {
        const char *label;
        Trace trace;
    };
    std::vector<Case> cases;
    auto add = [&](const char *label) -> Trace & {
        cases.push_back({label, Trace()});
        Trace &t = cases.back().trace;
        t.write(0, 0);
        t.write(1, 0);
        return t;
    };
    {
        Trace &t = add("acts after join");
        t.join(0, 1);
        t.read(1, 0);
    }
    {
        Trace &t = add("acts after tjoin");
        t.tcreate(0, 2);
        t.write(2, 0);
        t.tjoin(0, 2);
        t.write(2, 0);
    }
    {
        Trace &t = add("double acquire");
        t.acquire(0, 0);
        t.acquire(1, 0);
    }
    {
        Trace &t = add("release of a free lock");
        t.release(0, 0);
    }
    {
        Trace &t = add("release by a non-holder");
        t.acquire(0, 0);
        t.release(1, 0);
    }
    {
        Trace &t = add("fork of a started thread");
        t.fork(0, 1);
    }
    {
        Trace &t = add("fork of itself");
        t.fork(0, 0);
    }
    {
        Trace &t = add("forked twice");
        t.fork(0, 2);
        t.fork(1, 2);
    }
    {
        Trace &t = add("fork of a lifecycle thread");
        t.tcreate(0, 2);
        t.fork(1, 2);
    }
    {
        Trace &t = add("join of itself");
        t.join(0, 0);
    }
    {
        Trace &t = add("joined twice");
        t.join(0, 1);
        t.join(0, 1);
    }
    {
        Trace &t = add("tcreate of itself");
        t.tcreate(0, 0);
    }
    {
        Trace &t = add("tcreate of a started thread");
        t.tcreate(0, 1);
    }
    {
        Trace &t = add("created twice");
        t.tcreate(0, 2);
        t.tcreate(1, 2);
    }
    {
        Trace &t = add("tcreate of a forked thread");
        t.fork(0, 2);
        t.tcreate(1, 2);
    }
    {
        Trace &t = add("tcreate of a joined thread");
        t.join(1, 2);
        t.tcreate(0, 2);
    }
    {
        Trace &t = add("tretire after a plain join");
        t.tcreate(0, 2);
        t.join(0, 2);
        t.tretire(0, 2);
    }
    {
        Trace &t = add("tjoin of itself");
        t.tjoin(0, 0);
    }
    {
        Trace &t = add("tjoin without tcreate");
        t.tjoin(0, 1);
    }
    {
        Trace &t = add("tjoined twice");
        t.tcreate(0, 2);
        t.tjoin(0, 2);
        t.tjoin(1, 2);
    }
    {
        Trace &t = add("tretire without tjoin");
        t.tcreate(0, 2);
        t.tretire(0, 2);
    }
    {
        Trace &t = add("retired twice");
        t.tcreate(0, 2);
        t.tjoin(0, 2);
        t.tretire(0, 2);
        t.tretire(1, 2);
    }
    for (const Case &c : cases) {
        const ValidationResult v = c.trace.validate();
        ASSERT_FALSE(v.ok) << c.label;
        ASSERT_EQ(v.eventIndex, c.trace.size() - 1)
            << c.label << ": " << v.message;
        expectContract(c.trace, c.label);
        if (HasFatalFailure())
            return;
    }
}

/** Seeded single- and double-point mutants (thread, op and target
 * edits) of valid flat and lifecycle traces; ids stay within a few
 * past the declared spaces, so every mutant decodes and the
 * validator decides. */
TEST_F(CliValidation, RandomMutantsHoldTheContract)
{
    RandomTraceParams flat;
    flat.threads = 4;
    flat.locks = 2;
    flat.vars = 4;
    flat.events = 40;
    flat.syncRatio = 0.3;
    flat.forkJoin = true;
    flat.seed = 5;
    PoolWorkloadParams pool;
    pool.poolSize = 2;
    pool.tasks = 4;
    pool.taskEvents = 4;
    pool.locks = 2;
    pool.vars = 4;
    pool.seed = 7;
    const Trace bases[] = {generateRandomTrace(flat),
                           generatePoolWorkload(pool)};
    for (const Trace &base : bases)
        ASSERT_TRUE(base.validate().ok);

    Rng rng(0x5eed);
    int rejected = 0;
    const int mutants = 200;
    for (int m = 0; m < mutants; m++) {
        const Trace &base = bases[m % 2];
        std::vector<Event> events(base.begin(), base.end());
        const int edits = 1 + static_cast<int>(rng.below(2));
        for (int k = 0; k < edits; k++) {
            Event &e = events[rng.below(events.size())];
            switch (rng.below(3)) {
              case 0:
                e.tid = static_cast<Tid>(
                    rng.below(static_cast<std::uint64_t>(
                        base.numThreads() + 1)));
                break;
              case 1:
                e.op = static_cast<OpType>(rng.below(9));
                break;
              default:
                e.target = static_cast<std::uint32_t>(rng.below(
                    static_cast<std::uint64_t>(base.numThreads() + 2)));
                break;
            }
        }
        Trace mutant;
        for (const Event &e : events)
            mutant.push(e);
        rejected += mutant.validate().ok ? 0 : 1;
        expectContract(mutant, "mutant " + std::to_string(m),
                       m % 4 >= 2);
        if (HasFatalFailure())
            return;
    }
    // The sweep must mostly exercise the rejection path.
    EXPECT_GT(rejected, mutants / 2);
}

/**
 * A lock acquired before the snapshot position and acquired again
 * by another thread after it: the resumed run re-validates the
 * prefix it skips, so it stops at the same event with the same
 * message as an uninterrupted run — the analyses never see the
 * second acquire.
 */
TEST_F(CliValidation, ResumeRevalidatesTheSkippedPrefix)
{
    Trace trace;
    trace.acquire(0, 0);
    for (int i = 0; i < 3999; i++)
        trace.write(1 + i % 3, static_cast<VarId>(i % 16));
    trace.acquire(1, 0); // event 4000: lock 0 is still held by 0
    trace.release(1, 0);
    const ValidationResult v = trace.validate();
    ASSERT_FALSE(v.ok);
    ASSERT_EQ(v.eventIndex, 4000u);
    const std::string expected_error =
        strFormat("error: malformed trace at event 4000: %s\n",
                  v.message.c_str());

    const std::string file = kWorkDir + "/resume.tcb";
    ASSERT_TRUE(saveTrace(trace, file));
    const std::string run_args = "--trace=" + file + kAnalyses;
    const CliRun straight = runDetector(run_args);
    EXPECT_EQ(straight.exitCode, 2);
    EXPECT_EQ(straight.err, expected_error);

    for (const char *extra : {"", " --parallel"}) {
        clearDir(snapDir());
        const std::string checkpointed =
            run_args + extra + " --checkpoint-every=1000" +
            " --snapshot-dir=" + snapDir();
        const CliRun first = runDetector(checkpointed);
        EXPECT_EQ(first.exitCode, 2) << extra;
        EXPECT_EQ(first.err, expected_error) << extra;

        const CliRun resumed = runDetector(checkpointed + " --resume");
        ASSERT_FALSE(resumed.signaled) << extra << ": " << resumed.err;
        EXPECT_NE(resumed.out.find("(event 4000)"), std::string::npos)
            << extra << " did not resume from the last snapshot:\n"
            << resumed.out;
        EXPECT_EQ(resumed.exitCode, 2) << extra;
        EXPECT_EQ(resumed.err, expected_error) << extra;
        EXPECT_EQ(reportSection(resumed.out), "") << extra;
    }
}

/**
 * Header counts are hints. A tiny trace whose header declares a
 * huge id space (or event count) must stop at its torn last record,
 * exit 3, in every read mode, and never by a signal: nothing the
 * header sizes may allocate past the bytes behind it. Covered: a
 * .tcb of one declared event and three bytes of a torn record; a
 * .tct of one event line and a torn one; a 59-byte one-shard .tcs
 * holding one 17-byte record but declaring two events (or 2^40,
 * which trace_tool's whole-trace load must not reserve either).
 * The memory-capped CI leg reruns this suite where overcommit
 * cannot hide such an allocation.
 */
TEST_F(CliValidation, HugeHeaderCountsExitThree)
{
    auto expect_exit_three = [](const std::string &file,
                                const std::string &label,
                                const std::string &error) {
        for (const char *mode : {"", " --parallel", " --io=stream",
                                 " --shard-analysis=2"}) {
            const CliRun run =
                runDetector("--trace=" + file + kAnalyses + mode);
            ASSERT_FALSE(run.signaled)
                << label << mode << ": " << run.err;
            EXPECT_EQ(run.exitCode, 3)
                << label << mode << ": " << run.err;
            EXPECT_EQ(run.err, error) << label << mode;
        }
    };
    auto label = [](const char *format, const char *field,
                    std::uint64_t value) {
        return strFormat("%s %s=%llu", format, field,
                         static_cast<unsigned long long>(value));
    };

    struct Field
    {
        const char *name;
        std::size_t offset; // past the 6-byte magic
        std::size_t width;
    };
    const Field fields[] = {{"threads", 6, 4},
                            {"locks", 10, 4},
                            {"vars", 14, 4},
                            {"events", 18, 8}};
    const std::uint64_t values[] = {(1ull << 31) - 1, (1ull << 32) - 1,
                                    1ull << 40};
    const std::string tcb = kWorkDir + "/huge_header.tcb";
    for (const Field &field : fields) {
        for (const std::uint64_t value : values) {
            if (field.width == 4 && value > UINT32_MAX)
                continue;
            std::string bytes("TCTB1\0", 6);
            const std::uint32_t ids[3] = {1, 0, 0};
            const std::uint64_t events = 1;
            bytes.append(reinterpret_cast<const char *>(ids),
                         sizeof(ids));
            bytes.append(reinterpret_cast<const char *>(&events),
                         sizeof(events));
            bytes.append(3, '\0');
            if (field.width == 4) {
                const auto v = static_cast<std::uint32_t>(value);
                bytes.replace(field.offset, 4,
                              reinterpret_cast<const char *>(&v), 4);
            } else {
                bytes.replace(field.offset, 8,
                              reinterpret_cast<const char *>(&value),
                              8);
            }
            ASSERT_EQ(bytes.size(), 29u);
            std::ofstream(tcb, std::ios::binary) << bytes;
            expect_exit_three(
                tcb, label("tcb", field.name, value),
                "error: truncated event stream at event 0\n");
        }
    }

    const std::string tcs = kWorkDir + "/huge_header.0.tcs";
    // ids: threads, locks, vars; events: the shard's and the set's.
    auto write_tcs = [&tcs](const std::uint64_t (&ids)[3],
                            std::uint64_t events) {
        const std::uint32_t words[5] = {
            0, 1, static_cast<std::uint32_t>(ids[0]),
            static_cast<std::uint32_t>(ids[1]),
            static_cast<std::uint32_t>(ids[2])};
        const std::uint64_t counts[2] = {events, events};
        const std::uint64_t seq = 0;
        const std::int32_t tid = 0;
        const std::uint32_t var = 1;
        std::string bytes("TCSH2\0", 6);
        bytes.append(reinterpret_cast<const char *>(words),
                     sizeof(words));
        bytes.append(reinterpret_cast<const char *>(counts),
                     sizeof(counts));
        bytes.append(reinterpret_cast<const char *>(&seq), 8);
        bytes.append(reinterpret_cast<const char *>(&tid), 4);
        bytes.append(reinterpret_cast<const char *>(&var), 4);
        bytes.push_back(static_cast<char>(OpType::Write));
        ASSERT_EQ(bytes.size(), 59u);
        std::ofstream(tcs, std::ios::binary) << bytes;
    };
    const std::string tcs_error =
        "error: " + tcs + ": truncated shard at event 1\n";

    const char *const id_fields[] = {"threads", "locks", "vars"};
    const std::uint64_t huge_ids[] = {(1ull << 31) - 1,
                                      (1ull << 32) - 1};
    const std::string tct = kWorkDir + "/huge_header.tct";
    for (std::size_t f = 0; f < 3; f++) {
        for (const std::uint64_t value : huge_ids) {
            std::uint64_t ids[3] = {2, 1, 2};
            ids[f] = value;
            std::ofstream(tct)
                << "threads " << ids[0] << " locks " << ids[1]
                << " vars " << ids[2] << "\n0 w 1\n1 w\n";
            expect_exit_three(
                tct, label("tct", id_fields[f], value),
                "error: expected: <tid> <op> <target> (line 3)\n");
            write_tcs(ids, 2);
            expect_exit_three(tcs, label("tcs", id_fields[f], value),
                              tcs_error);
        }
    }
    for (const std::uint64_t events : {2ull, 1ull << 40}) {
        write_tcs({2, 1, 2}, events);
        const std::string what = label("tcs", "events", events);
        expect_exit_three(tcs, what, tcs_error);
        const CliRun sliced = runTool("./trace_tool slice " + tcs +
                                      " " + kWorkDir +
                                      "/sliced.tct --vars=1");
        ASSERT_FALSE(sliced.signaled) << what << ": " << sliced.err;
        EXPECT_EQ(sliced.exitCode, 3) << what << ": " << sliced.err;
        EXPECT_EQ(sliced.err, tcs_error) << what;
    }
}

} // namespace
} // namespace tc
