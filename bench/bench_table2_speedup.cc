/**
 * @file
 * Regenerates the paper's Table 2: average speedup of tree clocks
 * over vector clocks for computing each partial order (MAZ, SHB,
 * HB), with and without the race-detection analysis component.
 *
 * Paper reference values: PO-only 2.02 (MAZ), 2.66 (SHB), 2.97
 * (HB); PO+Analysis 1.49, 1.80, 1.11. Expected shape: TC wins on
 * average everywhere; the HB speedup is damped most by the analysis
 * because only ~9.5% of corpus events are synchronization events.
 *
 * --json writes one entry per partial order and mode
 * ("po_only/SHB", "po_analysis/MAZ", ...) with the mean and geomean
 * TC-over-VC ratio; ci/check_table2_speedup.py gates the PO-only
 * geomeans of SHB and MAZ on it. Both clocks are timed in the same
 * run, so the ratio needs no cross-machine baseline.
 */

#include <iostream>

#include "bench_common.hh"
#include "support/table.hh"

using namespace tc;
using namespace tc::bench;

int
main(int argc, char **argv)
{
    ArgParser args("Table 2: average TC-over-VC speedup per partial "
                   "order");
    addCommonFlags(args);
    addJsonFlag(args);
    if (!args.parse(argc, argv))
        return 1;
    const double scale = args.getDouble("scale");
    const int reps = static_cast<int>(args.getInt("reps"));

    auto corpus = defaultCorpus();
    const auto limit =
        static_cast<std::size_t>(args.getInt("max-traces"));
    if (corpus.size() > limit)
        corpus.resize(limit);

    // speedups[po][mode] with mode 0 = PO only, 1 = PO+Analysis.
    std::vector<double> speedups[3][2];

    for (const CorpusSpec &spec : corpus) {
        const Trace trace = buildCorpusTrace(spec, scale);
        TC_CHECK(trace.validate().ok, "corpus trace must be valid");
        for (const Po po : allPos()) {
            for (const bool analysis : {false, true}) {
                const double vc = timePo<VectorClock>(
                    po, trace, analysis, reps);
                const double tc = timePo<TreeClock>(
                    po, trace, analysis, reps);
                speedups[static_cast<int>(po)][analysis ? 1 : 0]
                    .push_back(vc / tc);
            }
        }
        std::fprintf(stderr, "  done: %s\n", spec.name.c_str());
    }

    std::printf("== Table 2: average speedup due to tree clocks "
                "(%zu traces, scale %.3g, reps %d) ==\n\n",
                corpus.size(), scale, reps);
    Table table({"", "MAZ", "SHB", "HB"});
    auto fmt_row = [&](const char *label, int mode) {
        table.addRow(
            {label,
             fixed(mean(speedups[static_cast<int>(Po::MAZ)][mode]),
                   2),
             fixed(mean(speedups[static_cast<int>(Po::SHB)][mode]),
                   2),
             fixed(mean(speedups[static_cast<int>(Po::HB)][mode]),
                   2)});
    };
    fmt_row("PO", 0);
    fmt_row("PO + Analysis", 1);
    table.print(std::cout);
    std::printf("\npaper: PO 2.02 / 2.66 / 2.97; PO+Analysis "
                "1.49 / 1.80 / 1.11\n");
    std::printf("geomean PO-only: MAZ %.2f  SHB %.2f  HB %.2f\n",
                geomean(speedups[static_cast<int>(Po::MAZ)][0]),
                geomean(speedups[static_cast<int>(Po::SHB)][0]),
                geomean(speedups[static_cast<int>(Po::HB)][0]));

    JsonReporter report;
    report.context("harness", "bench_table2_speedup");
    report.context("scale", strFormat("%g", scale));
    report.context("reps", strFormat("%d", reps));
    for (const int mode : {0, 1}) {
        for (const Po po : allPos()) {
            const auto &ratios = speedups[static_cast<int>(po)][mode];
            report.entry(strFormat("%s/%s",
                                   mode == 0 ? "po_only"
                                             : "po_analysis",
                                   poName(po)));
            report.metric("traces", static_cast<double>(ratios.size()));
            report.metric("mean_tc_over_vc", mean(ratios));
            report.metric("geomean_tc_over_vc", geomean(ratios));
        }
    }
    return maybeWriteJson(args, report) ? 0 : 1;
}
