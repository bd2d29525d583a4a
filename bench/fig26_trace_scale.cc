/**
 * @file
 * Figure 26 (extension): trace-scale serving — streaming arrivals on
 * Azure-dataset-shaped workloads.
 *
 * The streaming arrival path exists so day-long, 10^5-10^6-function
 * traces fit in bounded memory. This bench generates Azure-shaped
 * CSVs along two axes — function count 10^3 -> 10^5 (10^6 at full
 * scale) at a constant fleet-wide arrival volume, and trace length
 * hour -> day — serves each, and reports per-cell peak RSS and the
 * arrival-flow counters (generated / pulled / buffered max).
 *
 * The function sweep holds the served volume constant because
 * everything downstream of arrivals (billing ledgers retain one
 * record per invocation) is O(served) — a sweep that scaled volume
 * with function count would measure the ledger, not the delivery
 * path. What the delivery path controls is arrivals resident at
 * once, and that is asserted exactly: the stream's buffered max is
 * one azure minute (<= 10% of the trace on every standard cell).
 *
 * Always enforced:
 *  - 1 and 8 worker threads produce bit-identical fleet totals AND
 *    per-machine billing ledgers (record for record) on the
 *    differential cell, with and without a crash/retry chaos
 *    campaign;
 *  - peak RSS stays under LITMUS_TRACE_RSS_CEILING_MB.
 * At standard/full scale with LITMUS_BENCH_STRICT != 0 the bench
 * additionally asserts the exact buffered-max bound above and (with
 * /proc available) that the peak stays flat (<= 2x) across the
 * 10^3 -> 10^5 function sweep.
 *
 * Knobs: LITMUS_TRACE_SCALE (small | standard | full; default
 * standard), LITMUS_TRACE_RSS_CEILING_MB (default 2048),
 * LITMUS_BENCH_STRICT (0 relaxes the RSS-shape assertions).
 */

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "scenario/azure_trace.h"
#include "scenario/scenario_runner.h"

using namespace litmus;

namespace
{

using cluster::identicalTotals;

/** One sweep cell: the shape of an Azure-shaped file. */
struct Cell
{
    std::uint64_t functions;
    unsigned minutes;
    double perMinute;

    std::string name() const
    {
        std::string name = "f";
        name += std::to_string(functions);
        name += "_m";
        name += std::to_string(minutes);
        return name;
    }
};

std::vector<Cell>
cellsFor(const std::string &scale)
{
    if (scale == "small")
        return {{1000, 5, 300.0}};
    // Function sweep at one fleet-wide volume (see the file
    // comment), then the duration axis: a day-long trace whose
    // resident minute stays small.
    std::vector<Cell> cells = {{1000, 60, 5000.0},
                               {10000, 60, 5000.0},
                               {100000, 60, 5000.0},
                               {1000, 1440, 500.0}};
    if (scale == "full") {
        cells.push_back({1000000, 60, 5000.0});
        cells.push_back({10000, 1440, 2000.0});
    } else if (scale != "standard") {
        fatal("fig26: unknown LITMUS_TRACE_SCALE '", scale,
              "' (want small | standard | full)");
    }
    return cells;
}

scenario::ScenarioSpec
cellSpec(const std::string &path)
{
    scenario::ScenarioSpec spec;
    spec.cluster.fleet = {{"cascade-5218", 2}};
    spec.set("traffic", "azure"); // drops the 10000-arrival default
    spec.traffic.azurePath = path;
    spec.cluster.keepAlive = 5.0;
    spec.cluster.seed = 7;
    return spec;
}

/** A run's complete observable outcome (fig-26's own copy of the
 *  test_event_core differential harness, fatal() instead of gtest). */
struct Outcome
{
    cluster::FleetReport report;
    std::vector<std::vector<pricing::BillRecord>> ledgers;
};

Outcome
runOutcome(scenario::ScenarioSpec spec)
{
    scenario::ScenarioRunner runner(std::move(spec));
    Outcome out;
    out.report = runner.run();
    for (std::size_t m = 0; m < out.report.machines.size(); ++m)
        out.ledgers.push_back(
            runner.cluster().ledger(static_cast<unsigned>(m)).records());
    return out;
}

void
requireIdentical(const Outcome &a, const Outcome &b,
                 const std::string &what)
{
    if (!identicalTotals(a.report, b.report))
        fatal("fig26: fleet totals diverged (", what, ")");
    if (a.ledgers.size() != b.ledgers.size())
        fatal("fig26: machine count diverged (", what, ")");
    for (std::size_t m = 0; m < a.ledgers.size(); ++m) {
        if (a.ledgers[m].size() != b.ledgers[m].size())
            fatal("fig26: ledger ", m, " record count diverged (",
                  what, ")");
        for (std::size_t r = 0; r < a.ledgers[m].size(); ++r) {
            const pricing::BillRecord &p = a.ledgers[m][r];
            const pricing::BillRecord &q = b.ledgers[m][r];
            if (p.function != q.function || p.tenant != q.tenant ||
                p.cpuSeconds != q.cpuSeconds ||
                p.commercialUsd != q.commercialUsd ||
                p.litmusUsd != q.litmusUsd)
                fatal("fig26: ledger ", m, " record ", r,
                      " diverged (", what, ")");
        }
    }
}

/** The measured serve of one cell. */
struct Measured
{
    cluster::FleetReport report;
    double peakRssMb = 0;
};

Measured
measure(const std::string &path)
{
    Measured m;
    const bool rss = bench::resetPeakRss();
    scenario::ScenarioRunner runner(cellSpec(path));
    m.report = runner.run();
    if (m.report.arrivals == 0)
        fatal("fig26: empty stream from ", path);
    if (rss)
        m.peakRssMb =
            static_cast<double>(bench::peakRssBytes()) / (1 << 20);
    return m;
}

} // namespace

int
main()
{
    printBanner(std::cout,
                "Figure 26 (extension): trace-scale serving — "
                "streaming arrivals on Azure-shaped workloads");

    const char *scaleEnv = std::getenv("LITMUS_TRACE_SCALE");
    const std::string scale =
        scaleEnv && *scaleEnv ? scaleEnv : "standard";
    const double ceilingMb =
        pricing::envOr("LITMUS_TRACE_RSS_CEILING_MB", 2048);
    const bool strict = pricing::envOr("LITMUS_BENCH_STRICT", 1) != 0;

    const std::vector<Cell> cells = cellsFor(scale);
    std::vector<std::string> paths;
    for (const Cell &cell : cells) {
        scenario::AzureTraceGenSpec gen;
        gen.functions = cell.functions;
        gen.minutes = cell.minutes;
        gen.invocationsPerMinute = cell.perMinute;
        gen.seed = 26;
        const std::string path =
            "fig26_azure_" + cell.name() + ".csv";
        const std::uint64_t total =
            scenario::writeAzureShapedCsv(path, gen);
        std::cout << "generated " << path << ": " << cell.functions
                  << " functions x " << cell.minutes << " min, "
                  << total << " invocations\n";
        paths.push_back(path);
    }

    std::vector<Measured> streaming;
    for (const std::string &path : paths)
        streaming.push_back(measure(path));

    TextTable table({"cell", "arrivals", "peak RSS MB", "buffered max"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Measured &m = streaming[i];
        table.addRow({cells[i].name(), std::to_string(m.report.arrivals),
                      TextTable::num(m.peakRssMb, 1),
                      std::to_string(m.report.arrivalFlow.bufferedMax)});
    }
    table.print(std::cout);

    // ---- differential gate: totals + per-record ledgers ------------
    // A dedicated tiny cell keeps this affordable at every scale.
    scenario::AzureTraceGenSpec diffGen;
    diffGen.functions = 500;
    diffGen.minutes = 4;
    diffGen.invocationsPerMinute = 300.0;
    diffGen.seed = 27;
    const std::string diffPath = "fig26_azure_diff.csv";
    scenario::writeAzureShapedCsv(diffPath, diffGen);
    for (const bool chaos : {false, true}) {
        const auto withChaos = [&](unsigned threads) {
            auto spec = cellSpec(diffPath);
            spec.cluster.threads = threads;
            if (chaos) {
                spec.cluster.faults.crashMtbf = 20.0;
                spec.cluster.faults.restartDelay = 1.0;
                spec.cluster.faults.retry = cluster::RetryPolicy::RetryBackoff;
                spec.cluster.faults.retryBackoff = 0.5;
            }
            return runOutcome(std::move(spec));
        };
        const std::string label = chaos ? " (chaos)" : "";
        requireIdentical(withChaos(1), withChaos(8),
                         "1 vs 8 threads" + label);
    }
    std::cout << "\n1 vs 8 threads (totals + per-record ledgers, "
                 "+chaos): identical\n";

    // ---- arrival-residency gate (exact, no /proc needed) -----------
    // The stream holds at most one azure minute.
    if (strict && scale != "small") {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const auto &flow = streaming[i].report.arrivalFlow;
            if (10 * flow.bufferedMax > streaming[i].report.arrivals)
                fatal("fig26: streaming buffered max ",
                      flow.bufferedMax, " above 10% of the trace (",
                      streaming[i].report.arrivals, " arrivals) on ",
                      cells[i].name());
        }
    }

    // ---- RSS-shape gates -------------------------------------------
    const bool rssAvailable = streaming.front().peakRssMb > 0;
    double streamMin = 0, streamMax = 0;
    if (rssAvailable) {
        for (const Measured &m : streaming) {
            if (m.peakRssMb > ceilingMb)
                fatal("fig26: streaming peak RSS ",
                      TextTable::num(m.peakRssMb, 1),
                      " MB exceeds the ", ceilingMb, " MB ceiling");
        }
        // The flatness claim is about the constant-volume function
        // sweep (cells 0-2 at standard/full scale).
        if (scale != "small") {
            streamMin = streamMax = streaming[0].peakRssMb;
            for (std::size_t i = 1; i < 3; ++i) {
                streamMin = std::min(streamMin, streaming[i].peakRssMb);
                streamMax = std::max(streamMax, streaming[i].peakRssMb);
            }
            if (strict && streamMax > 2.0 * streamMin)
                fatal("fig26: streaming peak RSS not flat across the "
                      "function sweep: ", TextTable::num(streamMin, 1),
                      " .. ", TextTable::num(streamMax, 1), " MB");
        }
    } else {
        std::cout << "(/proc unavailable — RSS assertions skipped)\n";
    }

    bench::printPaperMeasured(
        std::cout,
        "n/a (serving-scale extension; the paper's fleet serves "
        "synthetic steady-state) — expect streaming peak RSS flat "
        "across the function sweep, one resident azure minute, and "
        "bit-identical billing at 1 and 8 threads",
        "streaming peak " +
            (rssAvailable
                 ? TextTable::num(streamMax > 0 ? streamMax
                                                : streaming[0].peakRssMb,
                                  1) + " MB"
                 : std::string("n/a")) +
            " across " + std::to_string(cells.size()) +
            " cells (buffered max " +
            std::to_string(
                streaming.back().report.arrivalFlow.bufferedMax) +
            " of " + std::to_string(streaming.back().report.arrivals) +
            " last-cell arrivals), ledgers bit-identical at 1 & 8 "
            "threads (+chaos)");
    return 0;
}
