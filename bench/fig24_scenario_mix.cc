/**
 * @file
 * Figure 24 (extension): the scenario mix — every traffic model
 * through one fleet.
 *
 * The pricing trajectory so far only ever billed under open-loop
 * Poisson load. This bench serves the same fleet under all four
 * scenario traffic models — poisson, diurnal (sinusoid-modulated
 * rate), burst (on/off MMPP), and trace (CSV replay of a
 * deterministically synthesized arrival log) — with per-type Litmus
 * pricing, and reports per-model throughput, cold-start rate,
 * empirical arrival rate, and the aggregate discount.
 *
 * Always enforced:
 *  - every model is seed-deterministic under threading: serial and
 *    8-worker runs produce bit-identical fleet reports;
 *  - fleet billing conservation (<= 1e-6) for every model.
 *
 * Knobs: LITMUS_FLEET_INVOCATIONS (arrivals per machine, default
 * 500), LITMUS_FLEET_RATE (per machine, default 500),
 * LITMUS_FLEET_PRICING (0 disables calibration + Litmus pricing),
 * LITMUS_CAL_LEVELS (calibration sweep cap).
 */

#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "scenario/scenario_runner.h"
#include "workload/suite.h"

using namespace litmus;

namespace
{

using bench::relativeError;
using cluster::identicalTotals;

/**
 * Synthesize the replay trace: a deterministic Poisson-ish arrival
 * log at the given rate where every third row names a suite function
 * and the rest leave the field empty (sampled from the scenario pool
 * at replay). Exercises the full CSV surface: header, comments,
 * named and anonymous rows.
 */
std::string
writeSyntheticTrace(std::uint64_t rows, double rate)
{
    const std::string path = "fig24_trace.csv";
    std::ofstream csv(path);
    if (!csv)
        fatal("fig24: cannot write ", path);
    csv << "# synthesized by fig24_scenario_mix\n";
    csv << "arrival_seconds,function\n";
    const auto pool = workload::allFunctions();
    Rng rng(1234);
    double at = 0;
    csv.precision(9);
    for (std::uint64_t i = 0; i < rows; ++i) {
        at += rng.exponential(1.0 / rate);
        csv << std::fixed << at;
        if (i % 3 == 0)
            csv << "," << pool[rng.below(pool.size())]->name;
        else
            csv << ",";
        csv << "\n";
    }
    return path;
}

} // namespace

int
main()
{
    printBanner(std::cout,
                "Figure 24 (extension): scenario traffic mix — "
                "poisson / diurnal / burst / trace through one fleet");

    const std::uint64_t perMachine =
        pricing::envOr("LITMUS_FLEET_INVOCATIONS", 500);
    const double ratePerMachine =
        pricing::envOr("LITMUS_FLEET_RATE", 500);
    const bool litmusPricing =
        pricing::envOr("LITMUS_FLEET_PRICING", 1) != 0;

    constexpr unsigned kMachines = 2;
    const std::uint64_t invocations = perMachine * kMachines;
    const double rate = ratePerMachine * kMachines;
    // Expected span of the arrival trace; the diurnal/burst knobs
    // scale with it so every model completes several load cycles.
    const double span =
        static_cast<double>(invocations) / rate;

    const std::string tracePath =
        writeSyntheticTrace(invocations, rate);

    const auto baseScenario = [&](const std::string &model) {
        scenario::ScenarioSpec spec;
        spec.cluster.fleet = {{"cascade-5218", kMachines}};
        spec.cluster.policy = cluster::DispatchPolicy::WarmthAware;
        spec.traffic.model = model;
        spec.traffic.arrivalsPerSecond = rate;
        spec.traffic.invocations = invocations;
        spec.traffic.diurnalPeriod = std::max(0.05, span / 4);
        spec.traffic.diurnalAmplitude = 0.9;
        spec.traffic.burstOn = std::max(0.02, span / 10);
        spec.traffic.burstOff = std::max(0.06, 3 * span / 10);
        spec.traffic.tracePath = tracePath;
        spec.cluster.keepAlive = 10.0;
        spec.cluster.seed = 7;
        spec.calibrate = litmusPricing;
        spec.calibrationLevels = pricing::envOr("LITMUS_CAL_LEVELS", 0);
        return spec;
    };

    TextTable table({"model", "arrivals", "served/s", "empirical/s",
                     "cold %", "billed s", "discount %",
                     "deterministic"});
    bool allDeterministic = true;
    double worstConservation = 0;
    double commercialSum = 0, litmusSum = 0;
    for (const std::string model :
         {"poisson", "diurnal", "burst", "trace"}) {
        auto spec = baseScenario(model);
        spec.cluster.threads = 1;
        scenario::ScenarioRunner serial(spec);
        const cluster::FleetReport &report = serial.run();
        spec.cluster.threads = 8;
        scenario::ScenarioRunner threaded(spec);
        const bool deterministic =
            identicalTotals(report, threaded.run());
        allDeterministic = allDeterministic && deterministic;

        worstConservation = std::max(
            worstConservation,
            relativeError(report.billedCpuSeconds,
                          report.sumMachineBilledSeconds()));

        // Mean rate the model actually realized: pull the run's
        // arrival stream again (same arrival seed => identical
        // stream) and measure count over its span — the post-drain
        // makespan would understate it.
        Rng traceRng(cluster::deriveArrivalSeed(spec.cluster.seed));
        const auto stream = serial.traffic().open(
            traceRng, serial.clusterConfig().functionPool);
        cluster::Invocation last;
        while (stream->next(last)) {
        }
        const double traceSpan = last.arrival > 0 ? last.arrival : 1.0;
        const double empirical =
            static_cast<double>(stream->pulled()) / traceSpan;

        commercialSum += report.commercialUsd;
        litmusSum += report.litmusUsd;

        table.addRow({model, std::to_string(report.arrivals),
                      TextTable::num(report.throughput(), 0),
                      TextTable::num(empirical, 0),
                      TextTable::num(100 * report.coldStartRate(), 1),
                      TextTable::num(report.billedCpuSeconds, 3),
                      TextTable::num(100 * report.discount(), 1),
                      deterministic ? "yes" : "NO"});
    }

    table.print(std::cout);

    const double aggregateDiscount =
        commercialSum > 0 ? 1.0 - litmusSum / commercialSum : 0.0;
    bench::printPaperMeasured(
        std::cout,
        "n/a (scenario extension; the paper bills under synthetic "
        "steady-state only) — expect every model deterministic under "
        "threading",
        "aggregate discount " +
            TextTable::num(100 * aggregateDiscount, 1) +
            "% across 4 traffic models, max conservation error " +
            TextTable::num(worstConservation, 9) +
            (allDeterministic ? ", all models deterministic"
                              : ", DETERMINISM BROKEN"));

    if (worstConservation > 1e-6)
        fatal("fig24: fleet billing conservation violated (",
              worstConservation, " relative)");
    if (!allDeterministic)
        fatal("fig24: a traffic model is not deterministic under "
              "threading");
    return 0;
}
