/**
 * @file
 * Figure 23 (extension): heterogeneous fleet serving.
 *
 * The paper calibrates and prices on two servers — Cascade Lake 5218
 * (Section 3) and Ice Lake 4314 (Section 8) — but always one at a
 * time. This bench serves one open-loop trace from a fleet that mixes
 * both generations, under every dispatch policy, with per-type Litmus
 * pricing: each machine type is calibrated once (ProfileStore) and
 * billed through its own profile-backed discount model.
 *
 * Always enforced:
 *  - the per-machine-type billing breakdown sums to the fleet totals
 *    (relative error <= 1e-6, for billed seconds and both revenues);
 *  - fleet billed seconds equal the sum of the per-machine ledgers
 *    (<= 1e-6);
 *  - the threaded epoch runner is bit-identical to the serial one at
 *    a fixed seed.
 *
 * Knobs: LITMUS_FLEET_INVOCATIONS (arrivals per machine, default
 * 625), LITMUS_FLEET_RATE (per machine, default 500),
 * LITMUS_FLEET_PRICING (0 disables the calibration sweep + Litmus
 * pricing; smoke/sanitizer runs).
 */

#include <cmath>
#include <iostream>

#include "bench_util.h"
#include "scenario/scenario_runner.h"

using namespace litmus;

namespace
{

constexpr unsigned kPerType = 4; // machines per generation

/** The mixed-fleet point as a declarative scenario; pricing (when
 *  on) runs through the runner's memoized calibrate path. */
scenario::ScenarioSpec
fleetScenario(cluster::DispatchPolicy policy, std::uint64_t per_machine,
              double rate_per_machine, bool pricing)
{
    scenario::ScenarioSpec spec;
    spec.cluster.fleet = {{"cascade-5218", kPerType},
                  {"icelake-4314", kPerType}};
    spec.cluster.policy = policy;
    const unsigned machines = 2 * kPerType;
    spec.traffic.arrivalsPerSecond = rate_per_machine * machines;
    spec.traffic.invocations = per_machine * machines;
    spec.cluster.keepAlive = 10.0;
    spec.cluster.seed = 7;
    spec.calibrate = pricing;
    // The env cap keeps smoke/sanitizer calibrations coarse; 0 means
    // the full dedicated sweep.
    spec.calibrationLevels = pricing::envOr("LITMUS_CAL_LEVELS", 0);
    return spec;
}

using bench::relativeError;

/** Worst relative error between the type breakdown and the fleet
 *  totals (billed seconds, commercial and Litmus revenue), plus
 *  exact count checks. */
double
typeBreakdownError(const cluster::FleetReport &report)
{
    Seconds billed = 0;
    double commercial = 0, litmus = 0;
    std::uint64_t dispatched = 0, completions = 0;
    unsigned machines = 0;
    for (const cluster::TypeReport &t : report.types) {
        billed += t.billedCpuSeconds;
        commercial += t.commercialUsd;
        litmus += t.litmusUsd;
        dispatched += t.dispatched;
        completions += t.completions;
        machines += t.machines;
    }
    if (dispatched != report.dispatched ||
        completions != report.completions ||
        machines != report.machines.size())
        fatal("fig23: type breakdown loses machines or invocations");
    if (report.billedCpuSeconds <= 0)
        fatal("fig23: fleet billed no CPU time");
    double err = relativeError(report.billedCpuSeconds, billed);
    err = std::max(err,
                   relativeError(report.commercialUsd, commercial));
    err = std::max(err, relativeError(report.litmusUsd, litmus));
    return err;
}

} // namespace

int
main()
{
    printBanner(std::cout,
                "Figure 23 (extension): heterogeneous fleet, "
                "cascade-5218 + icelake-4314 x all dispatch policies");

    const std::uint64_t perMachine =
        pricing::envOr("LITMUS_FLEET_INVOCATIONS", 625);
    const double ratePerMachine =
        pricing::envOr("LITMUS_FLEET_RATE", 500);
    const bool litmusPricing =
        pricing::envOr("LITMUS_FLEET_PRICING", 1) != 0;

    TextTable table({"policy", "type", "dispatched", "cold %",
                     "billed s", "commercial $", "litmus $",
                     "discount %"});
    double worstTypeError = 0, worstConservation = 0;
    double costCascadeShare = 0, rrCascadeShare = 0;
    double discountCascade = 0, discountIcelake = 0;
    for (cluster::DispatchPolicy policy : cluster::allPolicies()) {
        // Calibration is memoized process-wide (ProfileStore), so
        // the per-policy runners share two sweeps, not run eight.
        scenario::ScenarioRunner runner(fleetScenario(
            policy, perMachine, ratePerMachine, litmusPricing));
        const cluster::FleetReport &report = runner.run();

        worstTypeError =
            std::max(worstTypeError, typeBreakdownError(report));
        worstConservation = std::max(
            worstConservation,
            relativeError(report.billedCpuSeconds,
                          report.sumMachineBilledSeconds()));

        for (const cluster::TypeReport &t : report.types) {
            const double share =
                report.dispatched > 0
                    ? static_cast<double>(t.dispatched) /
                          report.dispatched
                    : 0.0;
            if (t.type == "cascade-5218") {
                if (policy == cluster::DispatchPolicy::CostAware) {
                    costCascadeShare = share;
                    discountCascade = t.discount();
                }
                if (policy == cluster::DispatchPolicy::RoundRobin)
                    rrCascadeShare = share;
            } else if (policy == cluster::DispatchPolicy::CostAware) {
                discountIcelake = t.discount();
            }
            table.addRow(
                {policyName(policy), t.type,
                 std::to_string(t.dispatched),
                 TextTable::num(t.dispatched > 0
                                    ? 100.0 * t.coldStarts /
                                          t.dispatched
                                    : 0.0,
                                1),
                 TextTable::num(t.billedCpuSeconds, 3),
                 TextTable::num(t.commercialUsd, 6),
                 TextTable::num(t.litmusUsd, 6),
                 TextTable::num(100 * t.discount(), 1)});
        }
    }
    table.print(std::cout);

    // Determinism of the threaded runner on the mixed fleet: serial
    // vs. 8 workers must produce identical totals.
    auto detSpec = fleetScenario(cluster::DispatchPolicy::CostAware,
                                 perMachine, ratePerMachine,
                                 litmusPricing);
    detSpec.cluster.threads = 1;
    scenario::ScenarioRunner serial(detSpec);
    const cluster::FleetReport &serialReport = serial.run();
    detSpec.cluster.threads = 8;
    scenario::ScenarioRunner threaded(detSpec);
    const cluster::FleetReport &threadedReport = threaded.run();
    const bool deterministic =
        cluster::identicalTotals(serialReport, threadedReport);
    std::cout << "\ndeterminism(mixed fleet, 1 vs 8 threads): "
              << (deterministic ? "identical totals" : "MISMATCH")
              << "  billed "
              << TextTable::num(serialReport.billedCpuSeconds, 6)
              << " vs "
              << TextTable::num(threadedReport.billedCpuSeconds, 6)
              << "\n";

    bench::printPaperMeasured(
        std::cout,
        "n/a (heterogeneity extension; the paper prices one server "
        "generation at a time) — expect cost-aware to shift load "
        "toward the faster generation and per-type billing to sum "
        "to the fleet",
        "cost-aware routes " +
            TextTable::num(100 * costCascadeShare, 1) +
            "% of traffic to cascade-5218 (round-robin " +
            TextTable::num(100 * rrCascadeShare, 1) +
            "%), type discounts " +
            TextTable::num(100 * discountCascade, 1) + "% / " +
            TextTable::num(100 * discountIcelake, 1) +
            "% (cascade/icelake), max type-breakdown error " +
            TextTable::num(worstTypeError, 9) +
            ", max conservation error " +
            TextTable::num(worstConservation, 9));

    if (worstTypeError > 1e-6)
        fatal("fig23: per-type billing does not sum to the fleet "
              "total (", worstTypeError, " relative)");
    if (worstConservation > 1e-6)
        fatal("fig23: fleet billing conservation violated (",
              worstConservation, " relative)");
    if (!deterministic)
        fatal("fig23: threaded mixed-fleet runner is not "
              "deterministic");
    return 0;
}
