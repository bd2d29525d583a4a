/**
 * @file
 * Figure 25 (extension): chaos — billing that survives machine
 * failure.
 *
 * The fleet trajectory so far only ever billed on machines that stay
 * up. This bench serves one Poisson-loaded fleet through a fault
 * campaign — machine crashes with state loss and timed cold restarts
 * — once per retry policy (drop / retry-once / retry-backoff), plus
 * one "full chaos" cell that adds transient slowdown and dispatcher-
 * blindness windows on top, and reports per-cell crash/kill/retry
 * counts, lost work, and the fault-billing split.
 *
 * Always enforced:
 *  - billing conservation through failures (<= 1e-6): the fleet's
 *    independently accumulated billed + absorbed seconds match the
 *    per-machine ledger + absorption sums;
 *  - every invocation reaches exactly one terminal state:
 *    completions + abandoned + rejected == arrivals;
 *  - the tenant-pays / provider-absorbs split partitions one total:
 *    billed(tenant-pays) == billed + absorbed(provider-absorbs);
 *  - seed-determinism under threading: serial and 8-worker runs of
 *    every cell produce bit-identical fleet reports, failure
 *    accounting included;
 *  - the compiled fault schedule itself is replay-identical.
 *
 * Knobs: LITMUS_FLEET_INVOCATIONS (arrivals per machine, default
 * 400), LITMUS_FLEET_RATE (per machine, default 500).
 */

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cluster/fault_plan.h"
#include "scenario/scenario_runner.h"

using namespace litmus;

namespace
{

using bench::relativeError;
using cluster::identicalTotals;

/** One cell's conservation error: fleet billed+absorbed accumulators
 *  vs the independent per-machine ledger and absorption sums. */
double
conservationError(const cluster::FleetReport &report)
{
    return relativeError(
        report.billedCpuSeconds + report.absorbedCpuSeconds,
        report.sumMachineBilledSeconds() +
            report.sumMachineAbsorbedSeconds());
}

} // namespace

int
main()
{
    printBanner(std::cout,
                "Figure 25 (extension): chaos — fault-rate sweep x "
                "retry policies, billing conserved through crashes");

    const std::uint64_t perMachine =
        pricing::envOr("LITMUS_FLEET_INVOCATIONS", 400);
    const double ratePerMachine =
        pricing::envOr("LITMUS_FLEET_RATE", 500);

    constexpr unsigned kMachines = 2;
    const std::uint64_t invocations = perMachine * kMachines;
    const double rate = ratePerMachine * kMachines;
    const double span = static_cast<double>(invocations) / rate;

    // The campaign scales with the trace span so the crash process
    // bites at smoke sizes and full sizes alike: ~4 stochastic
    // crashes per machine plus two scripted ones pinned mid-burst,
    // with restarts short enough that capacity loss never stalls the
    // drain.
    const auto baseScenario = [&](cluster::RetryPolicy retry) {
        scenario::ScenarioSpec spec;
        spec.cluster.fleet = {{"cascade-5218", kMachines}};
        spec.cluster.policy = cluster::DispatchPolicy::LeastLoaded;
        spec.traffic.model = "poisson";
        spec.traffic.arrivalsPerSecond = rate;
        spec.traffic.invocations = invocations;
        spec.cluster.keepAlive = 10.0;
        spec.cluster.seed = 11;
        spec.cluster.faults.crashMtbf = span / 4;
        spec.cluster.faults.restartDelay = std::max(1e-3, span / 25);
        spec.cluster.faults.crashAt = {{span * 0.25, 0}, {span * 0.6, 1}};
        spec.cluster.faults.retry = retry;
        spec.cluster.faults.retryMax = 4;
        spec.cluster.faults.retryBackoff = std::max(1e-3, span / 50);
        spec.cluster.faults.billing = cluster::FaultBilling::ProviderAbsorbs;
        return spec;
    };

    // The compiled schedule must be replay-identical: same spec, same
    // fleet, same horizon => the same event list, event for event.
    {
        const auto spec = baseScenario(cluster::RetryPolicy::Drop);
        const auto planA = cluster::FaultPlan::compile(
            spec.cluster.faults, kMachines, span, spec.cluster.seed);
        const auto planB = cluster::FaultPlan::compile(
            spec.cluster.faults, kMachines, span, spec.cluster.seed);
        if (planA.events().size() != planB.events().size())
            fatal("fig25: fault plan not replay-identical");
        for (std::size_t i = 0; i < planA.events().size(); ++i) {
            const auto &a = planA.events()[i];
            const auto &b = planB.events()[i];
            if (a.at != b.at || a.kind != b.kind ||
                a.machine != b.machine || a.factor != b.factor)
                fatal("fig25: fault plan not replay-identical at "
                      "event ", i);
        }
        if (planA.empty())
            fatal("fig25: fault campaign compiled to no events");
    }

    TextTable table({"cell", "crashes", "killed", "retried",
                     "abandoned", "lost s", "absorbed s", "cons err",
                     "deterministic"});
    bool allDeterministic = true;
    double worstConservation = 0;
    std::uint64_t totalKilled = 0;

    const auto runCell = [&](const std::string &name,
                             scenario::ScenarioSpec spec)
        -> cluster::FleetReport {
        spec.cluster.threads = 1;
        scenario::ScenarioRunner serial(spec);
        const cluster::FleetReport report = serial.run();
        spec.cluster.threads = 8;
        scenario::ScenarioRunner threaded(spec);
        const bool deterministic =
            identicalTotals(report, threaded.run());
        allDeterministic = allDeterministic && deterministic;

        const double consErr = conservationError(report);
        worstConservation = std::max(worstConservation, consErr);
        totalKilled += report.killedInvocations;

        // Exactly one terminal state per arrival, crashes or not.
        if (report.completions + report.abandoned +
                report.rejectedMemory !=
            report.arrivals)
            fatal("fig25: cell '", name, "' lost invocations: ",
                  report.completions, " completed + ",
                  report.abandoned, " abandoned + ",
                  report.rejectedMemory, " rejected != ",
                  report.arrivals, " arrivals");

        table.addRow({name, std::to_string(report.crashes),
                      std::to_string(report.killedInvocations),
                      std::to_string(report.retries),
                      std::to_string(report.abandoned),
                      TextTable::num(report.lostCpuSeconds, 4),
                      TextTable::num(report.absorbedCpuSeconds, 4),
                      TextTable::num(consErr, 9),
                      deterministic ? "yes" : "NO"});
        return report;
    };

    // --- Retry-policy sweep under the same crash schedule. ---------
    const auto dropReport =
        runCell("drop", baseScenario(cluster::RetryPolicy::Drop));
    if (dropReport.retries != 0 ||
        dropReport.abandoned != dropReport.killedInvocations)
        fatal("fig25: drop policy must abandon every killed "
              "invocation (", dropReport.retries, " retries, ",
              dropReport.abandoned, " abandoned, ",
              dropReport.killedInvocations, " killed)");

    const auto onceReport =
        runCell("retry-once", baseScenario(cluster::RetryPolicy::RetryOnce));
    if (onceReport.retries + onceReport.abandoned !=
        onceReport.killedInvocations)
        fatal("fig25: retry-once must retry or abandon each kill "
              "exactly once");

    const auto backoffSpec =
        baseScenario(cluster::RetryPolicy::RetryBackoff);
    const auto backoffReport = runCell("retry-backoff", backoffSpec);
    if (backoffReport.retries + backoffReport.abandoned !=
        backoffReport.killedInvocations)
        fatal("fig25: retry-backoff must retry or abandon each kill");

    // --- The fault-billing split partitions one total. -------------
    // Billing mode changes who pays, never what runs: the tenant-pays
    // twin of the backoff cell executes the identical schedule, so
    // its billed seconds must equal the provider's billed + absorbed.
    auto tenantSpec = backoffSpec;
    tenantSpec.cluster.faults.billing = cluster::FaultBilling::TenantPays;
    const auto tenantReport = runCell("tenant-pays", tenantSpec);
    if (tenantReport.absorbedCpuSeconds != 0)
        fatal("fig25: tenant-pays absorbed work");
    const double splitError = relativeError(
        tenantReport.billedCpuSeconds,
        backoffReport.billedCpuSeconds +
            backoffReport.absorbedCpuSeconds);
    const double splitUsdError = relativeError(
        tenantReport.commercialUsd,
        backoffReport.commercialUsd + backoffReport.absorbedUsd);

    // --- Full chaos: slowdown + blindness on top of crashes. -------
    auto chaosSpec = baseScenario(cluster::RetryPolicy::RetryBackoff);
    chaosSpec.cluster.faults.slowMtbf = span / 3;
    chaosSpec.cluster.faults.slowDuration = std::max(2e-3, span / 10);
    chaosSpec.cluster.faults.slowFactor = 0.6;
    chaosSpec.cluster.faults.blindMtbf = span / 3;
    chaosSpec.cluster.faults.blindDuration = std::max(2e-3, span / 12);
    const auto chaosReport = runCell("full-chaos", chaosSpec);

    table.print(std::cout);
    std::cout << "\nbilling split tenant-pays vs provider-absorbs: "
              << TextTable::num(splitError, 9) << " s err, "
              << TextTable::num(splitUsdError, 9) << " $ err\n";

    bench::printPaperMeasured(
        std::cout,
        "n/a (robustness extension; the paper bills on machines that "
        "stay up) — expect conservation <= 1e-6 through crashes, the "
        "billing modes to split one total, and bit-identical reports "
        "under threading",
        std::to_string(chaosReport.crashes) +
            " crashes in the chaos cell, " +
            std::to_string(totalKilled) +
            " invocations killed across the sweep, max conservation "
            "error " +
            TextTable::num(worstConservation, 9) +
            (allDeterministic ? ", all cells deterministic"
                              : ", DETERMINISM BROKEN"));

    if (worstConservation > 1e-6)
        fatal("fig25: billing conservation violated through failures "
              "(", worstConservation, " relative)");
    if (splitError > 1e-6 || splitUsdError > 1e-6)
        fatal("fig25: tenant-pays and provider-absorbs do not split "
              "one total (", splitError, " s, ", splitUsdError,
              " $)");
    if (totalKilled == 0)
        fatal("fig25: the fault campaign never killed an in-flight "
              "invocation — the chaos sweep is not exercising "
              "failure billing");
    if (!allDeterministic)
        fatal("fig25: a chaos cell is not deterministic under "
              "threading");
    return 0;
}
