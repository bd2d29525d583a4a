/**
 * @file
 * Tests for fault injection: the compiled fault schedule, the
 * cluster's crash/slowdown/blindness handling, retry-policy billing
 * semantics, and the scenario-level fault.* surface.
 *
 * Suite names start with Fault/Chaos so the CI ThreadSanitizer job's
 * test filter picks them up alongside the other concurrency suites.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/config_reader.h"
#include "test_traffic.h"
#include "scenario/scenario.h"
#include "sim/machine_catalog.h"
#include "workload/suite.h"

namespace litmus::cluster
{
namespace
{

using workload::FunctionSpec;
using workload::Language;

/** Small fast functions (Go startup is the shortest) for fleet runs. */
const std::vector<FunctionSpec> &
tinySuite()
{
    static const std::vector<FunctionSpec> suite = [] {
        std::vector<FunctionSpec> fns;
        for (const char *name : {"alpha-go", "beta-go"}) {
            FunctionSpec spec;
            spec.name = name;
            spec.language = Language::Go;
            workload::Phase body;
            body.name = "body";
            body.instructions = 3_Minstr;
            body.demand.cpi0 = 0.8;
            body.demand.l2Mpki = 4.0;
            body.demand.l3WorkingSet = 2_MiB;
            body.demand.l3MissBase = 0.2;
            body.demand.mlp = 4.0;
            spec.body = {body};
            spec.memoryFootprint = 256_MiB;
            fns.push_back(spec);
        }
        return fns;
    }();
    return suite;
}

std::vector<const FunctionSpec *>
tinyPool()
{
    std::vector<const FunctionSpec *> pool;
    for (const FunctionSpec &spec : tinySuite())
        pool.push_back(&spec);
    return pool;
}

/** An 8-core cut of the Cascade Lake preset, registered once so fleet
 *  specs can name it. */
const std::string &
testMachine()
{
    static const std::string name = [] {
        sim::MachineConfig cfg =
            sim::MachineCatalog::get("cascade-5218");
        cfg.name = "test-fault-cascade-8";
        cfg.cores = 8;
        sim::MachineCatalog::registerPreset(cfg);
        return cfg.name;
    }();
    return name;
}

ClusterConfig
smallFleet(unsigned machines, std::uint64_t invocations = 400)
{
    ClusterConfig cfg;
    cfg.fleet = {{testMachine(), machines}};
    cfg.policy = DispatchPolicy::LeastLoaded;
    cfg.traffic = tests::poissonTraffic(4000, invocations);
    cfg.functionPool = tinyPool();
    cfg.seed = 11;
    cfg.threads = 1;
    return cfg;
}

/** A crash campaign that reliably kills in-flight work on the 0.1 s
 *  trace smallFleet(2) generates: stochastic crashes every ~25 ms per
 *  machine plus two scripted ones pinned mid-trace. */
ClusterConfig
crashFleet(RetryPolicy retry,
           FaultBilling billing = FaultBilling::ProviderAbsorbs)
{
    ClusterConfig cfg = smallFleet(2);
    cfg.faults.crashMtbf = 0.025;
    cfg.faults.restartDelay = 0.004;
    cfg.faults.crashAt = {{0.025, 0}, {0.06, 1}};
    cfg.faults.retry = retry;
    cfg.faults.retryMax = 4;
    cfg.faults.retryBackoff = 0.002;
    cfg.faults.billing = billing;
    return cfg;
}

FaultSpec
stochasticSpec()
{
    FaultSpec spec;
    spec.seed = 42;
    spec.crashMtbf = 2.0;
    spec.restartDelay = 0.5;
    spec.slowMtbf = 1.5;
    spec.slowDuration = 0.4;
    spec.slowFactor = 0.6;
    spec.blindMtbf = 1.8;
    spec.blindDuration = 0.3;
    return spec;
}

bool
sameEvents(const FaultPlan &a, const FaultPlan &b)
{
    if (a.events().size() != b.events().size())
        return false;
    for (std::size_t i = 0; i < a.events().size(); ++i) {
        const FaultEvent &x = a.events()[i];
        const FaultEvent &y = b.events()[i];
        if (x.at != y.at || x.kind != y.kind ||
            x.machine != y.machine || x.factor != y.factor)
            return false;
    }
    return true;
}

double
relErr(double measured, double expected)
{
    const double mag = std::abs(expected);
    return mag > 0 ? std::abs(measured - expected) / mag
                   : std::abs(measured);
}

// ---------------------------------------------------------------------
// The compiled schedule.
// ---------------------------------------------------------------------

TEST(FaultPlan, PolicyAndBillingNamesRoundTrip)
{
    for (RetryPolicy policy :
         {RetryPolicy::Drop, RetryPolicy::RetryOnce,
          RetryPolicy::RetryBackoff})
        EXPECT_EQ(retryPolicyByName("fault.retry",
                                    retryPolicyName(policy)),
                  policy);
    EXPECT_EQ(retryPolicyByName("fault.retry", "once"),
              RetryPolicy::RetryOnce);
    EXPECT_EQ(retryPolicyByName("fault.retry", "backoff"),
              RetryPolicy::RetryBackoff);
    EXPECT_EXIT(retryPolicyByName("fault.retry", "pray"),
                ::testing::ExitedWithCode(1),
                "fault\\.retry: unknown retry policy");

    for (FaultBilling billing :
         {FaultBilling::TenantPays, FaultBilling::ProviderAbsorbs})
        EXPECT_EQ(faultBillingByName("fault.billing",
                                     faultBillingName(billing)),
                  billing);
    EXPECT_EQ(faultBillingByName("fault.billing", "tenant"),
              FaultBilling::TenantPays);
    EXPECT_EQ(faultBillingByName("fault.billing", "provider"),
              FaultBilling::ProviderAbsorbs);
    EXPECT_EXIT(faultBillingByName("fault.billing", "split"),
                ::testing::ExitedWithCode(1),
                "fault\\.billing: unknown fault billing mode");
}

TEST(FaultPlan, ScriptedFaultParsing)
{
    // Both separators: ',' and the ';' existing scenario files use;
    // machine defaults to 0.
    for (const char *listing : {"0.5@1;2.0", "0.5@1,2.0"}) {
        const auto faults =
            parseScriptedFaults("fault.crash.at", listing);
        ASSERT_EQ(faults.size(), 2u);
        EXPECT_DOUBLE_EQ(faults[0].at, 0.5);
        EXPECT_EQ(faults[0].machine, 1u);
        EXPECT_DOUBLE_EQ(faults[1].at, 2.0);
        EXPECT_EQ(faults[1].machine, 0u);
    }
    EXPECT_TRUE(parseScriptedFaults("fault.crash.at", "").empty());
    EXPECT_EXIT(parseScriptedFaults("fault.crash.at", "abc"),
                ::testing::ExitedWithCode(1), "bad fault time");
    EXPECT_EXIT(parseScriptedFaults("fault.crash.at", "0.5@x"),
                ::testing::ExitedWithCode(1), "bad machine index");
}

TEST(FaultPlan, ValidateCatchesNonsense)
{
    FaultSpec spec;
    spec.crashMtbf = -1;
    EXPECT_EXIT(spec.validate(), ::testing::ExitedWithCode(1),
                "fault.crash.mtbf");
    spec = FaultSpec{};
    spec.crashMtbf = 1;
    spec.restartDelay = 0;
    EXPECT_EXIT(spec.validate(), ::testing::ExitedWithCode(1),
                "fault.crash.restart");
    spec = FaultSpec{};
    spec.slowMtbf = 1;
    spec.slowFactor = 1.5;
    EXPECT_EXIT(spec.validate(), ::testing::ExitedWithCode(1),
                "fault.slow.factor");
    spec = FaultSpec{};
    spec.blindMtbf = 1;
    spec.blindDuration = 0;
    EXPECT_EXIT(spec.validate(), ::testing::ExitedWithCode(1),
                "fault.blind.duration");
    spec = FaultSpec{};
    spec.retry = RetryPolicy::RetryBackoff;
    spec.retryMax = 1;
    EXPECT_EXIT(spec.validate(), ::testing::ExitedWithCode(1),
                "fault.retry.max");
}

TEST(FaultPlan, CompileIsReplayIdentical)
{
    const FaultSpec spec = stochasticSpec();
    const FaultPlan a = FaultPlan::compile(spec, 4, 10.0, 11);
    const FaultPlan b = FaultPlan::compile(spec, 4, 10.0, 11);
    EXPECT_FALSE(a.empty());
    EXPECT_TRUE(sameEvents(a, b));

    // A different fault seed moves the schedule.
    FaultSpec reseeded = spec;
    reseeded.seed = 43;
    EXPECT_FALSE(
        sameEvents(a, FaultPlan::compile(reseeded, 4, 10.0, 11)));
}

TEST(FaultPlan, EventsSortedAndEveryCrashPairsWithARestart)
{
    const FaultSpec spec = stochasticSpec();
    const FaultPlan plan = FaultPlan::compile(spec, 3, 10.0, 11);
    ASSERT_FALSE(plan.empty());

    std::size_t crashes = 0;
    for (std::size_t i = 0; i < plan.events().size(); ++i) {
        const FaultEvent &ev = plan.events()[i];
        if (i > 0) {
            EXPECT_LE(plan.events()[i - 1].at, ev.at);
        }
        // Start events are generated inside the horizon; only the
        // matching restart / window-end may land past it.
        if (ev.kind == FaultKind::Crash ||
            ev.kind == FaultKind::SlowStart ||
            ev.kind == FaultKind::BlindStart) {
            EXPECT_LT(ev.at, 10.0);
        }
        if (ev.kind != FaultKind::Crash)
            continue;
        ++crashes;
        // The machine's restart is scheduled exactly restartDelay
        // later.
        bool restarted = false;
        for (const FaultEvent &later : plan.events())
            if (later.kind == FaultKind::Restart &&
                later.machine == ev.machine &&
                later.at == ev.at + spec.restartDelay)
                restarted = true;
        EXPECT_TRUE(restarted)
            << "crash at " << ev.at << " on machine " << ev.machine
            << " has no restart";
    }
    EXPECT_GT(crashes, 0u);
}

TEST(FaultPlan, FaultClassesDrawIndependentStreams)
{
    // Enabling slowdown windows must not move the crash schedule:
    // each machine and fault class draws from its own Rng stream.
    FaultSpec crashOnly;
    crashOnly.seed = 42;
    crashOnly.crashMtbf = 2.0;
    crashOnly.restartDelay = 0.5;
    const FaultPlan a = FaultPlan::compile(crashOnly, 3, 10.0, 11);

    const FaultPlan b =
        FaultPlan::compile(stochasticSpec(), 3, 10.0, 11);

    const auto crashesOf = [](const FaultPlan &plan) {
        std::vector<FaultEvent> out;
        for (const FaultEvent &ev : plan.events())
            if (ev.kind == FaultKind::Crash)
                out.push_back(ev);
        return out;
    };
    const auto crashesA = crashesOf(a);
    const auto crashesB = crashesOf(b);
    ASSERT_FALSE(crashesA.empty());
    ASSERT_EQ(crashesA.size(), crashesB.size());
    for (std::size_t i = 0; i < crashesA.size(); ++i) {
        EXPECT_EQ(crashesA[i].at, crashesB[i].at);
        EXPECT_EQ(crashesA[i].machine, crashesB[i].machine);
    }
}

TEST(FaultPlan, SeedDerivationIsStableAndDistinct)
{
    FaultSpec spec;
    // An explicit fault seed wins.
    spec.seed = 7;
    EXPECT_EQ(deriveFaultSeed(spec, 11), 7u);
    // Unset derives from the scenario seed: stable, but not the
    // scenario seed itself (the traffic generator owns that stream).
    spec.seed = 0;
    const std::uint64_t derived = deriveFaultSeed(spec, 11);
    EXPECT_EQ(deriveFaultSeed(spec, 11), derived);
    EXPECT_NE(derived, 11u);
    EXPECT_NE(deriveFaultSeed(spec, 12), derived);
}

TEST(FaultPlan, ScriptedMachineOutOfRangeIsFatal)
{
    FaultSpec spec;
    spec.crashAt = {{0.5, 7}};
    EXPECT_EXIT(FaultPlan::compile(spec, 2, 10.0, 11),
                ::testing::ExitedWithCode(1), "names machine");
}

// ---------------------------------------------------------------------
// The cluster under fire.
// ---------------------------------------------------------------------

TEST(FaultCluster, TotalsIdenticalAcrossThreadCounts)
{
    ClusterConfig base = crashFleet(RetryPolicy::RetryBackoff);
    base.faults.slowMtbf = 0.03;
    base.faults.slowDuration = 0.01;
    base.faults.slowFactor = 0.6;
    base.faults.blindMtbf = 0.03;
    base.faults.blindDuration = 0.008;

    ClusterConfig serialCfg = base;
    serialCfg.threads = 1;
    Cluster serial(serialCfg);
    const FleetReport &reference = serial.run();
    EXPECT_GT(reference.crashes, 0u);
    EXPECT_GT(reference.killedInvocations, 0u);

    for (unsigned threads : {4u, 16u}) {
        ClusterConfig cfg = base;
        cfg.threads = threads;
        Cluster threaded(cfg);
        EXPECT_TRUE(identicalTotals(reference, threaded.run()))
            << threads << " threads diverged from serial";
    }
}

TEST(FaultCluster, ConservationHoldsThroughCrashes)
{
    Cluster fleet(crashFleet(RetryPolicy::RetryBackoff));
    const FleetReport &report = fleet.run();
    ASSERT_GT(report.killedInvocations, 0u);

    // Every cycle any engine retired is billed or absorbed; the
    // independently accumulated fleet totals match the per-machine
    // ledger and absorption sums.
    EXPECT_LE(relErr(report.billedCpuSeconds +
                         report.absorbedCpuSeconds,
                     report.sumMachineBilledSeconds() +
                         report.sumMachineAbsorbedSeconds()),
              1e-6);
    EXPECT_LE(relErr(report.lostCpuSeconds,
                     report.sumMachineLostSeconds()),
              1e-6);

    // Every arrival reaches exactly one terminal state.
    EXPECT_EQ(report.completions + report.abandoned +
                  report.rejectedMemory,
              report.arrivals);
}

TEST(FaultCluster, DropAbandonsEveryKilledInvocation)
{
    Cluster fleet(crashFleet(RetryPolicy::Drop));
    const FleetReport &report = fleet.run();
    ASSERT_GT(report.killedInvocations, 0u);
    EXPECT_EQ(report.retries, 0u);
    EXPECT_EQ(report.abandoned, report.killedInvocations);
    EXPECT_EQ(report.completions + report.abandoned +
                  report.rejectedMemory,
              report.arrivals);
}

TEST(FaultCluster, RetryOnceRetriesEachKillAtMostOnce)
{
    Cluster fleet(crashFleet(RetryPolicy::RetryOnce));
    const FleetReport &report = fleet.run();
    ASSERT_GT(report.killedInvocations, 0u);
    EXPECT_GT(report.retries, 0u);
    // Each kill is retried (first kill) or abandoned (second kill).
    EXPECT_EQ(report.retries + report.abandoned,
              report.killedInvocations);
}

TEST(FaultCluster, BillingModesSplitOneTotal)
{
    // Billing mode changes who pays, never what runs: the tenant-pays
    // twin of a provider-absorbs campaign executes the identical
    // schedule, so its billed seconds equal the provider's billed +
    // absorbed, and the provider twin's ledger never contains the
    // destroyed work.
    Cluster provider(crashFleet(RetryPolicy::RetryBackoff,
                                FaultBilling::ProviderAbsorbs));
    const FleetReport &absorbs = provider.run();
    Cluster tenant(crashFleet(RetryPolicy::RetryBackoff,
                              FaultBilling::TenantPays));
    const FleetReport &pays = tenant.run();

    ASSERT_GT(absorbs.killedInvocations, 0u);
    EXPECT_EQ(pays.killedInvocations, absorbs.killedInvocations);
    EXPECT_EQ(pays.absorbedCpuSeconds, 0.0);
    EXPECT_EQ(pays.absorbedUsd, 0.0);
    EXPECT_GT(absorbs.absorbedCpuSeconds, 0.0);
    EXPECT_LE(relErr(pays.billedCpuSeconds,
                     absorbs.billedCpuSeconds +
                         absorbs.absorbedCpuSeconds),
              1e-6);
    EXPECT_LE(relErr(pays.commercialUsd,
                     absorbs.commercialUsd + absorbs.absorbedUsd),
              1e-6);
}

TEST(FaultCluster, CrashClearsWarmContainers)
{
    // Same trace with and without one mid-trace crash on the only
    // machine: the crash wipes the warm pool (and the keep-alive
    // expiry tracker with it), so the run sees extra cold starts it
    // would not otherwise pay.
    ClusterConfig calm = smallFleet(1);
    Cluster baseline(calm);
    const FleetReport &warm = baseline.run();
    EXPECT_EQ(warm.crashes, 0u);
    EXPECT_GT(warm.warmStarts, 0u);

    ClusterConfig crashed = smallFleet(1);
    crashed.faults.crashAt = {{0.05, 0}};
    crashed.faults.restartDelay = 0.002;
    crashed.faults.retry = RetryPolicy::RetryOnce;
    Cluster fleet(crashed);
    const FleetReport &report = fleet.run();
    EXPECT_EQ(report.crashes, 1u);
    EXPECT_GT(report.coldStarts, warm.coldStarts);
    EXPECT_EQ(report.completions + report.abandoned +
                  report.rejectedMemory,
              report.arrivals);
}

TEST(FaultCluster, BlindMachineReceivesNoDispatches)
{
    // Machine 1 is blind from the first barrier through the whole
    // run: up, but invisible to the dispatcher. Every arrival lands
    // on machine 0 and the fleet still drains.
    ClusterConfig cfg = smallFleet(2, 200);
    cfg.faults.blindAt = {{0.0, 1}};
    cfg.faults.blindDuration = 1e6;
    Cluster fleet(cfg);
    const FleetReport &report = fleet.run();
    EXPECT_EQ(report.machines[1].dispatched, 0u);
    EXPECT_EQ(report.machines[0].dispatched, report.dispatched);
    EXPECT_EQ(report.completions, report.arrivals);
    EXPECT_EQ(report.crashes, 0u);
}

TEST(FaultCluster, SlowWindowStretchesServiceTime)
{
    // A whole-run 0.5x slowdown window on the only machine doubles
    // service times: latency and makespan stretch, nothing is lost.
    ClusterConfig calm = smallFleet(1, 200);
    Cluster baseline(calm);
    const FleetReport &fast = baseline.run();

    ClusterConfig cfg = smallFleet(1, 200);
    cfg.faults.slowAt = {{0.0, 0}};
    cfg.faults.slowDuration = 1e6;
    cfg.faults.slowFactor = 0.5;
    Cluster fleet(cfg);
    const FleetReport &slow = fleet.run();

    EXPECT_EQ(slow.completions, slow.arrivals);
    EXPECT_GT(slow.meanLatency, fast.meanLatency * 1.2);
    EXPECT_GT(slow.makespan, fast.makespan);
}

TEST(FaultCluster, RestartRevivesAndFleetDrains)
{
    // Crash the only machine early; arrivals during the outage wait,
    // the restart revives dispatch, and the whole trace still reaches
    // a terminal state.
    ClusterConfig cfg = smallFleet(1, 200);
    cfg.faults.crashAt = {{0.01, 0}};
    cfg.faults.restartDelay = 0.02;
    cfg.faults.retry = RetryPolicy::RetryBackoff;
    cfg.faults.retryMax = 4;
    cfg.faults.retryBackoff = 0.002;
    Cluster fleet(cfg);
    const FleetReport &report = fleet.run();
    EXPECT_EQ(report.crashes, 1u);
    EXPECT_GT(report.completions, 0u);
    EXPECT_EQ(report.completions + report.abandoned +
                  report.rejectedMemory,
              report.arrivals);
    EXPECT_GE(report.makespan, 0.01 + 0.02);
}

/** Bit-identical reports: fleet totals and every machine slice. */
void
expectSameReports(const FleetReport &a, const FleetReport &b)
{
    EXPECT_TRUE(identicalTotals(a, b));
    ASSERT_EQ(a.machines.size(), b.machines.size());
    for (std::size_t i = 0; i < a.machines.size(); ++i) {
        const MachineReport &x = a.machines[i];
        const MachineReport &y = b.machines[i];
        EXPECT_EQ(x.dispatched, y.dispatched) << "machine " << i;
        EXPECT_EQ(x.completions, y.completions) << "machine " << i;
        EXPECT_EQ(x.billedCpuSeconds, y.billedCpuSeconds)
            << "machine " << i;
        EXPECT_EQ(x.quanta, y.quanta) << "machine " << i;
        EXPECT_EQ(x.killedInvocations, y.killedInvocations)
            << "machine " << i;
    }
}

/** Two machines, least-loaded (ties to machine 0), replaying
 *  @p rows of alpha-go arrivals under @p faults. No keep-alive, so
 *  every start is cold (~4.5 ms). */
ClusterConfig
replayFleet(const std::string &name, const std::string &rows,
            const FaultSpec &faults)
{
    ClusterConfig cfg = smallFleet(2);
    cfg.traffic = tests::traceTraffic(name, rows);
    cfg.functionPool = {&tinySuite()[0]};
    cfg.keepAlive = 0;
    cfg.faults = faults;
    return cfg;
}

TEST(FaultCluster, LastBusyMachineCrashEmptiesTheLoop)
{
    // Every arrival lands on idle machine 0, so the crash at 32 ms
    // kills the only busy machine, mid-way through its fourth. With
    // nothing left in flight or queued the loop must exit on the
    // emptied active set at the crash barrier, not at the restart.
    FaultSpec faults;
    faults.crashAt = {{0.032, 0}};
    faults.restartDelay = 0.05;
    faults.retry = RetryPolicy::Drop;
    ClusterConfig cfg =
        replayFleet("last_busy_crash", "0\n0.01\n0.02\n0.03\n", faults);
    Cluster serial(cfg);
    const FleetReport &report = serial.run();
    EXPECT_EQ(report.crashes, 1u);
    EXPECT_EQ(report.killedInvocations, 1u);
    EXPECT_EQ(report.abandoned, 1u);
    EXPECT_EQ(report.completions, 3u);
    EXPECT_EQ(report.machines[1].dispatched, 0u);
    EXPECT_GE(report.makespan, 0.032);
    EXPECT_LT(report.makespan, 0.0325);
    for (unsigned i = 0; i < 2; ++i)
        EXPECT_EQ(serial.engine(i).taskCount(), 0u);

    cfg.threads = 4;
    Cluster threaded(cfg);
    expectSameReports(report, threaded.run());
}

TEST(FaultCluster, AllBlindFleetHoldsArrivalsUntilBlindEnd)
{
    // Both machines are blind from 0 to 20 ms: nothing is
    // dispatchable, so the arrivals at 5 and 10 ms wait and go out
    // together at the BlindEnd barrier.
    FaultSpec faults;
    faults.blindAt = {{0.0, 0}, {0.0, 1}};
    faults.blindDuration = 0.02;
    const std::string rows = "0.005\n0.01\n";
    ClusterConfig cfg = replayFleet("all_blind", rows, faults);
    Cluster serial(cfg);
    const FleetReport &report = serial.run();
    EXPECT_EQ(report.dispatched, 2u);
    EXPECT_EQ(report.completions, 2u);
    EXPECT_EQ(report.sched.eventsArrival, 2u);
    // Held together: least-loaded splits the pair across the fleet,
    // and both finish a cold start after the 20 ms barrier.
    EXPECT_EQ(report.machines[0].dispatched, 1u);
    EXPECT_EQ(report.machines[1].dispatched, 1u);
    EXPECT_GT(report.makespan, 0.024);

    Cluster unblinded(replayFleet("all_blind", rows, FaultSpec{}));
    const FleetReport &plain = unblinded.run();
    // Unblinded, each arrival finds machine 0 idle on arrival.
    EXPECT_EQ(plain.machines[0].dispatched, 2u);
    EXPECT_LT(plain.makespan, 0.016);

    cfg.threads = 4;
    Cluster threaded(cfg);
    expectSameReports(report, threaded.run());
}

// ---------------------------------------------------------------------
// The scenario surface.
// ---------------------------------------------------------------------

TEST(FaultScenario, FaultKeysRoundTrip)
{
    const scenario::ScenarioSpec spec =
        scenario::ScenarioSpec::fromString(
            "fleet = cascade-5218:2\n"
            "fault.seed = 99\n"
            "fault.crash.mtbf = 6\n"
            "fault.crash.restart = 2\n"
            "fault.crash.at = 0.5@1,2.0\n"
            "fault.slow.mtbf = 4\n"
            "fault.slow.duration = 1.5\n"
            "fault.slow.factor = 0.6\n"
            "fault.blind.mtbf = 5\n"
            "fault.blind.duration = 1\n"
            "fault.retry = retry-backoff\n"
            "fault.retry.max = 4\n"
            "fault.retry.backoff = 0.25\n"
            "fault.billing = tenant-pays\n");
    const FaultSpec &fault = spec.cluster.faults;
    EXPECT_EQ(fault.seed, 99u);
    EXPECT_DOUBLE_EQ(fault.crashMtbf, 6.0);
    EXPECT_DOUBLE_EQ(fault.restartDelay, 2.0);
    ASSERT_EQ(fault.crashAt.size(), 2u);
    EXPECT_DOUBLE_EQ(fault.crashAt[0].at, 0.5);
    EXPECT_EQ(fault.crashAt[0].machine, 1u);
    EXPECT_DOUBLE_EQ(fault.slowMtbf, 4.0);
    EXPECT_DOUBLE_EQ(fault.slowDuration, 1.5);
    EXPECT_DOUBLE_EQ(fault.slowFactor, 0.6);
    EXPECT_DOUBLE_EQ(fault.blindMtbf, 5.0);
    EXPECT_DOUBLE_EQ(fault.blindDuration, 1.0);
    EXPECT_EQ(fault.retry, RetryPolicy::RetryBackoff);
    EXPECT_EQ(fault.retryMax, 4u);
    EXPECT_DOUBLE_EQ(fault.retryBackoff, 0.25);
    EXPECT_EQ(fault.billing, FaultBilling::TenantPays);
    EXPECT_TRUE(fault.enabled());
    fault.validate();
}

TEST(FaultScenario, EveryKnownKeyIsSettable)
{
    // set() and the file parser share one schema: every advertised
    // key must be applicable programmatically with a sane value.
    const auto valueFor = [](const std::string &key) -> std::string {
        if (key.size() > 3 &&
            key.compare(key.size() - 3, 3, ".at") == 0)
            return "0.5@0";
        if (key == "fault.retry")
            return "drop";
        if (key == "fault.billing")
            return "tenant-pays";
        if (key == "fault.retry.max")
            return "2";
        if (key == "fault.slow.factor" ||
            key == "burst.idle_fraction" ||
            key == "diurnal.amplitude" || key == "burst.on" ||
            key == "burst.off")
            return "0.5";
        if (key == "fleet")
            return "cascade-5218:1";
        if (key == "functions")
            return "all";
        if (key == "policy")
            return "round-robin";
        if (key == "traffic")
            return "poisson";
        if (key == "trace.path")
            return "trace.csv";
        if (key == "azure.path")
            return "azure.csv";
        if (key == "tables")
            return "t.profile";
        if (key == "tables_out")
            return "t-out";
        return "1";
    };
    scenario::ScenarioSpec spec;
    for (const std::string &key :
         scenario::ScenarioSpec::knownKeys())
        spec.set(key, valueFor(key));
}

TEST(FaultScenario, UnknownKeyPointsAtFileAndLine)
{
    const std::string path = "test_fault_typo.scenario";
    {
        std::ofstream out(path);
        out << "fleet = cascade-5218:1\n"
            << "seed  = 3\n"
            << "fault.crash.mtfb = 6\n";
    }
    EXPECT_EXIT(scenario::ScenarioSpec::fromFile(path),
                ::testing::ExitedWithCode(1),
                "test_fault_typo\\.scenario:3: unknown scenario key "
                "'fault\\.crash\\.mtfb'");
    std::remove(path.c_str());
}

TEST(FaultScenario, UnknownKeyFromStringStillFatals)
{
    EXPECT_EXIT(
        scenario::ScenarioSpec::fromString("fault.crsh.mtbf = 6\n"),
        ::testing::ExitedWithCode(1),
        "unknown scenario key 'fault\\.crsh\\.mtbf'");
}

TEST(FaultScenario, ConfigReaderWhereLocatesDefinitions)
{
    ConfigReader config = ConfigReader::fromString(
        "a = 1\n"
        "\n"
        "# comment\n"
        "b = 2\n",
        "demo.conf");
    EXPECT_EQ(config.lineOf("a"), 1);
    EXPECT_EQ(config.lineOf("b"), 4);
    EXPECT_EQ(config.where("a"), "demo.conf:1");
    EXPECT_EQ(config.where("b"), "demo.conf:4");
    // Programmatic overrides have no line; the source still names
    // the origin.
    config.set("c", "3");
    EXPECT_EQ(config.lineOf("c"), 0);
    EXPECT_EQ(config.where("c"), "demo.conf");
    // In-memory text with no source: nothing to point at.
    ConfigReader anonymous = ConfigReader::fromString("a = 1\n");
    EXPECT_EQ(anonymous.where("missing"), "");
    EXPECT_EQ(anonymous.where("a"), "<config>:1");
}

// ---------------------------------------------------------------------
// Threaded chaos smoke (runs under the CI ThreadSanitizer filter).
// ---------------------------------------------------------------------

TEST(ChaosSmoke, ThreadedChaosRunIsDeterministic)
{
    ClusterConfig base = crashFleet(RetryPolicy::RetryBackoff);
    base.faults.slowMtbf = 0.03;
    base.faults.slowDuration = 0.01;
    base.faults.slowFactor = 0.6;
    base.faults.blindMtbf = 0.03;
    base.faults.blindDuration = 0.008;
    base.threads = 4;

    Cluster first(base);
    const FleetReport &a = first.run();
    Cluster second(base);
    const FleetReport &b = second.run();
    EXPECT_TRUE(identicalTotals(a, b));
    EXPECT_GT(a.killedInvocations, 0u);
    EXPECT_LE(relErr(a.billedCpuSeconds + a.absorbedCpuSeconds,
                     a.sumMachineBilledSeconds() +
                         a.sumMachineAbsorbedSeconds()),
              1e-6);
}

} // namespace
} // namespace litmus::cluster
