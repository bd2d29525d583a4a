/**
 * @file
 * Metamorphic suite for the cluster serving loop: every FleetReport
 * field, every per-machine slice, and every billing ledger record
 * must be bit-identical with engine fast-forward on and off (exact
 * quantum stepping is the reference) and at every worker-thread
 * count, across traffic models, mixed fleets, and chaos campaigns.
 * Also checks that the loop elides idle work and never holds due
 * work for a later event.
 *
 * The outputs themselves are pinned by the golden digests in
 * test_golden_digests.cc.
 */

#include <cmath>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "scenario/scenario_runner.h"
#include "sim/engine.h"
#include "sim/machine_catalog.h"

namespace litmus
{
namespace
{

std::string
writeTempFile(const std::string &name, const std::string &text)
{
    const std::string path = ::testing::TempDir() + name;
    std::ofstream file(path);
    file << text;
    return path;
}

/** One run's complete observable outcome. */
struct RunOutcome
{
    cluster::FleetReport report;
    /** Per-machine ledger records (copied out of the cluster). */
    std::vector<std::vector<pricing::BillRecord>> ledgers;
};

/** Run @p spec; @p exact turns engine fast-forward off for the run. */
RunOutcome
runWith(scenario::ScenarioSpec spec, unsigned threads = 1,
        bool exact = false)
{
    spec.cluster.threads = threads;
    scenario::ScenarioRunner runner(std::move(spec));
    // The fleet's engines are built inside run().
    const bool previous = sim::Engine::defaultFastForward();
    if (exact)
        sim::Engine::setDefaultFastForward(false);
    RunOutcome out;
    out.report = runner.run();
    sim::Engine::setDefaultFastForward(previous);
    for (std::size_t m = 0; m < out.report.machines.size(); ++m)
        out.ledgers.push_back(
            runner.cluster().ledger(static_cast<unsigned>(m)).records());
    return out;
}

/**
 * Bit-exact comparison of everything a run reports. SchedulerCounters
 * are deliberately excluded: exact stepping and fast-forward take the
 * same barriers, but the counters are not part of what is billed.
 */
void
expectIdentical(const RunOutcome &a, const RunOutcome &b)
{
    const cluster::FleetReport &x = a.report;
    const cluster::FleetReport &y = b.report;
    EXPECT_EQ(x.arrivals, y.arrivals);
    EXPECT_EQ(x.dispatched, y.dispatched);
    EXPECT_EQ(x.rejectedMemory, y.rejectedMemory);
    EXPECT_EQ(x.completions, y.completions);
    EXPECT_EQ(x.coldStarts, y.coldStarts);
    EXPECT_EQ(x.warmStarts, y.warmStarts);
    EXPECT_EQ(x.billedCpuSeconds, y.billedCpuSeconds);
    EXPECT_EQ(x.commercialUsd, y.commercialUsd);
    EXPECT_EQ(x.litmusUsd, y.litmusUsd);
    EXPECT_EQ(x.meanLatency, y.meanLatency);
    EXPECT_EQ(x.makespan, y.makespan);
    EXPECT_EQ(x.crashes, y.crashes);
    EXPECT_EQ(x.killedInvocations, y.killedInvocations);
    EXPECT_EQ(x.retries, y.retries);
    EXPECT_EQ(x.abandoned, y.abandoned);
    EXPECT_EQ(x.lostCpuSeconds, y.lostCpuSeconds);
    EXPECT_EQ(x.absorbedCpuSeconds, y.absorbedCpuSeconds);
    EXPECT_EQ(x.absorbedUsd, y.absorbedUsd);
    EXPECT_TRUE(cluster::identicalTotals(x, y));

    ASSERT_EQ(x.machines.size(), y.machines.size());
    for (std::size_t i = 0; i < x.machines.size(); ++i) {
        const cluster::MachineReport &m = x.machines[i];
        const cluster::MachineReport &n = y.machines[i];
        EXPECT_EQ(m.type, n.type) << "machine " << i;
        EXPECT_EQ(m.dispatched, n.dispatched) << "machine " << i;
        EXPECT_EQ(m.coldStarts, n.coldStarts) << "machine " << i;
        EXPECT_EQ(m.warmStarts, n.warmStarts) << "machine " << i;
        EXPECT_EQ(m.completions, n.completions) << "machine " << i;
        EXPECT_EQ(m.billedCpuSeconds, n.billedCpuSeconds)
            << "machine " << i;
        EXPECT_EQ(m.commercialUsd, n.commercialUsd) << "machine " << i;
        EXPECT_EQ(m.litmusUsd, n.litmusUsd) << "machine " << i;
        EXPECT_EQ(m.meanLatency, n.meanLatency) << "machine " << i;
        EXPECT_EQ(m.quanta, n.quanta) << "machine " << i;
        EXPECT_EQ(m.crashes, n.crashes) << "machine " << i;
        EXPECT_EQ(m.killedInvocations, n.killedInvocations)
            << "machine " << i;
        EXPECT_EQ(m.lostCpuSeconds, n.lostCpuSeconds) << "machine " << i;
        EXPECT_EQ(m.absorbedCpuSeconds, n.absorbedCpuSeconds)
            << "machine " << i;
        EXPECT_EQ(m.absorbedUsd, n.absorbedUsd) << "machine " << i;
    }

    ASSERT_EQ(x.types.size(), y.types.size());
    for (std::size_t i = 0; i < x.types.size(); ++i) {
        const cluster::TypeReport &t = x.types[i];
        const cluster::TypeReport &u = y.types[i];
        EXPECT_EQ(t.type, u.type);
        EXPECT_EQ(t.machines, u.machines) << t.type;
        EXPECT_EQ(t.dispatched, u.dispatched) << t.type;
        EXPECT_EQ(t.coldStarts, u.coldStarts) << t.type;
        EXPECT_EQ(t.warmStarts, u.warmStarts) << t.type;
        EXPECT_EQ(t.billedCpuSeconds, u.billedCpuSeconds) << t.type;
        EXPECT_EQ(t.commercialUsd, u.commercialUsd) << t.type;
        EXPECT_EQ(t.litmusUsd, u.litmusUsd) << t.type;
    }

    ASSERT_EQ(a.ledgers.size(), b.ledgers.size());
    for (std::size_t m = 0; m < a.ledgers.size(); ++m) {
        ASSERT_EQ(a.ledgers[m].size(), b.ledgers[m].size())
            << "ledger " << m;
        for (std::size_t r = 0; r < a.ledgers[m].size(); ++r) {
            const pricing::BillRecord &p = a.ledgers[m][r];
            const pricing::BillRecord &q = b.ledgers[m][r];
            EXPECT_EQ(p.function, q.function)
                << "ledger " << m << " record " << r;
            EXPECT_EQ(p.tenant, q.tenant)
                << "ledger " << m << " record " << r;
            EXPECT_EQ(p.cpuSeconds, q.cpuSeconds)
                << "ledger " << m << " record " << r;
            EXPECT_EQ(p.commercialUsd, q.commercialUsd)
                << "ledger " << m << " record " << r;
            EXPECT_EQ(p.litmusUsd, q.litmusUsd)
                << "ledger " << m << " record " << r;
        }
    }
}

/** fig22-style base: small warmth-aware fleet, test-set functions. */
scenario::ScenarioSpec
baseSpec(const std::string &extra = "")
{
    return scenario::ScenarioSpec::fromString(
        "fleet = cascade-5218:3\n"
        "policy = warmth-aware\n"
        "rate = 1500\n"
        "invocations = 400\n"
        "keepalive = 0.05\n"
        "functions = test\n"
        "seed = 11\n" +
        extra);
}

/** Fast-forward on must bill exactly what exact stepping bills. */
void
expectFastForwardInvariant(const scenario::ScenarioSpec &spec)
{
    expectIdentical(runWith(spec), runWith(spec, 1, true));
}

// ---- traffic models --------------------------------------------------

TEST(EventCoreDifferential, PoissonBitIdentical)
{
    const auto spec = baseSpec();
    expectFastForwardInvariant(spec);
}

TEST(EventCoreDifferential, DiurnalBitIdentical)
{
    // fig24-style load swing: deep idle troughs exercise the
    // idle-fleet floor jump.
    const auto spec = baseSpec("traffic = diurnal\n"
                               "diurnal.period = 0.4\n"
                               "diurnal.amplitude = 0.95\n");
    expectFastForwardInvariant(spec);
}

TEST(EventCoreDifferential, BurstBitIdentical)
{
    const auto spec = baseSpec("traffic = burst\n"
                               "burst.on = 0.05\n"
                               "burst.off = 0.2\n"
                               "burst.idle_fraction = 0.02\n");
    expectFastForwardInvariant(spec);
}

TEST(EventCoreDifferential, TraceReplayBitIdentical)
{
    // Includes a t=0 arrival (due before the first barrier) and long
    // gaps between bursts.
    const std::string tracePath = writeTempFile(
        "event_core_trace.csv", "0.0,float-py\n"
                                "0.001,aes-go\n"
                                "0.13,\n"
                                "0.50,float-py\n"
                                "0.5001,aes-go\n"
                                "1.75,\n");
    const auto spec = baseSpec("traffic = trace\n"
                               "trace.path = " + tracePath + "\n");
    expectFastForwardInvariant(spec);
}

// ---- fleets ----------------------------------------------------------

TEST(EventCoreDifferential, MixedFleetBitIdentical)
{
    // Heterogeneous types share one quantum grid; per-type billing
    // slices must match record for record.
    const auto spec = scenario::ScenarioSpec::fromString(
        "fleet = cascade-5218:2,icelake-4314:2\n"
        "policy = cost-aware\n"
        "rate = 2000\n"
        "invocations = 500\n"
        "keepalive = 0.1\n"
        "functions = test\n"
        "seed = 3\n");
    expectFastForwardInvariant(spec);
}

// ---- chaos -----------------------------------------------------------

TEST(EventCoreDifferential, ChaosProviderAbsorbsBitIdentical)
{
    // fig25-style campaign: stochastic crashes with backoff retries.
    // Restart transitions, kill/retry accounting, and absorbed-work
    // conservation all must survive exact stepping.
    const auto spec = baseSpec("fault.crash.mtbf = 0.4\n"
                               "fault.crash.restart = 0.05\n"
                               "fault.retry = backoff\n"
                               "fault.retry.max = 3\n"
                               "fault.retry.backoff = 0.02\n"
                               "fault.billing = provider-absorbs\n"
                               "fault.seed = 5\n");
    expectFastForwardInvariant(spec);
}

TEST(EventCoreDifferential, ChaosTenantPaysScriptedBitIdentical)
{
    // Scripted crashes and slowdowns at fixed times under tenant-pays
    // billing: fault events must fire at the same barrier either way
    // even when the fleet is wholly idle around them.
    const auto spec = baseSpec("fault.crash.at = 0.05@0;0.11@2\n"
                               "fault.crash.restart = 0.04\n"
                               "fault.slow.at = 0.08@1\n"
                               "fault.slow.duration = 0.06\n"
                               "fault.slow.factor = 0.5\n"
                               "fault.retry = retry-once\n"
                               "fault.billing = tenant-pays\n");
    expectFastForwardInvariant(spec);
}

// ---- threads ---------------------------------------------------------

TEST(EventCoreDifferential, ThreadCountInvariant)
{
    const auto spec = baseSpec();
    const RunOutcome serial = runWith(spec, 1);
    for (unsigned threads : {4u, 16u})
        expectIdentical(serial, runWith(spec, threads));
}

// ---- counters --------------------------------------------------------

TEST(EventCoreCounters, EventCoreSkipsIdleWork)
{
    // A sparse trace leaves the fleet idle for long stretches: the
    // loop must elide idle quanta and barriers, and the barriers it
    // takes plus the ones it elides must tile the whole grid.
    const std::string tracePath = writeTempFile(
        "event_core_sparse.csv", "0.01,float-py\n"
                                 "0.8,aes-go\n"
                                 "1.9,float-py\n");
    const auto spec = baseSpec("traffic = trace\n"
                               "trace.path = " + tracePath + "\n");
    const cluster::FleetReport report = runWith(spec).report;
    const cluster::SchedulerCounters &sched = report.sched;

    EXPECT_GT(sched.idleQuantaSkipped, 0u);
    EXPECT_GT(sched.barriersElided, 0u);
    const double epochQuanta =
        std::round(spec.cluster.epoch /
                   sim::MachineCatalog::get("cascade-5218").quantum);
    for (const cluster::MachineReport &m : report.machines)
        EXPECT_EQ(static_cast<double>(sched.barriers +
                                      sched.barriersElided) *
                      epochQuanta,
                  m.quanta)
            << "machine " << m.index;
    EXPECT_EQ(sched.eventsArrival, 3u);
    EXPECT_EQ(sched.eventsRetry, 0u);
    EXPECT_EQ(sched.eventsFault, 0u);
}

// ---- dispatch timing -------------------------------------------------

TEST(EventCoreDispatch, TimeZeroArrivalIsNotHeldForAFault)
{
    // An arrival due at t=0 is already due before the first barrier.
    // It must go out at that barrier, not wait for the next armed
    // event: here a crash at t=5 s that the fleet drains long before.
    const std::string tracePath = writeTempFile(
        "event_core_t0.csv", "0.0,float-py\n"
                             "0.002,aes-go\n");
    const auto spec = baseSpec("traffic = trace\n"
                               "trace.path = " + tracePath + "\n");
    auto faulted = spec;
    faulted.set("fault.crash.at", "5@2");
    faulted.set("fault.crash.restart", "0.1");

    const RunOutcome plain = runWith(spec);
    const RunOutcome run = runWith(faulted);
    EXPECT_EQ(run.report.dispatched, 2u);
    EXPECT_EQ(run.report.completions, 2u);
    EXPECT_LT(run.report.makespan, 1.0);
    EXPECT_EQ(run.report.sched.eventsFault, 0u);
    EXPECT_EQ(run.report.sched.barriers, plain.report.sched.barriers);
    expectIdentical(plain, run);
}

// ---- quantum agreement (config-time validation) ----------------------

TEST(EventCoreQuantum, MismatchedFleetQuantumIsFatal)
{
    // A type with a different engine quantum cannot share the fleet's
    // integer tick grid; the cluster must refuse at validate() time
    // with a message naming both types.
    const std::string path = writeTempFile(
        "event_core_coarse.conf", "base = icelake-4314\n"
                                  "name = coarse-4314\n"
                                  "quantum_us = 100\n");
    sim::MachineCatalog::registerFromFile(path);
    cluster::ClusterConfig cfg;
    cfg.fleet = {{"cascade-5218", 1}, {"coarse-4314", 1}};
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "same quantum");
}

TEST(EventCoreQuantum, QuantumMustBeWholeNanoseconds)
{
    auto cfg = sim::MachineCatalog::get("cascade-5218");
    cfg.quantum = 2.5e-9;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "whole number");
}

} // namespace
} // namespace litmus
