#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <memory>

#include "cluster/cluster.h"
#include "core/calibration.h"
#include "core/discount_model.h"
#include "core/experiment.h"
#include "core/profile_store.h"
#include "scenario/azure_trace.h"
#include "scenario/scenario_runner.h"
#include "sim/machine_catalog.h"
#include "timed_traffic.h"
#include "workload/suite.h"

namespace perfbench
{

using namespace litmus;

namespace
{

constexpr const char *kMachine = "cascade-5218";

/** SplitMix64 step: independent sub-seeds from one workload seed. */
std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + stream * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** FNV-1a over the exact bytes of every value fed in. */
class Digest
{
  public:
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }

    void f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    std::uint64_t value() const { return h_; }

  private:
    void bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= 0x100000001b3ull;
        }
    }

    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** The totals identicalTotals() compares plus every ledger record. */
std::uint64_t
fleetDigest(const cluster::Cluster &fleet)
{
    const cluster::FleetReport &r = fleet.report();
    Digest d;
    for (std::uint64_t v :
         {r.arrivals, r.dispatched, r.rejectedMemory, r.completions,
          r.coldStarts, r.warmStarts, r.crashes, r.killedInvocations,
          r.retries, r.abandoned})
        d.u64(v);
    for (double v : {r.billedCpuSeconds, r.commercialUsd, r.litmusUsd,
                     r.meanLatency, r.makespan, r.lostCpuSeconds,
                     r.absorbedCpuSeconds, r.absorbedUsd})
        d.f64(v);
    for (unsigned m = 0; m < fleet.config().totalMachines(); ++m) {
        for (const pricing::BillRecord &b : fleet.ledger(m).records()) {
            d.str(b.function);
            d.str(b.tenant);
            for (double v :
                 {b.cpuSeconds, b.memoryGiB, b.quote.commercial,
                  b.quote.litmus, b.quote.litmusPriv,
                  b.quote.litmusShared, b.quote.ideal,
                  b.quote.idealPriv, b.quote.idealShared,
                  b.commercialUsd, b.litmusUsd})
                d.f64(v);
        }
    }
    return d.value();
}

/** Every FunctionRow of a pricing experiment. */
std::uint64_t
experimentDigest(const pricing::ExperimentResult &result)
{
    Digest d;
    for (const pricing::FunctionRow &row : result.rows) {
        d.str(row.name);
        d.u64(row.invocations);
        for (double v :
             {row.litmusPrice, row.idealPrice, row.privError,
              row.sharedError, row.totalError, row.tPrivSlowdown,
              row.tSharedSlowdown, row.predictedPriv,
              row.predictedShared, row.totalSlowdown,
              row.sharedShareSolo})
            d.f64(v);
    }
    return d.value();
}

/** Equality up to floating-point association (1e-6, relative above
 *  one second). */
bool
closeEnough(double a, double b)
{
    return std::abs(a - b) <= 1e-6 * std::max(1.0, std::abs(a));
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return ts.tv_sec + ts.tv_nsec * 1e-9;
}

scenario::ScenarioSpec
fleetSpec(const Inputs &in)
{
    const std::string name = in.workload().name;
    scenario::ScenarioSpec spec;
    spec.set("seed", std::to_string(in.seed()))
        .set("threads", std::to_string(in.workload().threads));
    if (name == "dense_cell") {
        spec.set("fleet", std::string(kMachine) + ":64")
            .set("policy", "least-loaded")
            .set("traffic", "poisson")
            .set("rate", "20000")
            .set("invocations", "40000")
            .set("calibrate", "true");
    } else if (name == "sparse_fleet") {
        spec.set("fleet", std::string(kMachine) + ":4096")
            .set("policy", "round-robin")
            .set("traffic", "poisson")
            .set("rate", "2000")
            .set("invocations", "4000");
    } else {
        // azure_chaos: two simulated hours of dataset-shaped traffic
        // replayed 60x faster, under a crash/slowdown/blindness
        // campaign whose schedule follows from the scenario seed.
        spec.set("fleet", std::string(kMachine) + ":16")
            .set("policy", "warmth-aware")
            .set("traffic", "azure")
            .set("azure.path", in.csvPath())
            .set("azure.rate_scale", "60")
            .set("fault.crash.mtbf", "20")
            .set("fault.crash.restart", "2")
            .set("fault.slow.mtbf", "10")
            .set("fault.slow.duration", "2")
            .set("fault.slow.factor", "0.6")
            .set("fault.blind.mtbf", "15")
            .set("fault.blind.duration", "1")
            .set("fault.retry", "retry-backoff")
            .set("fault.retry.max", "8")
            .set("fault.retry.backoff", "0.25")
            .set("fault.billing", "provider-absorbs");
    }
    return spec;
}

RepResult
runFleetRep(const Inputs &in, Tracer *tracer, bool checkRunner)
{
    RepResult r;
    const auto breach = [&r](std::string what) {
        r.breaches.push_back(std::move(what));
    };

    // Every repetition calibrates from scratch, as every user run does.
    pricing::ProfileStore::instance().clear();

    PullStats pulls;
    double calibrateS = 0, buildS = 0, constructS = 0, runS = 0;
    std::unique_ptr<scenario::ScenarioRunner> runner;
    std::unique_ptr<TimedSource> timed;
    std::unique_ptr<cluster::Cluster> fleet;
    {
        Scope setup(tracer, "setup");
        scenario::ScenarioSpec spec = fleetSpec(in);
        pricing::ProfileStore::ProfilePtr warmed;
        if (spec.calibrate) {
            Scope s(tracer, "core.calibrate");
            warmed = pricing::ProfileStore::instance().dedicated(kMachine);
            calibrateS = s.stop();
        }
        {
            Scope s(tracer, "scenario.build");
            runner =
                std::make_unique<scenario::ScenarioRunner>(std::move(spec));
            buildS = s.stop();
        }
        if (warmed && (runner->profiles().size() != 1 ||
                       runner->profiles().front() != warmed))
            breach("runner did not reuse the warmed calibration profile");
        cluster::ClusterConfig cfg = runner->clusterConfig();
        if (tracer) {
            timed = std::make_unique<TimedSource>(runner->traffic(), pulls);
            cfg.traffic = timed.get();
        }
        {
            Scope s(tracer, "cluster.construct");
            fleet = std::make_unique<cluster::Cluster>(std::move(cfg));
            constructS = s.stop();
        }
        r.setupS = setup.stop();
    }

    const double cpuStart = processCpuSeconds();
    {
        Scope serve(tracer, "serve");
        {
            Scope s(tracer, "cluster.run");
            fleet->run();
            runS = s.stop();
        }
        r.serveS = serve.stop();
    }
    const double cpuS = processCpuSeconds() - cpuStart;

    const cluster::FleetReport &rep = fleet->report();
    r.simSeconds = rep.makespan;
    r.attempted = rep.arrivals;
    r.failed = rep.abandoned + rep.rejectedMemory;
    r.digest = fleetDigest(*fleet);
    r.outcomes["failed_frac"] =
        rep.arrivals ? double(r.failed) / rep.arrivals : 0.0;

    if (rep.completions + rep.abandoned + rep.rejectedMemory !=
        rep.arrivals)
        breach("completions + abandoned + rejected != arrivals");
    if (rep.arrivalFlow.pulled != rep.arrivals)
        breach("arrival stream pulls != arrivals");
    if (!closeEnough(rep.billedCpuSeconds, rep.sumMachineBilledSeconds()))
        breach("fleet billed seconds != per-machine sum");
    if (!closeEnough(rep.lostCpuSeconds, rep.sumMachineLostSeconds()))
        breach("fleet lost seconds != per-machine sum");
    if (!closeEnough(rep.absorbedCpuSeconds,
                     rep.sumMachineAbsorbedSeconds()))
        breach("fleet absorbed seconds != per-machine sum");
    if (rep.arrivals == 0)
        breach("no arrivals served");
    if (tracer && pulls.pulls != rep.arrivals)
        breach("decorated stream pulls != arrivals");

    if (checkRunner) {
        const cluster::FleetReport &direct = runner->run();
        if (!cluster::identicalTotals(direct, rep) ||
            fleetDigest(runner->cluster()) != r.digest)
            breach("decorated run differs from ScenarioRunner::run()");
    }

    if (!tracer)
        return r;

    double quanta = 0, ff = 0, skipped = 0, solves = 0, hits = 0;
    std::uint64_t records = 0, discounted = 0;
    for (unsigned m = 0; m < fleet->config().totalMachines(); ++m) {
        const sim::EngineStats &s = fleet->engine(m).stats();
        quanta += s.quanta.value();
        ff += s.ffQuanta.value();
        skipped += s.skippedQuanta.value();
        solves += s.solves.value();
        hits += s.solveMemoHits.value();
        for (const pricing::BillRecord &b : fleet->ledger(m).records()) {
            ++records;
            discounted += b.litmusUsd < b.commercialUsd ? 1 : 0;
        }
    }

    const double pullS = pulls.ns * 1e-9;
    const double clusterServeS = runS - pullS;
    const cluster::SchedulerCounters &sched = rep.sched;
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
    r.layers = {
        {"phase.setup_s", r.setupS},
        {"phase.setup.unattributed_s",
         r.setupS - calibrateS - buildS - constructS},
        {"phase.serve_s", r.serveS},
        {"phase.serve.unattributed_s", r.serveS - runS},
        {"scenario.build_s", buildS},
        {"scenario.pull_s", pullS},
        {"scenario.pulls", double(pulls.pulls)},
        {"scenario.ns_per_pull", ratio(double(pulls.ns), pulls.pulls)},
        {"scenario.buffered_max", double(pulls.bufferedMax)},
        {"core.calibrate_s", calibrateS},
        {"core.records", double(records)},
        {"core.discounted_share", ratio(discounted, records)},
        {"cluster.construct_s", constructS},
        {"cluster.serve_s", clusterServeS},
        {"cluster.barriers", double(sched.barriers)},
        {"cluster.barriers_elided", double(sched.barriersElided)},
        {"cluster.events_arrival", double(sched.eventsArrival)},
        {"cluster.events_retry", double(sched.eventsRetry)},
        {"cluster.events_fault", double(sched.eventsFault)},
        {"cluster.events_keepalive", double(sched.eventsKeepAlive)},
        {"cluster.events_progress", double(sched.eventsProgress)},
        {"cluster.us_per_barrier",
         1e6 * ratio(clusterServeS, sched.barriers)},
        {"cluster.parallelism", ratio(cpuS, r.serveS)},
        {"cluster.cold_start_rate", rep.coldStartRate()},
        {"cluster.faults.crashes", double(rep.crashes)},
        {"cluster.faults.killed", double(rep.killedInvocations)},
        {"cluster.faults.retries", double(rep.retries)},
        {"cluster.faults.abandoned", double(rep.abandoned)},
        {"cluster.faults.lost_cpu_s", rep.lostCpuSeconds},
        {"sim.quanta", quanta},
        {"sim.ff_share", ratio(ff, quanta)},
        {"sim.skipped_quanta", skipped},
        {"sim.solves", solves},
        {"sim.memo_hit_ratio", ratio(hits, solves)},
        {"sim.ns_per_quantum", 1e9 * ratio(clusterServeS, quanta)},
    };
    return r;
}

/** Section 7.2 Method 2: 50 functions churn over CPUs 0-4 while the
 *  generators stress the cores behind that pool. */
pricing::CalibrationConfig
sharingCalibration(std::uint64_t seed)
{
    pricing::CalibrationConfig cfg;
    cfg.machine = sim::MachineCatalog::get(kMachine);
    cfg.sharingFunctions = 50;
    const unsigned poolCpus = 5;
    for (unsigned i = 0; i < poolCpus; ++i)
        cfg.sharingCpus.push_back(i);
    cfg.generatorFirstCpu = poolCpus;
    const unsigned headroom = cfg.machine.hwThreads() - poolCpus;
    cfg.levels.clear();
    for (unsigned level = 2; level <= headroom && level <= 26; level += 4)
        cfg.levels.push_back(level);
    cfg.seed = seed;
    return cfg;
}

/** Fig. 17: 320 memory-intensive co-runners pooled on 16 CPUs. */
pricing::ExperimentConfig
heavyExperiment(std::uint64_t seed)
{
    pricing::ExperimentConfig cfg;
    cfg.machine = sim::MachineCatalog::get(kMachine);
    cfg.coRunners = 320;
    cfg.layoutPooled(16);
    cfg.coRunnerPool = workload::memoryIntensiveSet();
    cfg.repetitions = 1;
    cfg.warmup = 0.5;
    cfg.seed = seed;
    return cfg;
}

RepResult
runPricingRep(const Inputs &in, Tracer *tracer)
{
    RepResult r;
    double calibrateS = 0, experimentS = 0;
    std::unique_ptr<pricing::DiscountModel> model;
    {
        Scope setup(tracer, "setup");
        const pricing::CalibrationConfig ccfg =
            sharingCalibration(deriveSeed(in.seed(), 1));
        pricing::CalibrationProfile profile;
        {
            Scope s(tracer, "core.calibrate");
            profile = pricing::calibrate(ccfg);
            calibrateS = s.stop();
        }
        model = std::make_unique<pricing::DiscountModel>(profile);
        r.setupS = setup.stop();
    }
    const pricing::ExperimentConfig ecfg =
        heavyExperiment(deriveSeed(in.seed(), 2));
    pricing::ExperimentResult result;
    {
        Scope serve(tracer, "serve");
        {
            Scope s(tracer, "core.experiment");
            result = pricing::runPricingExperiment(ecfg, *model);
            experimentS = s.stop();
        }
        r.serveS = serve.stop();
    }

    for (const pricing::FunctionRow &row : result.rows) {
        r.attempted += row.invocations;
        if (row.invocations != ecfg.repetitions ||
            !std::isfinite(row.litmusPrice) ||
            !std::isfinite(row.idealPrice))
            r.breaches.push_back("experiment row " + row.name +
                                 " incomplete or non-finite");
    }
    if (result.rows.empty())
        r.breaches.push_back("experiment produced no rows");
    r.digest = experimentDigest(result);
    r.outcomes = {
        {"litmus_discount_pct", 100 * result.litmusDiscount()},
        {"ideal_discount_pct", 100 * result.idealDiscount()},
        {"price_gap_pp",
         100 * std::abs(result.idealDiscount() - result.litmusDiscount())},
        {"price_err_gmean", result.absGmeanError},
    };

    if (tracer) {
        r.layers = {
            {"phase.setup_s", r.setupS},
            {"phase.setup.unattributed_s", r.setupS - calibrateS},
            {"phase.serve_s", r.serveS},
            {"phase.serve.unattributed_s", r.serveS - experimentS},
            {"core.calibrate_s", calibrateS},
            {"core.experiment_s", experimentS},
        };
    }
    return r;
}

} // namespace

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"dense_cell", 2, true},
        {"sparse_fleet", 1, true},
        {"heavy_pricing", 1, false},
        {"azure_chaos", 1, true},
    };
    return all;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads()) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

Inputs::Inputs(const Workload &workload, std::uint64_t seed,
               const std::string &scratchDir)
    : workload_(workload), seed_(seed)
{
    if (std::string(workload.name) != "azure_chaos")
        return;
    scenario::AzureTraceGenSpec gen;
    gen.functions = 20000;
    gen.minutes = 120;
    gen.invocationsPerMinute = 600;
    gen.zipfExponent = 1.1;
    gen.seed = deriveSeed(seed, 3);
    csvPath_ = scratchDir + "/azure-" + std::to_string(seed) + ".csv";
    scenario::writeAzureShapedCsv(csvPath_, gen);
}

Inputs::~Inputs()
{
    if (!csvPath_.empty()) {
        std::error_code ignored;
        std::filesystem::remove(csvPath_, ignored);
    }
}

RepResult
runRep(const Inputs &inputs, Tracer *tracer, bool checkRunner)
{
    return inputs.workload().fleet
               ? runFleetRep(inputs, tracer, checkRunner)
               : runPricingRep(inputs, tracer);
}

} // namespace perfbench
