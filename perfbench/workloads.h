/**
 * @file
 * The benchmark's four workloads and one measured repetition of each.
 *
 * Every workload drives the program through public APIs only
 * (ScenarioRunner, Cluster, calibrate, runPricingExperiment,
 * writeAzureShapedCsv). Its inputs are a pure function of the workload
 * seed; every repetition starts cold (empty engines, an empty contention
 * memo, no warm containers, no cached calibration profile).
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench
{

struct Workload
{
    /** Name in BENCHMARK.json, which also says why it is there. */
    const char *name;
    /** Engine worker threads the workload runs with. */
    unsigned threads;
    /** Serves a fleet (Cluster); false for the pricing experiment. */
    bool fleet;
};

/** The workloads, in BENCHMARK.json order. */
const std::vector<Workload> &workloads();

/** Lookup by name; nullptr when unknown. */
const Workload *findWorkload(const std::string &name);

/** Everything one repetition measured and checked. */
struct RepResult
{
    /** Host seconds from the spec to a ready cluster or model. */
    double setupS = 0;
    /** Host seconds of the serve (fleet) or experiment phase. */
    double serveS = 0;
    /** Simulated seconds served (fleet makespan; 0 otherwise). */
    double simSeconds = 0;
    /** Arrivals (fleet) or priced subject invocations (pricing). */
    std::uint64_t attempted = 0;
    /** Abandoned plus memory-rejected invocations. */
    std::uint64_t failed = 0;
    /** 64-bit digest of the simulated outputs. */
    std::uint64_t digest = 0;
    /** Correctness-check breaches; empty when the repetition passed. */
    std::vector<std::string> breaches;
    /** Simulated outcomes that repeat exactly at a fixed seed
     *  (price accuracy, failure fraction). */
    std::map<std::string, double> outcomes;
    /** Per-layer metrics; filled only when traced. */
    std::map<std::string, double> layers;
};

/**
 * Inputs generated once per benchmark process from the seed: the
 * azure_chaos CSV lives in @p scratchDir until the object dies.
 */
class Inputs
{
  public:
    Inputs(const Workload &workload, std::uint64_t seed,
           const std::string &scratchDir);
    ~Inputs();

    Inputs(const Inputs &) = delete;
    Inputs &operator=(const Inputs &) = delete;

    const Workload &workload() const { return workload_; }
    std::uint64_t seed() const { return seed_; }
    /** The synthesized azure CSV ("" for other workloads). */
    const std::string &csvPath() const { return csvPath_; }

  private:
    const Workload &workload_;
    std::uint64_t seed_;
    std::string csvPath_;
};

/**
 * Run one cold repetition. A null @p tracer runs untraced; otherwise
 * spans are recorded around the calls into each layer and
 * RepResult::layers is filled. @p checkRunner additionally serves the
 * scenario through ScenarioRunner::run() and requires identical totals
 * and digest (fleet workloads).
 */
RepResult runRep(const Inputs &inputs, Tracer *tracer, bool checkRunner);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
