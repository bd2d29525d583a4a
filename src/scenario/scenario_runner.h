/**
 * @file
 * ScenarioRunner: from a declarative ScenarioSpec to a FleetReport.
 *
 * The runner owns every resource a scenario needs beyond the cluster
 * itself — the traffic model, loaded or in-process-calibrated pricing
 * profiles and their discount models (the cluster borrows them) — so
 * apps, benches, and tests can go from "spec" to "report" in two
 * lines:
 *
 *     scenario::ScenarioRunner runner(
 *         scenario::ScenarioSpec::fromFile(path));
 *     const cluster::FleetReport &report = runner.run();
 *
 * The cluster configuration is the spec's own `cluster` member; the
 * runner binds only what a ClusterConfig borrows or derives — the
 * traffic model, the discount models and the probe switch.
 */

#ifndef LITMUS_SCENARIO_SCENARIO_RUNNER_H
#define LITMUS_SCENARIO_SCENARIO_RUNNER_H

#include <iosfwd>
#include <memory>

#include "core/profile_store.h"
#include "scenario/scenario.h"

namespace litmus::scenario
{

/** Single-shot scenario execution (like the Cluster it wraps). */
class ScenarioRunner
{
  public:
    /**
     * Validates the spec, builds the traffic model, and resolves
     * pricing (loads `tables`, runs the memoized `calibrate` sweeps,
     * writes `tables_out`). fatal() on any inconsistency.
     */
    explicit ScenarioRunner(ScenarioSpec spec);
    ~ScenarioRunner();

    ScenarioRunner(const ScenarioRunner &) = delete;
    ScenarioRunner &operator=(const ScenarioRunner &) = delete;

    /** Build the cluster, serve the scenario to completion, and
     *  return the fleet report. May be called once. */
    const cluster::FleetReport &run();

    /** The fleet configuration the cluster runs: the spec's
     *  `cluster` with traffic, discount models and probes bound. */
    const cluster::ClusterConfig &clusterConfig() const
    {
        return cfg_;
    }

    /** The instantiated traffic model. */
    const cluster::TrafficSource &traffic() const { return *traffic_; }

    /** The cluster (inspection; valid after run()). */
    const cluster::Cluster &cluster() const;

    /** Active calibration profiles, one per priced machine type. */
    const std::vector<pricing::ProfileStore::ProfilePtr> &
    profiles() const
    {
        return profiles_;
    }

  private:
    /** Load, calibrate and persist @p spec's pricing profiles and
     *  bind their discount models into cfg_. */
    void bindPricing(const ScenarioSpec &spec);

    /** The spec's `cluster` plus the bound traffic, discount models
     *  and probe switch. */
    cluster::ClusterConfig cfg_;
    std::unique_ptr<cluster::TrafficSource> traffic_;
    std::vector<pricing::ProfileStore::ProfilePtr> profiles_;
    std::vector<std::unique_ptr<pricing::DiscountModel>> models_;
    std::unique_ptr<cluster::Cluster> cluster_;
};

/** Print the standard fleet report: per-machine rows, per-type
 *  breakdown, fleet totals, and the throughput/discount footer
 *  (shared by litmus_fleet and the examples). */
void printFleetReport(std::ostream &os,
                      const cluster::FleetReport &report);

} // namespace litmus::scenario

#endif // LITMUS_SCENARIO_SCENARIO_RUNNER_H
