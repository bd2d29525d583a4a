/**
 * @file
 * The arrival-process interface the cluster consumes.
 *
 * The cluster serves whatever arrival stream its
 * ClusterConfig::traffic source opens and generates none itself; the
 * processes (poisson, diurnal, burst, trace replay, azure ingestion)
 * live in the scenario layer, and a custom one is any TrafficSource
 * handed to ClusterConfig::traffic. Keeping the interface here —
 * below the scenario layer — inverts that dependency: the scenario
 * models derive from cluster::TrafficSource, the cluster never
 * includes scenario headers, and the layer DAG (common -> sim ->
 * workload -> core -> cluster -> scenario) stays acyclic.
 *
 * Arrival generation is pull-based: open() returns an ArrivalStream
 * cursor the serving loop peeks/pulls one arrival at a time, so a
 * day-long million-function trace never has to exist as one resident
 * vector — memory is O(model lookahead), not O(total arrivals).
 *
 * Determinism: open() derives everything from the caller's Rng
 * (conventionally exactly one fork(), a SplitMix64-derived substream
 * — the same scheme FaultPlan uses), so equal-seeded generators
 * produce bit-identical arrival sequences at any thread count.
 */

#ifndef LITMUS_CLUSTER_TRAFFIC_SOURCE_H
#define LITMUS_CLUSTER_TRAFFIC_SOURCE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/dispatcher.h"
#include "common/rng.h"

namespace litmus::cluster
{

/**
 * A pull cursor over one arrival process, valid for one run. The base
 * class owns the stream contract so every model gets it for free:
 * peek()/next() validate that arrivals are nondecreasing and carry a
 * function (fatal() naming the model otherwise), number them
 * seq 0..n-1 in pull order, and track the flow counters the fleet
 * report exposes (generated / pulled / buffered-max). Implementations
 * override produce() only.
 */
class ArrivalStream
{
  public:
    /** @param model the producing model's name (error messages,
     *  report footers). */
    explicit ArrivalStream(std::string model);
    virtual ~ArrivalStream() = default;

    ArrivalStream(const ArrivalStream &) = delete;
    ArrivalStream &operator=(const ArrivalStream &) = delete;

    /** The next arrival without consuming it; nullptr when the
     *  stream is exhausted. May cost one produce() call. */
    const Invocation *peek();

    /** Consume the next arrival into @p out; false at end. */
    bool next(Invocation &out);

    /** Arrivals produced by the model so far (includes a peeked,
     *  not-yet-pulled head). */
    std::uint64_t generated() const { return generated_; }

    /** Arrivals the consumer pulled via next(). */
    std::uint64_t pulled() const { return pulled_; }

    /** Peak arrivals resident in this stream at once: 1 for purely
     *  generative models, one minute-bucket for the azure ingester. */
    std::uint64_t bufferedMax() const { return bufferedMax_; }

    /** The producing model's name. */
    const std::string &model() const { return model_; }

    /**
     * Best-effort end-of-arrivals estimate (0 = unknown): the
     * fault-plan horizon when the source's
     * TrafficSource::horizonHint() is unknown.
     */
    virtual Seconds horizonHint() const { return 0; }

  protected:
    /**
     * Produce the next arrival (timestamp + function spec; seq is
     * assigned by the base). Return false at end of stream. Called at
     * most once past the end.
     */
    virtual bool produce(Invocation &out) = 0;

    /** Fold a model-internal lookahead buffer's size into
     *  bufferedMax (the base accounts for its own 1-slot peek). */
    void noteBuffered(std::uint64_t resident);

  private:
    bool fill();

    std::string model_;
    Invocation slot_;
    bool haveSlot_ = false;
    bool done_ = false;
    Seconds lastArrival_ = 0;
    std::uint64_t generated_ = 0;
    std::uint64_t pulled_ = 0;
    std::uint64_t bufferedMax_ = 0;
};

/**
 * One arrival process. Implementations are immutable after
 * construction and stream natively through open().
 */
class TrafficSource
{
  public:
    virtual ~TrafficSource() = default;

    /** Human-readable model name (error messages, report footers). */
    virtual std::string name() const = 0;

    /**
     * Open a fresh arrival stream. The stream must capture its own
     * generator derived from @p rng — conventionally exactly one
     * rng.fork() — and never retain a reference to @p rng or @p pool
     * beyond the model's own lifetime (the pool vector is copied or
     * outlives the stream at every call site in-tree). Timestamps
     * nondecreasing from 0 and non-null specs are enforced by the
     * ArrivalStream base.
     */
    virtual std::unique_ptr<ArrivalStream>
    open(Rng &rng,
         const std::vector<const workload::FunctionSpec *> &pool)
        const = 0;

    /**
     * Best-effort end-of-arrivals estimate in simulated seconds
     * (0 = unknown). FaultPlan::compile bounds the stochastic fault
     * processes with it: generative models report their duration (or
     * invocations/rate), replay models their capped span. Only
     * consulted when a stochastic fault campaign (crash/slow/blind
     * MTBF) is configured.
     */
    virtual Seconds horizonHint() const { return 0; }
};

/**
 * The arrival-stream seed for a scenario seed: SplitMix64 substream
 * #2 of the seed (the fault plan derives #1), so traffic generation,
 * the fault schedule, and the cluster's dispatch-jitter Rng (the raw
 * seed) are three independent stream families — pulling arrivals
 * lazily can never perturb jitter draws.
 */
std::uint64_t deriveArrivalSeed(std::uint64_t scenarioSeed);

} // namespace litmus::cluster

#endif // LITMUS_CLUSTER_TRAFFIC_SOURCE_H
