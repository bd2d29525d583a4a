/**
 * @file
 * Arrival-layer timing without touching the program: a TrafficSource
 * decorator swapped into a copy of the runner's ClusterConfig. Every
 * pull the cluster makes goes through TimedStream::produce, which
 * times the wrapped stream's next() and keeps its buffer high-water
 * mark.
 *
 * horizonHint() is forwarded on both classes: FaultPlan::compile reads
 * it to bound stochastic fault processes, so a decorator that dropped
 * it would compile a different fault schedule.
 */

#ifndef PERFBENCH_TIMED_TRAFFIC_H
#define PERFBENCH_TIMED_TRAFFIC_H

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/traffic_source.h"
#include "spans.h"

namespace perfbench
{

/** What the decorated streams saw, summed over every stream opened. */
struct PullStats
{
    std::uint64_t pulls = 0;
    std::int64_t ns = 0;
    std::uint64_t bufferedMax = 0;
};

class TimedStream : public litmus::cluster::ArrivalStream
{
  public:
    TimedStream(std::unique_ptr<litmus::cluster::ArrivalStream> inner,
                PullStats &stats)
        : ArrivalStream(inner->model()), inner_(std::move(inner)),
          stats_(stats)
    {
    }

    litmus::Seconds horizonHint() const override
    {
        return inner_->horizonHint();
    }

  protected:
    bool produce(litmus::cluster::Invocation &out) override
    {
        const std::int64_t start = nowNs();
        const bool more = inner_->next(out);
        stats_.ns += nowNs() - start;
        stats_.pulls += more ? 1 : 0;
        stats_.bufferedMax =
            std::max(stats_.bufferedMax, inner_->bufferedMax());
        noteBuffered(inner_->bufferedMax());
        return more;
    }

  private:
    std::unique_ptr<litmus::cluster::ArrivalStream> inner_;
    PullStats &stats_;
};

class TimedSource : public litmus::cluster::TrafficSource
{
  public:
    TimedSource(const litmus::cluster::TrafficSource &inner,
                PullStats &stats)
        : inner_(inner), stats_(stats)
    {
    }

    std::string name() const override { return inner_.name(); }

    litmus::Seconds horizonHint() const override
    {
        return inner_.horizonHint();
    }

    std::unique_ptr<litmus::cluster::ArrivalStream>
    open(litmus::Rng &rng,
         const std::vector<const litmus::workload::FunctionSpec *> &pool)
        const override
    {
        return std::make_unique<TimedStream>(inner_.open(rng, pool),
                                             stats_);
    }

  private:
    const litmus::cluster::TrafficSource &inner_;
    PullStats &stats_;
};

} // namespace perfbench

#endif // PERFBENCH_TIMED_TRAFFIC_H
