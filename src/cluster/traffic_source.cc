#include "cluster/traffic_source.h"

#include <utility>

#include "common/logging.h"

namespace litmus::cluster
{

ArrivalStream::ArrivalStream(std::string model) : model_(std::move(model))
{
}

bool
ArrivalStream::fill()
{
    if (done_)
        return false;
    if (!produce(slot_)) {
        done_ = true;
        return false;
    }
    if (slot_.spec == nullptr)
        fatal("traffic model '", model_,
              "' emitted an invocation without a function spec");
    if (slot_.arrival < lastArrival_)
        fatal("traffic model '", model_, "' emitted out-of-order arrivals (",
              slot_.arrival, " after ", lastArrival_, ")");
    lastArrival_ = slot_.arrival;
    slot_.seq = generated_;
    ++generated_;
    if (bufferedMax_ < 1)
        bufferedMax_ = 1;
    haveSlot_ = true;
    return true;
}

const Invocation *
ArrivalStream::peek()
{
    if (!haveSlot_ && !fill())
        return nullptr;
    return &slot_;
}

bool
ArrivalStream::next(Invocation &out)
{
    if (!haveSlot_ && !fill())
        return false;
    out = slot_;
    haveSlot_ = false;
    ++pulled_;
    return true;
}

void
ArrivalStream::noteBuffered(std::uint64_t resident)
{
    if (resident > bufferedMax_)
        bufferedMax_ = resident;
}

std::uint64_t
deriveArrivalSeed(std::uint64_t scenarioSeed)
{
    // SplitMix64 substream #2 of the scenario seed; deriveFaultSeed
    // (fault_plan.cc) is substream #1, and the cluster's own
    // dispatch-jitter Rng uses the raw seed. Three independent
    // families: lazy arrival pulls can never perturb jitter draws.
    std::uint64_t z = scenarioSeed + 2 * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace litmus::cluster
