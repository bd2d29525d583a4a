/**
 * @file
 * Test helper: Poisson traffic for hand-built ClusterConfigs, which
 * borrow their ClusterConfig::traffic source.
 */

#ifndef LITMUS_TESTS_POISSON_TRAFFIC_H
#define LITMUS_TESTS_POISSON_TRAFFIC_H

#include <cstdint>
#include <map>
#include <memory>
#include <utility>

#include "scenario/traffic_model.h"

namespace litmus::tests
{

/**
 * The `poisson` model at @p rate for @p invocations arrivals. Each
 * (rate, invocations) model lives for the whole test binary, so a
 * fixture helper can return a ClusterConfig that borrows it.
 */
inline const cluster::TrafficSource *
poissonTraffic(double rate, std::uint64_t invocations)
{
    static std::map<std::pair<double, std::uint64_t>,
                    std::unique_ptr<cluster::TrafficSource>>
        models;
    std::unique_ptr<cluster::TrafficSource> &model =
        models[{rate, invocations}];
    if (!model) {
        scenario::TrafficSpec spec;
        spec.arrivalsPerSecond = rate;
        spec.invocations = invocations;
        model = scenario::makeTrafficModel(spec);
    }
    return model.get();
}

} // namespace litmus::tests

#endif // LITMUS_TESTS_POISSON_TRAFFIC_H
