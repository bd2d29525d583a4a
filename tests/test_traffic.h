/**
 * @file
 * Test helpers: Poisson and trace-replay traffic for hand-built
 * ClusterConfigs, which borrow their ClusterConfig::traffic source.
 */

#ifndef LITMUS_TESTS_TEST_TRAFFIC_H
#define LITMUS_TESTS_TEST_TRAFFIC_H

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include <gtest/gtest.h>

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

/**
 * The `trace` model replaying @p rows (`arrival_seconds[,function]`
 * CSV lines; an empty function samples the fleet's pool) from a temp
 * file named after @p name. Names must be unique per test case, since
 * ctest runs test cases in parallel processes; the model lives for
 * the whole test binary, like poissonTraffic()'s.
 */
inline const cluster::TrafficSource *
traceTraffic(const std::string &name, const std::string &rows)
{
    static std::map<std::string, std::unique_ptr<cluster::TrafficSource>>
        models;
    std::unique_ptr<cluster::TrafficSource> &model = models[name];
    if (!model) {
        scenario::TrafficSpec spec;
        spec.model = "trace";
        spec.tracePath = ::testing::TempDir() + name + ".csv";
        std::ofstream(spec.tracePath) << rows;
        model = scenario::makeTrafficModel(spec);
    }
    return model.get();
}

} // namespace litmus::tests

#endif // LITMUS_TESTS_TEST_TRAFFIC_H
