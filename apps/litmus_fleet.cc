/**
 * @file
 * litmus-fleet: multi-machine serving front end — a thin CLI shim
 * over the scenario layer.
 *
 * Every run is a ScenarioSpec executed by a ScenarioRunner. Every
 * scenario key is also a flag spelled exactly as in a file
 * (`--rate=4000`, `--fault.retry=once`, `--calibrate=yes`); flags
 * given on the command line overlay --scenario=<file> (key=value,
 * see examples/scenarios/), so
 * `litmus_fleet --scenario=peak.scenario --seed=9` reruns a scenario
 * under a different seed. A flag invocation and the equivalent
 * scenario file produce bit-identical fleet reports by construction:
 * both go through ScenarioSpec::set.
 */

#include <iostream>
#include <string>

#include "common/arg_parser.h"
#include "common/logging.h"
#include "scenario/scenario_runner.h"
#include "sim/machine_catalog.h"

using namespace litmus;

int
main(int argc, char **argv)
{
    ArgParser args("litmus-fleet",
                   "Fleet-scale Litmus serving simulator");
    args.addOption("scenario",
                   "scenario file (key=value) providing the base "
                   "spec; explicit flags overlay it")
        .addOption("machine",
                   "key=value preset file registered into the catalog "
                   "(must set name=); name it in --fleet=<name>:N");
    for (const scenario::ScenarioKey &key :
         scenario::ScenarioSpec::schema())
        args.addOption(std::string(key.name), std::string(key.help));
    args.parseOrExit(argc, argv);

    if (args.has("machine"))
        (void)sim::MachineCatalog::registerFromFile(args.get("machine"));

    scenario::ScenarioSpec spec;
    if (args.has("scenario"))
        spec = scenario::ScenarioSpec::fromFile(args.get("scenario"));
    // An unset flag never overrides the file; with no file the spec
    // defaults apply, exactly as for an empty scenario file.
    for (const std::string &key : scenario::ScenarioSpec::knownKeys()) {
        if (args.has(key))
            spec.set(key, args.get(key));
    }

    scenario::ScenarioRunner runner(std::move(spec));

    std::string fleetDesc;
    const cluster::ClusterConfig &cfg = runner.clusterConfig();
    for (const cluster::MachineGroup &group : cfg.fleet) {
        fleetDesc += (fleetDesc.empty() ? "" : ", ") + group.machine +
                     " x" + std::to_string(group.count);
    }
    inform("serving ", runner.traffic().name(), " traffic across ",
           cfg.totalMachines(), " machines (", fleetDesc, "; ",
           cluster::policyName(cfg.policy), ")");

    const cluster::FleetReport &report = runner.run();
    scenario::printFleetReport(std::cout, report);
    return 0;
}
