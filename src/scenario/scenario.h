/**
 * @file
 * Declarative scenario specifications: one file (or one struct)
 * describing a whole fleet experiment.
 *
 * A scenario bundles everything a fleet run needs — a
 * cluster::ClusterConfig (machine groups, dispatch policy, function
 * pool, seed, serving model, faults), the traffic model and its
 * knobs, and the pricing sources — in the same flat key=value
 * format the machine presets already use (ConfigReader: one
 * `key = value` per line, '#' comments). Example:
 *
 *     # peak/off-peak load on a mixed fleet
 *     fleet       = cascade-5218:2,icelake-4314:2
 *     policy      = cost-aware
 *     traffic     = diurnal
 *     rate        = 4000
 *     invocations = 20000
 *     diurnal.period    = 30
 *     diurnal.amplitude = 0.9
 *     seed        = 7
 *
 * One table (ScenarioSpec::schema()) is the whole schema: the file
 * parser, ScenarioSpec::set("key", "value") and every litmus_fleet
 * `--<key>` flag read it, so a file and a command line describe the
 * same run. Unknown keys and malformed values are fatal() and, from
 * a file, name its `file:line`.
 */

#ifndef LITMUS_SCENARIO_SCENARIO_H
#define LITMUS_SCENARIO_SCENARIO_H

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster.h"
#include "scenario/traffic_model.h"

namespace litmus
{
class ConfigReader;
} // namespace litmus

namespace litmus::scenario
{

/** Parse a "type:count,type:count" fleet listing (count defaults to
 *  1); fatal() on malformed counts or an empty spec, prefixing the
 *  message with @p context. */
std::vector<cluster::MachineGroup>
parseFleetSpec(const std::string &context, const std::string &spec);

struct ScenarioSpec;

/** One row of the scenario schema. */
struct ScenarioKey
{
    /** The key as written in a file and as a `--<key>` flag. */
    std::string_view name;

    /** One-line help (litmus_fleet --help). */
    std::string_view help;

    /** Parse @p value into @p spec; @p context prefixes every
     *  diagnostic. */
    void (*apply)(ScenarioSpec &spec, const std::string &value,
                  const std::string &context);
};

/**
 * The declarative scenario. The member defaults are the run an
 * empty file (or a flagless litmus_fleet) describes.
 */
struct ScenarioSpec
{
    /**
     * The fleet run: machines, policy, function pool, seed, serving
     * model and fault campaign (the fleet, policy, functions, seed,
     * epoch_us, keepalive, threads, drain_cap, sharing_factor and
     * fault.* keys write straight into it). ScenarioRunner starts
     * from this config and binds only `traffic` (built from the
     * traffic spec below), `discountModels` (from the pricing
     * sources) and `probes`.
     */
    cluster::ClusterConfig cluster = [] {
        cluster::ClusterConfig cfg;
        cfg.policy = cluster::DispatchPolicy::WarmthAware;
        return cfg;
    }();

    /** The arrival process (model name + knobs). */
    TrafficSpec traffic;

    /** @name Pricing @{ */
    /** Calibrate every fleet machine type in-process (memoized via
     *  ProfileStore), enabling Litmus pricing. */
    bool calibrate = false;

    /** Calibration level cap for in-process sweeps (0 = the full
     *  dedicated sweep); smoke runs set 2-3. */
    unsigned calibrationLevels = 0;

    /** Serialized calibration profiles to load (enables Litmus
     *  pricing; one per machine type). */
    std::vector<std::string> tables;

    /** Persist the active profiles here (one file per type). */
    std::string tablesOut;

    /** Attach Litmus probes: unset = auto (on iff pricing). */
    std::optional<bool> probes;
    /** @} */

    /**
     * Whether an `invocations` key has been applied through set().
     * Switching to a replay model (`traffic = trace` or `azure`)
     * drops the generative models' 10000-arrival default unless the
     * user asked for a cap, so an untouched replay scenario serves
     * its whole file.
     */
    bool invocationsExplicit = false;

    /**
     * Apply one key=value pair — the programmatic builder, the file
     * parser and the CLI share this. fatal() on unknown keys or
     * malformed values, prefixed with @p where (a "file:line"
     * locator) when given. Returns *this for chaining:
     *
     *     ScenarioSpec().set("traffic", "burst").set("rate", "5000")
     */
    ScenarioSpec &set(const std::string &key, const std::string &value,
                      const std::string &where = "");

    /** Apply every key of a parsed config, in file order. Every
     *  error names the config's file:line, so a typo or a bad value
     *  in a scenario file points at the offending line. */
    static ScenarioSpec fromConfig(const ConfigReader &config);

    /** Load from a scenario file. A relative trace.path or
     *  azure.path is resolved against the scenario file's
     *  directory. */
    static ScenarioSpec fromFile(const std::string &path);

    /** Parse from text (tests, embedded scenarios). */
    static ScenarioSpec fromString(const std::string &text);

    /** fatal() on inconsistent settings: the traffic spec's and
     *  the cluster config's own checks. */
    void validate() const;

    /** The schema, sorted by key. */
    static std::span<const ScenarioKey> schema();

    /** The recognized keys, sorted (the schema's names). */
    static std::vector<std::string> knownKeys();
};

} // namespace litmus::scenario

#endif // LITMUS_SCENARIO_SCENARIO_H
