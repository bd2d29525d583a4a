#include "scenario/scenario.h"

#include <algorithm>

#include "common/config_reader.h"
#include "common/logging.h"
#include "common/strings.h"
#include "workload/suite.h"

namespace litmus::scenario
{

namespace
{

/** An integer >= @p floor, as the field type @p T. */
template <typename T>
T
parseCount(const std::string &context, const std::string &value,
           long floor = 0)
{
    const auto parsed = parseLongStrict(value);
    if (!parsed)
        fatal(context, " expects an integer, got '", value, "'");
    if (*parsed < floor)
        fatal(context, " must be >= ", floor, ", got ", *parsed);
    return static_cast<T>(*parsed);
}

double
parseDouble(const std::string &context, const std::string &value)
{
    const auto parsed = parseDoubleStrict(value);
    if (!parsed)
        fatal(context, " expects a finite number, got '", value, "'");
    return *parsed;
}

bool
parseBool(const std::string &context, const std::string &value)
{
    if (value == "true" || value == "yes" || value == "on" ||
        value == "1")
        return true;
    if (value == "false" || value == "no" || value == "off" ||
        value == "0")
        return false;
    fatal(context, " expects a boolean "
          "(true/false/yes/no/on/off/1/0), got '", value, "'");
}

/** A `functions` value: a named set (all, test, reference, memory)
 *  or a comma list of suite function names. */
std::vector<const workload::FunctionSpec *>
parseFunctionPool(const std::string &context, const std::string &value)
{
    if (value.empty() || value == "all")
        return workload::allFunctions();
    if (value == "test")
        return workload::testSet();
    if (value == "reference")
        return workload::referenceSet();
    if (value == "memory")
        return workload::memoryIntensiveSet();
    std::vector<const workload::FunctionSpec *> pool;
    for (const std::string &name : splitNonEmpty(value, ',')) {
        const workload::FunctionSpec *spec = workload::findFunction(name);
        if (!spec)
            fatal(context, ": unknown function '", name, "'");
        pool.push_back(spec);
    }
    if (pool.empty())
        fatal(context, " names no functions — use a set "
              "(all/test/reference/memory) or a comma list of suite "
              "names");
    return pool;
}

using Text = const std::string &;

/**
 * The scenario schema: every key a file, ScenarioSpec::set() or a
 * litmus_fleet flag accepts, sorted by name. Each row parses its
 * value into the spec; @c context ("file:line: scenario key 'k'")
 * prefixes every diagnostic.
 */
constexpr ScenarioKey kSchema[] = {
    {"azure.max_rows",
     "ingest at most this many azure function rows (0 = all)",
     [](ScenarioSpec &s, Text v, Text c) {
         s.traffic.azureMaxRows = parseCount<std::uint64_t>(c, v);
     }},
    {"azure.path",
     "Azure-dataset-shaped CSV to ingest (traffic = azure)",
     [](ScenarioSpec &s, Text v, Text) { s.traffic.azurePath = v; }},
    {"azure.rate_scale", "azure replay speedup: 2 = twice as fast",
     [](ScenarioSpec &s, Text v, Text c) {
         s.traffic.azureRateScale = parseDouble(c, v);
     }},
    {"burst.idle_fraction",
     "burst: off-state rate as a fraction of the mean, in [0, 1]",
     [](ScenarioSpec &s, Text v, Text c) {
         s.traffic.burstIdleFraction = parseDouble(c, v);
     }},
    {"burst.off", "burst: mean off-state duration (s)",
     [](ScenarioSpec &s, Text v, Text c) {
         s.traffic.burstOff = parseDouble(c, v);
     }},
    {"burst.on", "burst: mean on-state duration (s)",
     [](ScenarioSpec &s, Text v, Text c) {
         s.traffic.burstOn = parseDouble(c, v);
     }},
    {"calibrate",
     "calibrate every fleet machine type in-process (Litmus pricing "
     "without tables)",
     [](ScenarioSpec &s, Text v, Text c) { s.calibrate = parseBool(c, v); }},
    {"calibration_levels",
     "level cap for in-process calibration (0 = full sweep)",
     [](ScenarioSpec &s, Text v, Text c) {
         s.calibrationLevels = parseCount<unsigned>(c, v);
     }},
    {"diurnal.amplitude", "diurnal: relative rate swing, in [0, 1]",
     [](ScenarioSpec &s, Text v, Text c) {
         s.traffic.diurnalAmplitude = parseDouble(c, v);
     }},
    {"diurnal.period", "diurnal: length of one load cycle (s)",
     [](ScenarioSpec &s, Text v, Text c) {
         s.traffic.diurnalPeriod = parseDouble(c, v);
     }},
    {"diurnal.phase", "diurnal: phase offset as a fraction of a period",
     [](ScenarioSpec &s, Text v, Text c) {
         s.traffic.diurnalPhase = parseDouble(c, v);
     }},
    {"drain_cap", "simulated seconds allowed to drain after arrivals",
     [](ScenarioSpec &s, Text v, Text c) {
         s.cluster.drainCap = parseDouble(c, v);
     }},
    {"duration",
     "stop generating arrivals at this simulated time (s; 0 = until "
     "invocations)",
     [](ScenarioSpec &s, Text v, Text c) {
         s.traffic.duration = parseDouble(c, v);
     }},
    {"epoch_us", "dispatch epoch in microseconds",
     [](ScenarioSpec &s, Text v, Text c) {
         s.cluster.epoch = parseDouble(c, v) * 1e-6;
     }},
    {"fault.billing",
     "who pays for destroyed work: tenant-pays | provider-absorbs",
     [](ScenarioSpec &s, Text v, Text c) {
         s.cluster.faults.billing = cluster::faultBillingByName(c, v);
     }},
    {"fault.blind.at", "scripted blindness windows: t[@machine],...",
     [](ScenarioSpec &s, Text v, Text c) {
         s.cluster.faults.blindAt = cluster::parseScriptedFaults(c, v);
     }},
    {"fault.blind.duration", "dispatcher blindness window length (s)",
     [](ScenarioSpec &s, Text v, Text c) {
         s.cluster.faults.blindDuration = parseDouble(c, v);
     }},
    {"fault.blind.mtbf",
     "mean time between blindness windows per machine (s; 0 = off)",
     [](ScenarioSpec &s, Text v, Text c) {
         s.cluster.faults.blindMtbf = parseDouble(c, v);
     }},
    {"fault.crash.at", "scripted crashes: t[@machine],...",
     [](ScenarioSpec &s, Text v, Text c) {
         s.cluster.faults.crashAt = cluster::parseScriptedFaults(c, v);
     }},
    {"fault.crash.mtbf",
     "mean time between crashes per machine (s; 0 = off)",
     [](ScenarioSpec &s, Text v, Text c) {
         s.cluster.faults.crashMtbf = parseDouble(c, v);
     }},
    {"fault.crash.restart", "downtime before a crashed machine restarts",
     [](ScenarioSpec &s, Text v, Text c) {
         s.cluster.faults.restartDelay = parseDouble(c, v);
     }},
    {"fault.retry",
     "crash-killed invocations: drop | retry-once | retry-backoff",
     [](ScenarioSpec &s, Text v, Text c) {
         s.cluster.faults.retry = cluster::retryPolicyByName(c, v);
     }},
    {"fault.retry.backoff", "first retry-backoff delay (s), doubling",
     [](ScenarioSpec &s, Text v, Text c) {
         s.cluster.faults.retryBackoff = parseDouble(c, v);
     }},
    {"fault.retry.max", "retry-backoff attempts per invocation (>= 1)",
     [](ScenarioSpec &s, Text v, Text c) {
         s.cluster.faults.retryMax = parseCount<unsigned>(c, v, 1);
     }},
    {"fault.seed", "fault-schedule seed (0 = derive from seed)",
     [](ScenarioSpec &s, Text v, Text c) {
         s.cluster.faults.seed = parseCount<std::uint64_t>(c, v);
     }},
    {"fault.slow.at", "scripted slowdown windows: t[@machine],...",
     [](ScenarioSpec &s, Text v, Text c) {
         s.cluster.faults.slowAt = cluster::parseScriptedFaults(c, v);
     }},
    {"fault.slow.duration", "slowdown window length (s)",
     [](ScenarioSpec &s, Text v, Text c) {
         s.cluster.faults.slowDuration = parseDouble(c, v);
     }},
    {"fault.slow.factor", "machine speed during a slowdown, in (0, 1]",
     [](ScenarioSpec &s, Text v, Text c) {
         s.cluster.faults.slowFactor = parseDouble(c, v);
     }},
    {"fault.slow.mtbf",
     "mean time between slowdown windows per machine (s; 0 = off)",
     [](ScenarioSpec &s, Text v, Text c) {
         s.cluster.faults.slowMtbf = parseDouble(c, v);
     }},
    {"fleet", "machine groups, e.g. cascade-5218:8,icelake-4314:8",
     [](ScenarioSpec &s, Text v, Text c) {
         s.cluster.fleet = parseFleetSpec(c, v);
     }},
    {"functions",
     "sampling pool: all | test | reference | memory | name,name,...",
     [](ScenarioSpec &s, Text v, Text c) {
         s.cluster.functionPool = parseFunctionPool(c, v);
     }},
    {"invocations", "total arrivals to serve (0 = until duration)",
     [](ScenarioSpec &s, Text v, Text c) {
         s.traffic.invocations =
             parseCount<std::uint64_t>(c, v);
         s.invocationsExplicit = true;
     }},
    {"keepalive", "warm-container keep-alive (s)",
     [](ScenarioSpec &s, Text v, Text c) {
         s.cluster.keepAlive = parseDouble(c, v);
     }},
    {"policy",
     "dispatch policy: round-robin | least-loaded | warmth-aware | "
     "cost-aware",
     [](ScenarioSpec &s, Text v, Text c) {
         s.cluster.policy = cluster::policyByName(c, v);
     }},
    {"probes", "attach Litmus probes (unset = on iff pricing)",
     [](ScenarioSpec &s, Text v, Text c) { s.probes = parseBool(c, v); }},
    {"rate", "fleet arrival rate (invocations/s)",
     [](ScenarioSpec &s, Text v, Text c) {
         s.traffic.arrivalsPerSecond = parseDouble(c, v);
     }},
    {"seed", "traffic and jitter seed",
     [](ScenarioSpec &s, Text v, Text c) {
         s.cluster.seed = parseCount<std::uint64_t>(c, v);
     }},
    {"sharing_factor", "Method 1 sharing factor for Litmus quotes",
     [](ScenarioSpec &s, Text v, Text c) {
         s.cluster.sharingFactor = parseDouble(c, v);
     }},
    {"tables",
     "calibration profiles to load, comma-separated (Litmus pricing)",
     [](ScenarioSpec &s, Text v, Text) {
         s.tables = splitNonEmpty(v, ',');
     }},
    {"tables_out", "write the active calibration profiles here",
     [](ScenarioSpec &s, Text v, Text) { s.tablesOut = v; }},
    {"threads", "worker threads (0 = one per machine)",
     [](ScenarioSpec &s, Text v, Text c) {
         s.cluster.threads = parseCount<unsigned>(c, v);
     }},
    {"trace.path", "arrival CSV to replay (traffic = trace)",
     [](ScenarioSpec &s, Text v, Text) { s.traffic.tracePath = v; }},
    {"trace.rate_scale", "trace replay speedup: 2 = twice as fast",
     [](ScenarioSpec &s, Text v, Text c) {
         s.traffic.traceRateScale = parseDouble(c, v);
     }},
    {"traffic", "traffic model: poisson | diurnal | burst | trace | azure",
     [](ScenarioSpec &s, Text v, Text) {
         s.traffic.model = v;
         // The 10000-arrival default is a stop condition for the
         // generative models; a replay must not silently truncate
         // its file to it.
         if ((v == "trace" || v == "azure") && !s.invocationsExplicit)
             s.traffic.invocations = 0;
     }},
};

static_assert(std::ranges::is_sorted(kSchema, {}, &ScenarioKey::name),
              "kSchema must stay sorted by key");

/** The known-keys list as one comma-joined string (diagnostics). */
std::string
knownKeyListing()
{
    std::string known;
    for (const ScenarioKey &row : kSchema)
        known += (known.empty() ? "" : ", ") + std::string(row.name);
    return known;
}

} // namespace

std::vector<cluster::MachineGroup>
parseFleetSpec(const std::string &context, const std::string &spec)
{
    std::vector<cluster::MachineGroup> fleet;
    for (const std::string &piece : splitNonEmpty(spec, ',')) {
        cluster::MachineGroup group;
        const auto colon = piece.find(':');
        group.machine = piece.substr(0, colon);
        if (colon != std::string::npos) {
            const std::string count = piece.substr(colon + 1);
            const auto parsed = parseLongStrict(count);
            if (!parsed || *parsed < 1)
                fatal(context, ": bad machine count '", count,
                      "' in '", piece, "' (want <type>:<count>)");
            group.count = static_cast<unsigned>(*parsed);
        }
        fleet.push_back(group);
    }
    if (fleet.empty())
        fatal(context, ": empty fleet listing");
    return fleet;
}

ScenarioSpec &
ScenarioSpec::set(const std::string &key, const std::string &value,
                  const std::string &where)
{
    const std::string prefix = where.empty() ? "" : where + ": ";
    const auto row = std::ranges::lower_bound(kSchema, key, {},
                                              &ScenarioKey::name);
    if (row == std::end(kSchema) || row->name != key)
        fatal(prefix, "unknown scenario key '", key, "' (known: ",
              knownKeyListing(), ")");
    row->apply(*this, value, prefix + "scenario key '" + key + "'");
    return *this;
}

std::span<const ScenarioKey>
ScenarioSpec::schema()
{
    return kSchema;
}

std::vector<std::string>
ScenarioSpec::knownKeys()
{
    std::vector<std::string> keys;
    for (const ScenarioKey &row : kSchema)
        keys.emplace_back(row.name);
    return keys;
}

ScenarioSpec
ScenarioSpec::fromConfig(const ConfigReader &config)
{
    ScenarioSpec spec;
    // Every error names the offending line:
    // "examples/x.scenario:12: unknown scenario key ...".
    for (const std::string &key : config.keys())
        spec.set(key, config.get(key), config.where(key));
    return spec;
}

ScenarioSpec
ScenarioSpec::fromFile(const std::string &path)
{
    ScenarioSpec spec = fromConfig(ConfigReader::fromFile(path));
    // A relative trace path means "next to the scenario file", so a
    // scenario + trace pair can be shipped as a unit and run from any
    // working directory.
    const auto resolve = [&path](std::string &trace) {
        if (trace.empty() || trace.front() == '/')
            return;
        const auto slash = path.find_last_of('/');
        if (slash != std::string::npos)
            trace = path.substr(0, slash + 1) + trace;
    };
    resolve(spec.traffic.tracePath);
    resolve(spec.traffic.azurePath);
    return spec;
}

ScenarioSpec
ScenarioSpec::fromString(const std::string &text)
{
    return fromConfig(ConfigReader::fromString(text));
}

void
ScenarioSpec::validate() const
{
    traffic.validate();
    cluster.validate();
}

} // namespace litmus::scenario
