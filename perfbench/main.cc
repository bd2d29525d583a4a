/**
 * @file
 * litmus_perfbench: runs one benchmark workload for a fixed host time
 * and prints one JSON line of results.
 *
 *   litmus_perfbench --workload dense_cell --seed 1 --seconds 10
 *                    --trace 0 --digests perfbench/digests.txt
 *                    --scratch DIR --out-dir DIR
 *
 * Untraced (--trace 0) it repeats cold runs of the workload until
 * --seconds have passed (at least three) and reports medians. Traced
 * (--trace 1) it alternates untraced and traced repetitions, reports
 * the per-layer metrics of the median traced repetition, the tracing
 * overhead, and writes every span to DIR/trace-<workload>-s<seed>.json.
 *
 * Every repetition passes the correctness gate or the run fails: the
 * invocation identities, billing conservation, one digest for every
 * repetition, the committed digest at the default seed, and (traced)
 * traced digest == untraced digest == ScenarioRunner::run() digest.
 * The process exits 1 after printing its line when any check failed.
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <malloc.h>
#include <unistd.h>

#include "common/logging.h"
#include "workloads.h"

using namespace perfbench;

namespace
{

/** The seed the committed digests were recorded at. */
constexpr std::uint64_t kDefaultSeed = 1;

/** Fewest repetitions of each kind a run makes, however long they
 *  take, so every reported median has at least this many samples. */
constexpr unsigned kMinReps = 3;

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    std::string digests;
    std::string scratch = ".";
    std::string outDir = ".";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "litmus_perfbench: " << why
              << "\nusage: litmus_perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] --digests FILE "
                 "[--scratch DIR] [--out-dir DIR]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                o.workload = value;
            else if (flag == "--seed")
                o.seed = std::stoull(value);
            else if (flag == "--seconds")
                o.seconds = std::stod(value);
            else if (flag == "--trace")
                o.trace = std::stoi(value) != 0;
            else if (flag == "--digests")
                o.digests = value;
            else if (flag == "--scratch")
                o.scratch = value;
            else if (flag == "--out-dir")
                o.outDir = value;
            else
                usage("unknown flag " + flag);
        } catch (const std::exception &) {
            usage("bad value '" + value + "' for " + flag);
        }
    }
    if (!findWorkload(o.workload))
        usage("unknown workload '" + o.workload + "'");
    if (o.digests.empty())
        usage("--digests is required");
    if (!(o.seconds > 0))
        usage("--seconds must be positive");
    return o;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Committed digest for @p workload at the default seed, 0 if none.
 *  Lines: "<workload> <seed> <hex digest>", '#' comments. */
std::uint64_t
committedDigest(const std::string &path, const std::string &workload)
{
    std::ifstream in(path);
    if (!in)
        litmus::fatal("perfbench: cannot read digests file ", path);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string name, hex;
        std::uint64_t seed = 0;
        if (line.empty() || line[0] == '#' ||
            !(fields >> name >> seed >> hex))
            continue;
        if (name == workload && seed == kDefaultSeed)
            return std::stoull(hex, nullptr, 16);
    }
    return 0;
}

std::string
hex(std::uint64_t v)
{
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << v;
    return os.str();
}

/** Peak resident set size of this process (VmHWM), in MB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) * 1024 / 1e6;
    }
    return 0;
}

std::string
loadAverage()
{
    double load[1] = {0};
    return getloadavg(load, 1) == 1 ? std::to_string(load[0]) : "null";
}

/** Minimal JSON object writer (numbers at full precision). */
class JsonObject
{
  public:
    JsonObject &num(const std::string &key, double v)
    {
        std::ostringstream os;
        os << std::setprecision(17) << v;
        return raw(key, os.str());
    }
    JsonObject &str(const std::string &key, const std::string &v)
    {
        return raw(key, "\"" + v + "\"");
    }
    JsonObject &raw(const std::string &key, const std::string &v)
    {
        if (!body_.empty())
            body_ += ',';
        body_ += '"';
        body_ += key;
        body_ += "\":";
        body_ += v;
        return *this;
    }
    JsonObject &map(const std::string &key,
                    const std::map<std::string, double> &m)
    {
        JsonObject inner;
        for (const auto &[k, v] : m)
            inner.num(k, v);
        return raw(key, inner.text());
    }
    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    const Workload &workload = *findWorkload(opt.workload);
    litmus::setLogThreshold(litmus::LogLevel::Warn);

    const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    if (workload.threads > nproc) {
        std::cerr << "litmus_perfbench: " << workload.name << " needs "
                  << workload.threads << " threads but the host has "
                  << nproc << " CPUs\n";
        return 2;
    }
    const std::string loadStart = loadAverage();

    const Inputs inputs(workload, opt.seed, opt.scratch);
    const std::int64_t start = nowNs();
    const auto elapsed = [start] { return (nowNs() - start) * 1e-9; };

    std::vector<RepResult> plain, traced;
    Tracer tracer;
    // Each repetition starts from a trimmed heap, so it pays for fresh
    // pages as the first run in a new process does.
    const auto coldRep = [&](bool withTrace) {
        malloc_trim(0);
        if (!withTrace)
            plain.push_back(runRep(inputs, nullptr, false));
        else
            traced.push_back(runRep(inputs, &tracer, traced.empty()));
    };
    // Traced runs interleave untraced and traced repetitions, swapping
    // which goes first, so drift of the host and order effects fall on
    // both sides of the overhead alike.
    while (plain.size() < kMinReps || elapsed() < opt.seconds) {
        const bool tracedFirst = opt.trace && plain.size() % 2 == 1;
        coldRep(tracedFirst);
        if (opt.trace)
            coldRep(!tracedFirst);
    }

    std::vector<std::string> breaches;
    std::uint64_t attempted = 0, failed = 0;
    for (const std::vector<RepResult> *reps : {&plain, &traced}) {
        for (const RepResult &r : *reps) {
            attempted += r.attempted;
            failed += r.failed;
            breaches.insert(breaches.end(), r.breaches.begin(),
                            r.breaches.end());
            if (r.digest != plain.front().digest)
                breaches.push_back("digest differs between repetitions " +
                                   hex(r.digest) + " vs " +
                                   hex(plain.front().digest));
        }
    }
    const std::uint64_t digest = plain.front().digest;
    if (opt.seed == kDefaultSeed) {
        const std::uint64_t expected =
            committedDigest(opt.digests, workload.name);
        if (expected == 0)
            breaches.push_back("no committed digest for " +
                               std::string(workload.name) + " in " +
                               opt.digests);
        else if (digest != expected)
            breaches.push_back("digest " + hex(digest) +
                               " != committed " + hex(expected));
    }
    const bool correct = breaches.empty();
    for (const std::string &b : breaches)
        std::cerr << "litmus_perfbench: correctness: " << b << "\n";

    const auto med = [](const std::vector<RepResult> &reps, auto field) {
        std::vector<double> v;
        for (const RepResult &r : reps)
            v.push_back(field(r));
        return median(v);
    };
    const auto total = [](const RepResult &r) {
        return r.setupS + r.serveS;
    };

    std::map<std::string, double> endToEnd = {
        {"setup_s", med(plain, [](const RepResult &r) { return r.setupS; })},
        {"inv_per_s", med(plain,
                          [](const RepResult &r) {
                              return (r.attempted - r.failed) / r.serveS;
                          })},
        {"peak_rss_mb", peakRssMb()},
    };
    if (workload.fleet)
        endToEnd["sim_speed"] = med(
            plain, [](const RepResult &r) { return r.simSeconds / r.serveS; });

    std::map<std::string, double> layers;
    if (opt.trace) {
        // The traced repetition with the median total supplies every
        // layer figure, so layers + unattributed sum to its phases.
        std::vector<const RepResult *> order;
        for (const RepResult &r : traced)
            order.push_back(&r);
        std::sort(order.begin(), order.end(),
                  [&](const RepResult *a, const RepResult *b) {
                      return total(*a) < total(*b);
                  });
        layers = order[order.size() / 2]->layers;
        const double base = med(plain, total);
        layers["trace.overhead_frac"] = (med(traced, total) - base) / base;
        const std::string path = opt.outDir + "/trace-" + workload.name +
                                 "-s" + std::to_string(opt.seed) +
                                 ".json";
        if (!tracer.writeChromeTrace(path))
            litmus::fatal("perfbench: cannot write ", path);
        std::cerr << "litmus_perfbench: spans written to " << path << "\n";
    }

    JsonObject env;
    env.num("nproc", double(nproc))
        .raw("load1_start", loadStart)
        .raw("load1_end", loadAverage())
        .str("compiler", PERFBENCH_COMPILER)
        .str("build_type", PERFBENCH_BUILD_TYPE)
        .num("seed", double(opt.seed))
        .num("threads", workload.threads)
        .num("reps", double(plain.size()))
        .num("traced_reps", double(traced.size()));

    std::string repTimes;
    for (const RepResult &r : plain) {
        std::ostringstream os;
        os << std::setprecision(17) << (repTimes.empty() ? "" : ",") << "["
           << r.setupS << "," << r.serveS << "]";
        repTimes += os.str();
    }

    JsonObject out;
    out.str("workload", workload.name)
        .raw("correct", correct ? "true" : "false")
        .num("attempted", double(attempted))
        .num("failed", double(correct ? failed : attempted))
        .str("digest", hex(digest))
        .map("end_to_end", endToEnd)
        .map("outcomes", plain.front().outcomes)
        .map("per_layer", layers)
        .raw("env", env.text())
        .raw("rep_times", "[" + repTimes + "]");
    std::cout << out.text() << std::endl;
    return correct ? 0 : 1;
}
