/**
 * @file
 * Golden digests of fleet outputs.
 *
 * Each scenario below runs at 1 and 4 worker threads, and everything
 * it reports is folded into one 64-bit FNV-1a digest: every
 * FleetReport total, every MachineReport and TypeReport, and every
 * BillRecord of every machine's ledger. The digests are committed in
 * tests/golden/cluster.txt, one `<scenario>/<threads> <hex>` line
 * each.
 *
 * A digest that moves means the serving loop now bills differently,
 * not just faster. A change that moves one on purpose must say why
 * and replace the line with the one the failure message prints.
 */

#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "scenario/azure_trace.h"
#include "scenario/scenario_runner.h"

namespace litmus
{
namespace
{

/** FNV-1a over the exact bytes of every value fed in. */
class Digest
{
  public:
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }

    void f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    std::uint64_t value() const { return h_; }

  private:
    void bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= 0x100000001b3ull;
        }
    }

    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Digest of a run's report and every machine's ledger. */
std::uint64_t
runDigest(scenario::ScenarioSpec spec, unsigned threads)
{
    spec.cluster.threads = threads;
    scenario::ScenarioRunner runner(std::move(spec));
    const cluster::FleetReport &r = runner.run();

    Digest d;
    for (std::uint64_t v :
         {r.arrivals, r.dispatched, r.rejectedMemory, r.completions,
          r.coldStarts, r.warmStarts, r.crashes, r.killedInvocations,
          r.retries, r.abandoned})
        d.u64(v);
    for (double v : {r.billedCpuSeconds, r.commercialUsd, r.litmusUsd,
                     r.meanLatency, r.makespan, r.lostCpuSeconds,
                     r.absorbedCpuSeconds, r.absorbedUsd})
        d.f64(v);

    for (const cluster::MachineReport &m : r.machines) {
        d.u64(m.index);
        d.str(m.type);
        for (std::uint64_t v : {m.dispatched, m.coldStarts, m.warmStarts,
                                m.completions, m.crashes,
                                m.killedInvocations})
            d.u64(v);
        for (double v : {m.billedCpuSeconds, m.commercialUsd,
                         m.litmusUsd, m.meanLatency, m.quanta,
                         m.lostCpuSeconds, m.absorbedCpuSeconds,
                         m.absorbedUsd})
            d.f64(v);
    }

    for (const cluster::TypeReport &t : r.types) {
        d.str(t.type);
        for (std::uint64_t v :
             {std::uint64_t{t.machines}, t.dispatched, t.coldStarts,
              t.warmStarts, t.completions, t.crashes,
              t.killedInvocations})
            d.u64(v);
        for (double v : {t.billedCpuSeconds, t.commercialUsd,
                         t.litmusUsd, t.lostCpuSeconds,
                         t.absorbedCpuSeconds, t.absorbedUsd})
            d.f64(v);
    }

    for (std::size_t m = 0; m < r.machines.size(); ++m) {
        const auto &records =
            runner.cluster().ledger(static_cast<unsigned>(m)).records();
        d.u64(records.size());
        for (const pricing::BillRecord &b : records) {
            d.str(b.function);
            d.str(b.tenant);
            for (double v :
                 {b.cpuSeconds, b.memoryGiB, b.quote.commercial,
                  b.quote.litmus, b.quote.litmusPriv,
                  b.quote.litmusShared, b.quote.ideal,
                  b.quote.idealPriv, b.quote.idealShared,
                  b.commercialUsd, b.litmusUsd})
                d.f64(v);
        }
    }
    return d.value();
}

std::string
hex(std::uint64_t v)
{
    std::ostringstream os;
    os << std::hex;
    os.width(16);
    os.fill('0');
    os << v;
    return os.str();
}

/** The committed digests: "<scenario>/<threads>" -> hex. */
const std::map<std::string, std::string> &
committed()
{
    static const std::map<std::string, std::string> lines = [] {
        const std::string path =
            std::string(LITMUS_GOLDEN_DIR) + "/cluster.txt";
        std::ifstream file(path);
        if (!file)
            ADD_FAILURE() << "cannot read " << path;
        std::map<std::string, std::string> out;
        std::string line;
        while (std::getline(file, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::istringstream fields(line);
            std::string key;
            std::string digest;
            fields >> key >> digest;
            out[key] = digest;
        }
        return out;
    }();
    return lines;
}

/** Run @p spec at 1 and 4 threads; both must match their lines. */
void
expectGolden(const std::string &name, const scenario::ScenarioSpec &spec)
{
    for (unsigned threads : {1u, 4u}) {
        const std::string key = name + "/" + std::to_string(threads);
        const std::string got = hex(runDigest(spec, threads));
        const auto it = committed().find(key);
        const std::string want =
            it == committed().end() ? "(missing)" : it->second;
        EXPECT_EQ(want, got) << "golden digest for " << key
                             << " moved; if on purpose, the line is\n"
                             << "golden: " << key << " " << got;
    }
}

std::string
writeTempFile(const std::string &name, const std::string &text)
{
    const std::string path = ::testing::TempDir() + name;
    std::ofstream file(path);
    file << text;
    return path;
}

/** fig22-style base: small warmth-aware fleet, test-set functions. */
scenario::ScenarioSpec
baseSpec(const std::string &extra = "")
{
    return scenario::ScenarioSpec::fromString(
        "fleet = cascade-5218:3\n"
        "policy = warmth-aware\n"
        "rate = 1500\n"
        "invocations = 400\n"
        "keepalive = 0.05\n"
        "functions = test\n"
        "seed = 11\n" +
        extra);
}

/** A small Azure-shaped CSV synthesized into the test temp dir. */
std::string
smallAzureCsv(const std::string &name, std::uint64_t seed)
{
    scenario::AzureTraceGenSpec gen;
    gen.functions = 200;
    gen.minutes = 3;
    gen.invocationsPerMinute = 150.0;
    gen.seed = seed;
    const std::string path = ::testing::TempDir() + name;
    scenario::writeAzureShapedCsv(path, gen);
    return path;
}

/** A shipped examples/scenarios file, loaded from disk so its
 *  relative trace.path / azure.path resolve next to it. */
scenario::ScenarioSpec
exampleSpec(const std::string &name)
{
    return scenario::ScenarioSpec::fromFile(
        std::string(LITMUS_SCENARIO_DIR) + "/" + name + ".scenario");
}

TEST(GoldenDigest, Poisson)
{
    expectGolden("poisson", baseSpec());
}

TEST(GoldenDigest, Diurnal)
{
    // Deep idle troughs exercise the idle-fleet floor jump.
    expectGolden("diurnal", baseSpec("traffic = diurnal\n"
                                     "diurnal.period = 0.4\n"
                                     "diurnal.amplitude = 0.95\n"));
}

TEST(GoldenDigest, Burst)
{
    expectGolden("burst", baseSpec("traffic = burst\n"
                                   "burst.on = 0.05\n"
                                   "burst.off = 0.2\n"
                                   "burst.idle_fraction = 0.02\n"));
}

TEST(GoldenDigest, TraceReplay)
{
    // A t=0 arrival (due before the first barrier) and long gaps.
    const std::string path = writeTempFile(
        "golden_trace.csv", "0.0,float-py\n"
                            "0.001,aes-go\n"
                            "0.13,\n"
                            "0.50,float-py\n"
                            "0.5001,aes-go\n"
                            "1.75,\n");
    expectGolden("trace", baseSpec("traffic = trace\n"
                                   "trace.path = " + path + "\n"));
}

TEST(GoldenDigest, SparseTrace)
{
    // Long idle stretches between three arrivals.
    const std::string path = writeTempFile(
        "golden_sparse.csv", "0.01,float-py\n"
                             "0.8,aes-go\n"
                             "1.9,float-py\n");
    expectGolden("sparse", baseSpec("traffic = trace\n"
                                    "trace.path = " + path + "\n"));
}

TEST(GoldenDigest, MixedFleet)
{
    expectGolden("mixed",
                 scenario::ScenarioSpec::fromString(
                     "fleet = cascade-5218:2,icelake-4314:2\n"
                     "policy = cost-aware\n"
                     "rate = 2000\n"
                     "invocations = 500\n"
                     "keepalive = 0.1\n"
                     "functions = test\n"
                     "seed = 3\n"));
}

TEST(GoldenDigest, ChaosProviderAbsorbs)
{
    // Stochastic crashes with backoff retries.
    expectGolden("chaos-absorbs",
                 baseSpec("fault.crash.mtbf = 0.4\n"
                          "fault.crash.restart = 0.05\n"
                          "fault.retry = backoff\n"
                          "fault.retry.max = 3\n"
                          "fault.retry.backoff = 0.02\n"
                          "fault.billing = provider-absorbs\n"
                          "fault.seed = 5\n"));
}

TEST(GoldenDigest, ChaosTenantPaysScripted)
{
    // Scripted crashes and a slowdown window, some landing while the
    // fleet is wholly idle.
    expectGolden("chaos-tenant",
                 baseSpec("fault.crash.at = 0.05@0;0.11@2\n"
                          "fault.crash.restart = 0.04\n"
                          "fault.slow.at = 0.08@1\n"
                          "fault.slow.duration = 0.06\n"
                          "fault.slow.factor = 0.5\n"
                          "fault.retry = retry-once\n"
                          "fault.billing = tenant-pays\n"));
}

TEST(GoldenDigest, Azure)
{
    const std::string path = smallAzureCsv("golden_azure.csv", 5);
    expectGolden("azure", baseSpec("traffic = azure\n"
                                   "azure.path = " + path + "\n"));
}

TEST(GoldenDigest, AzureChaos)
{
    // Crashes and retries over lazily pulled minute buckets.
    const std::string path = smallAzureCsv("golden_azure_chaos.csv", 6);
    expectGolden("azure-chaos", baseSpec("traffic = azure\n"
                                         "azure.path = " + path + "\n"
                                         "fault.crash.mtbf = 40\n"
                                         "fault.crash.restart = 2\n"
                                         "fault.retry = retry-once\n"));
}

TEST(GoldenDigest, ExampleAzureStream)
{
    expectGolden("example-azure-stream", exampleSpec("azure_stream"));
}

TEST(GoldenDigest, ExampleChaosBurst)
{
    // 2000 of the file's 8000 invocations keep the suite fast; the
    // two pinned early crashes still kill and retry work.
    expectGolden("example-chaos-burst",
                 exampleSpec("chaos_burst").set("invocations", "2000"));
}

TEST(GoldenDigest, ExampleDiurnalHetero)
{
    // 2000 of the file's 12000 invocations keep the suite fast.
    expectGolden("example-diurnal-hetero",
                 exampleSpec("diurnal_hetero").set("invocations", "2000"));
}

TEST(GoldenDigest, ExampleTraceReplay)
{
    expectGolden("example-trace-replay", exampleSpec("trace_replay"));
}

} // namespace
} // namespace litmus
