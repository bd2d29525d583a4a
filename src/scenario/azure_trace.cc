#include "scenario/azure_trace.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "workload/suite.h"

namespace litmus::scenario
{

namespace
{

constexpr double kPi = 3.14159265358979323846;
constexpr Seconds kMinute = 60.0;

/** Identity columns before the minute-count columns. */
constexpr std::size_t kIdentityColumns = 4;

/** Strict nonnegative-integer parse (digits only; no sign, no
 *  whitespace, no exponent) — the only thing a count cell may hold. */
bool
parseCount(const std::string &field, std::uint64_t &out)
{
    if (field.empty() || field.size() > 15)
        return false;
    std::uint64_t v = 0;
    for (const char c : field) {
        if (c < '0' || c > '9')
            return false;
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    out = v;
    return true;
}

/** FNV-1a over the row identity: stable across runs and platforms,
 *  the hash that spreads unmapped functions over the pool. */
std::uint64_t
fnv1a(const std::string &owner, const std::string &app,
      const std::string &function)
{
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](const std::string &s) {
        for (const char c : s) {
            h ^= static_cast<unsigned char>(c);
            h *= 1099511628211ull;
        }
        h ^= 0xff; // field separator: ("a","bc") != ("ab","c")
        h *= 1099511628211ull;
    };
    mix(owner);
    mix(app);
    mix(function);
    return h;
}

/** Split one CSV line into trimmed fields. */
std::vector<std::string>
splitCsv(const std::string &line)
{
    std::vector<std::string> fields;
    std::size_t start = 0;
    while (true) {
        const std::size_t comma = line.find(',', start);
        std::string field =
            comma == std::string::npos
                ? line.substr(start)
                : line.substr(start, comma - start);
        const auto first = field.find_first_not_of(" \t\r");
        field = first == std::string::npos
                    ? ""
                    : field.substr(first, field.find_last_not_of(
                                              " \t\r") - first + 1);
        fields.push_back(std::move(field));
        if (comma == std::string::npos)
            return fields;
        start = comma + 1;
    }
}

/** One ingested function row's arrival identity. */
struct AzureRow
{
    /** Suite member the HashFunction field named, or null (then the
     *  identity hash picks from the run's pool). */
    const workload::FunctionSpec *spec = nullptr;

    /** FNV-1a of (owner, app, function). */
    std::uint64_t hash = 0;
};

/** One nonzero minute bucket: `count` invocations of row `row`
 *  somewhere in minute `minute`. The whole resident footprint of an
 *  ingested trace is these 16 bytes per nonzero bucket. */
struct AzureBucket
{
    std::uint32_t minute = 0;
    std::uint32_t row = 0;
    std::uint64_t count = 0;
};

/** The parsed, capped, minute-sorted index one `azure` model owns. */
struct AzureIndex
{
    std::vector<AzureRow> rows;

    /** Sorted by minute; rows within a minute in file order. */
    std::vector<AzureBucket> buckets;

    /** Minute columns in the file (bucket-seed stride). */
    std::uint32_t minuteColumns = 0;

    /** Last nonzero minute (horizon estimate). */
    std::uint32_t lastMinute = 0;

    /** Total invocations across kept buckets. */
    std::uint64_t total = 0;
};

/**
 * Parse a dataset-shaped CSV into the bucket index. Row and
 * column-shape validation fatal() with file:line; the row cap stops
 * the read — rows past it are never parsed.
 */
AzureIndex
parseAzureCsv(const std::string &path, std::uint64_t maxRows)
{
    std::ifstream file(path);
    if (!file)
        fatal("cannot read azure trace '", path, "'");

    AzureIndex index;
    std::string line;
    unsigned lineNo = 0;
    bool headerAllowed = true;
    bool capped = false;
    while (std::getline(file, line)) {
        ++lineNo;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;

        const std::vector<std::string> fields = splitCsv(line);
        if (fields.size() < kIdentityColumns + 1)
            fatal(path, ":", lineNo, ": expected at least ",
                  kIdentityColumns + 1,
                  " columns (owner, app, function, trigger, counts), "
                  "got ", fields.size());

        std::uint64_t count = 0;
        if (headerAllowed &&
            (fields[0] == "HashOwner" ||
             !parseCount(fields[kIdentityColumns], count))) {
            // The dataset's header: identity column names, then the
            // minute numbers — which are digits, so spotting the
            // header needs the identity columns, not the count probe.
            // Its shape fixes the column count.
            headerAllowed = false;
            index.minuteColumns = static_cast<std::uint32_t>(
                fields.size() - kIdentityColumns);
            continue;
        }
        headerAllowed = false;
        if (index.minuteColumns == 0)
            index.minuteColumns = static_cast<std::uint32_t>(
                fields.size() - kIdentityColumns);
        if (fields.size() - kIdentityColumns != index.minuteColumns)
            fatal(path, ":", lineNo, ": row has ",
                  fields.size() - kIdentityColumns,
                  " count columns, expected ", index.minuteColumns);

        if (maxRows > 0 && index.rows.size() >= maxRows) {
            capped = true;
            break;
        }

        AzureRow row;
        // Mapping heuristic: a HashFunction field naming a Table 1
        // member pins that function; everything else spreads over
        // the run's pool by identity hash.
        row.spec = workload::findFunction(fields[2]);
        row.hash = fnv1a(fields[0], fields[1], fields[2]);
        const std::uint32_t rowIdx =
            static_cast<std::uint32_t>(index.rows.size());
        index.rows.push_back(row);

        for (std::uint32_t m = 0; m < index.minuteColumns; ++m) {
            const std::string &cell = fields[kIdentityColumns + m];
            if (!parseCount(cell, count))
                fatal(path, ":", lineNo, ": bad invocation count '",
                      cell, "' in minute ", m + 1);
            if (count == 0)
                continue;
            index.buckets.push_back({m, rowIdx, count});
            index.total += count;
            index.lastMinute = std::max(index.lastMinute, m);
        }
    }
    if (index.rows.empty())
        fatal("azure trace '", path, "' contains no function rows");
    if (index.total == 0)
        fatal("azure trace '", path, "' contains no invocations");
    if (capped)
        warn("azure trace '", path, "': ingest capped at ",
             index.rows.size(), " rows (azure.max_rows=", maxRows,
             "); rows past the cap left unread");

    // Column-major time order: the file is row-major, the stream
    // emits minute by minute. Stable, so rows keep file order within
    // a minute.
    std::stable_sort(index.buckets.begin(), index.buckets.end(),
                     [](const AzureBucket &a, const AzureBucket &b) {
                         return a.minute < b.minute;
                     });
    return index;
}

/**
 * The pull cursor over one ingested trace: materializes one minute of
 * arrivals at a time. Each bucket's timestamps come from a
 * per-(stream, row, minute) derived Rng, so the sequence is a pure
 * function of the scenario seed — not of pull order, thread count, or
 * which other buckets exist.
 */
class AzureStream final : public cluster::ArrivalStream
{
  public:
    AzureStream(const TrafficSpec &spec, const AzureIndex &index,
                Rng &rng,
                const std::vector<const workload::FunctionSpec *> &pool)
        : ArrivalStream("azure"), spec_(spec), index_(index),
          pool_(pool)
    {
        Rng forked = rng.fork();
        baseSeed_ = forked();
    }

  protected:
    bool produce(cluster::Invocation &out) override
    {
        if (spec_.invocations > 0 && emitted_ >= spec_.invocations)
            return false;
        while (bufferNext_ >= buffer_.size()) {
            if (!fillNextMinute())
                return false;
        }
        const Pending &p = buffer_[bufferNext_];
        if (spec_.duration > 0 && p.arrival >= spec_.duration)
            return false; // sorted: every later arrival is past too
        out.arrival = p.arrival;
        out.spec = p.spec;
        ++bufferNext_;
        ++emitted_;
        return true;
    }

  private:
    struct Pending
    {
        Seconds arrival = 0;
        const workload::FunctionSpec *spec = nullptr;
    };

    /** Deterministic per-bucket substream, FaultPlan-style: the
     *  Rng constructor SplitMix64-scrambles the seed, so consecutive
     *  bucket ids give independent streams. */
    std::uint64_t bucketSeed(const AzureBucket &b) const
    {
        return baseSeed_ +
               static_cast<std::uint64_t>(b.row) * index_.minuteColumns +
               b.minute;
    }

    bool fillNextMinute()
    {
        if (cursor_ >= index_.buckets.size())
            return false;
        buffer_.clear();
        bufferNext_ = 0;
        const std::uint32_t minute = index_.buckets[cursor_].minute;
        const Seconds start = kMinute * minute;
        while (cursor_ < index_.buckets.size() &&
               index_.buckets[cursor_].minute == minute) {
            const AzureBucket &b = index_.buckets[cursor_];
            const AzureRow &row = index_.rows[b.row];
            const workload::FunctionSpec *spec =
                row.spec ? row.spec
                         : pool_[row.hash % pool_.size()];
            Rng bucketRng(bucketSeed(b));
            for (std::uint64_t i = 0; i < b.count; ++i) {
                Pending p;
                p.arrival = (start + bucketRng.uniform() * kMinute) /
                            spec_.azureRateScale;
                p.spec = spec;
                buffer_.push_back(p);
            }
            ++cursor_;
        }
        // Merge the minute across rows; stable keeps (file row, draw
        // index) order on ties, so the order is fully deterministic.
        std::stable_sort(buffer_.begin(), buffer_.end(),
                         [](const Pending &a, const Pending &b) {
                             return a.arrival < b.arrival;
                         });
        noteBuffered(buffer_.size());
        return true;
    }

    TrafficSpec spec_;
    const AzureIndex &index_;
    std::vector<const workload::FunctionSpec *> pool_;
    std::uint64_t baseSeed_ = 0;
    std::size_t cursor_ = 0;
    std::vector<Pending> buffer_;
    std::size_t bufferNext_ = 0;
    std::uint64_t emitted_ = 0;
};

class AzureTraffic final : public cluster::TrafficSource
{
  public:
    explicit AzureTraffic(TrafficSpec spec)
        : spec_(std::move(spec)),
          index_(parseAzureCsv(spec_.azurePath, spec_.azureMaxRows))
    {
    }

    std::string name() const override { return "azure"; }

    std::unique_ptr<cluster::ArrivalStream>
    open(Rng &rng,
         const std::vector<const workload::FunctionSpec *> &pool)
        const override
    {
        return std::make_unique<AzureStream>(spec_, index_, rng, pool);
    }

    Seconds horizonHint() const override
    {
        const Seconds span = kMinute * (index_.lastMinute + 1) /
                             spec_.azureRateScale;
        return spec_.duration > 0 ? std::min(spec_.duration, span)
                                  : span;
    }

  private:
    TrafficSpec spec_;
    AzureIndex index_;
};

/** Lower-case hex of one 64-bit value (synthetic identity fields). */
std::string
hex16(std::uint64_t v)
{
    std::ostringstream out;
    out << std::hex;
    out.width(16);
    out.fill('0');
    out << v;
    return out.str();
}

} // namespace

std::unique_ptr<cluster::TrafficSource>
makeAzureTraceModel(const TrafficSpec &spec)
{
    return std::make_unique<AzureTraffic>(spec);
}

std::uint64_t
writeAzureShapedCsv(const std::string &path, const AzureTraceGenSpec &spec)
{
    if (spec.functions == 0)
        fatal("writeAzureShapedCsv: need at least one function row");
    if (spec.minutes == 0)
        fatal("writeAzureShapedCsv: need at least one minute column");
    if (spec.invocationsPerMinute <= 0 ||
        !std::isfinite(spec.invocationsPerMinute))
        fatal("writeAzureShapedCsv: invocations per minute must be "
              "positive and finite");
    if (spec.zipfExponent <= 0)
        fatal("writeAzureShapedCsv: zipf exponent must be positive");
    if (spec.suiteNamedFraction < 0 || spec.suiteNamedFraction > 1)
        fatal("writeAzureShapedCsv: suite-named fraction must be in "
              "[0, 1]");
    if (spec.diurnalAmplitude < 0 || spec.diurnalAmplitude > 1)
        fatal("writeAzureShapedCsv: diurnal amplitude must be in "
              "[0, 1]");

    std::ofstream file(path);
    if (!file)
        fatal("writeAzureShapedCsv: cannot write '", path, "'");

    // Zipf normalizer over the function ranks.
    double zipfSum = 0;
    for (std::uint64_t i = 0; i < spec.functions; ++i)
        zipfSum += std::pow(static_cast<double>(i + 1),
                            -spec.zipfExponent);

    // Sinusoidal diurnal minute profile, one cycle over the file.
    std::vector<double> minuteWeight(spec.minutes);
    double minuteSum = 0;
    for (unsigned m = 0; m < spec.minutes; ++m) {
        minuteWeight[m] =
            1.0 + spec.diurnalAmplitude *
                      std::sin(2.0 * kPi * m / spec.minutes);
        minuteSum += minuteWeight[m];
    }

    file << "HashOwner,HashApp,HashFunction,Trigger";
    for (unsigned m = 1; m <= spec.minutes; ++m)
        file << ',' << m;
    file << '\n';

    static const char *const kTriggers[] = {"http", "timer", "queue",
                                            "event"};
    const std::vector<const workload::FunctionSpec *> suite =
        workload::allFunctions();
    const double total =
        spec.invocationsPerMinute * static_cast<double>(spec.minutes);

    std::uint64_t written = 0;
    std::ostringstream row;
    for (std::uint64_t i = 0; i < spec.functions; ++i) {
        // Per-row substream: counts are a pure function of
        // (spec, seed, row), independent of every other row.
        Rng rng(spec.seed + i + 1);
        row.str("");
        row << hex16(rng()) << ',' << hex16(rng()) << ',';
        if (rng.uniform() < spec.suiteNamedFraction)
            row << suite[rng.below(suite.size())]->name;
        else
            row << hex16(rng());
        row << ',' << kTriggers[rng.below(4)];

        const double expectedTotal =
            total *
            std::pow(static_cast<double>(i + 1), -spec.zipfExponent) /
            zipfSum;
        for (unsigned m = 0; m < spec.minutes; ++m) {
            const double expected =
                expectedTotal * minuteWeight[m] / minuteSum;
            std::uint64_t count =
                static_cast<std::uint64_t>(expected);
            if (rng.uniform() < expected - static_cast<double>(count))
                ++count;
            row << ',' << count;
            written += count;
        }
        file << row.str() << '\n';
    }
    if (!file)
        fatal("writeAzureShapedCsv: write to '", path, "' failed");
    return written;
}

} // namespace litmus::scenario
