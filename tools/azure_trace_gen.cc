/**
 * @file
 * azure_trace_gen: synthesize Azure-Functions-dataset-shaped CSVs.
 *
 * Emits the dataset's minute-bucket shape (four identity columns,
 * then one invocation-count column per minute) for an arbitrary
 * function count, so trace-scale experiments run against 10^5-10^6
 * function files without the real download:
 *
 *     azure_trace_gen --out=day.csv --functions=100000 \
 *         --minutes=1440 --rate=50000
 *     litmus_fleet --traffic=azure --azure.path=day.csv
 *
 * Counts are a pure function of the knobs + --seed (see
 * scenario::writeAzureShapedCsv), and the file is streamed row by
 * row, so generation itself is O(1) memory at any function count.
 */

#include "common/arg_parser.h"
#include "common/logging.h"
#include "scenario/azure_trace.h"

using namespace litmus;

int
main(int argc, char **argv)
{
    ArgParser args("azure_trace_gen",
                   "Generate Azure-dataset-shaped invocation CSVs");
    args.addOption("out", "output CSV path", "azure_trace.csv")
        .addOption("functions", "function rows to synthesize", "1000")
        .addOption("minutes",
                   "minute columns (60 = an hour, 1440 = the "
                   "dataset's day)",
                   "60")
        .addOption("rate",
                   "target fleet-wide mean invocations per minute",
                   "2000")
        .addOption("zipf",
                   "Zipf popularity exponent (higher = heavier head)",
                   "1.1")
        .addOption("suite-fraction",
                   "fraction of rows named after real suite functions "
                   "(exercises the suite-mapping heuristic)",
                   "0.25")
        .addOption("amplitude",
                   "diurnal swing of the minute profile in [0, 1]",
                   "0.6")
        .addOption("seed", "generator seed", "1");
    args.parseOrExit(argc, argv);

    scenario::AzureTraceGenSpec spec;
    spec.functions = static_cast<std::uint64_t>(
        args.getIntAtLeast("functions", 1));
    spec.minutes =
        static_cast<unsigned>(args.getIntAtLeast("minutes", 1));
    spec.invocationsPerMinute = args.getDouble("rate");
    spec.zipfExponent = args.getDouble("zipf");
    spec.suiteNamedFraction = args.getDouble("suite-fraction");
    spec.diurnalAmplitude = args.getDouble("amplitude");
    spec.seed =
        static_cast<std::uint64_t>(args.getIntAtLeast("seed", 0));

    const std::string out = args.get("out");
    const std::uint64_t total =
        scenario::writeAzureShapedCsv(out, spec);
    inform("azure_trace_gen: ", spec.functions, " functions x ",
           spec.minutes, " minutes -> ", out, " (", total,
           " invocations)");
    return 0;
}
