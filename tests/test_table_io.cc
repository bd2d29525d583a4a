/**
 * @file
 * Round-trip tests for the calibration-profile serialization: v2
 * round-trips (machine name and baselines included), hand-written
 * tables without a machine record, and malformed-input death tests
 * whose messages name `file:line`.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/discount_model.h"
#include "core/table_io.h"

namespace litmus::pricing
{
namespace
{

using workload::GeneratorKind;
using workload::Language;

/** A small but fully populated profile. */
CalibrationProfile
sampleProfile()
{
    CalibrationProfile profile;
    profile.machine = "cascade-5218";
    for (Language lang : workload::allLanguages()) {
        ProbeReading base;
        base.privCpi = 0.71;
        base.sharedCpi = 0.19;
        base.instructions = 45e6;
        base.machineL3MissPerUs = 2.5;
        profile.congestion.setBaseline(lang, base);
        for (GeneratorKind gen :
             {GeneratorKind::CtGen, GeneratorKind::MbGen}) {
            for (unsigned level : {2u, 8u, 14u}) {
                CongestionEntry e;
                e.privSlowdown = 1.0 + 0.01 * level;
                e.sharedSlowdown = 1.0 + 0.1 * level;
                e.totalSlowdown = 1.0 + 0.02 * level;
                e.l3MissPerUs =
                    (gen == GeneratorKind::MbGen ? 100.0 : 5.0) * level;
                profile.congestion.add(lang, gen, level, e);
            }
        }
    }
    for (GeneratorKind gen :
         {GeneratorKind::CtGen, GeneratorKind::MbGen}) {
        for (unsigned level : {2u, 8u, 14u}) {
            PerformanceEntry p;
            p.privSlowdown = 1.0 + 0.012 * level;
            p.sharedSlowdown = 1.0 + 0.09 * level;
            p.totalSlowdown = 1.0 + 0.025 * level;
            profile.performance.add(gen, level, p);
        }
    }
    // Awkward doubles on purpose: the round-trip must be bit-exact.
    profile.referenceSolo["gzip-py"] = {0.123456789012345678, 0.1 / 3};
    profile.referenceSolo["mst-go"] = {1.0 / 7, 2.0 / 9};
    return profile;
}

TEST(TableIo, V2RoundTripPreservesEverything)
{
    const CalibrationProfile profile = sampleProfile();

    std::stringstream stream;
    saveProfile(stream, profile);
    const CalibrationProfile loaded = loadProfile(stream);

    EXPECT_EQ(loaded.machine, "cascade-5218");

    for (Language lang : workload::allLanguages()) {
        const ProbeReading &a = profile.congestion.baseline(lang);
        const ProbeReading &b = loaded.congestion.baseline(lang);
        EXPECT_EQ(a.privCpi, b.privCpi);
        EXPECT_EQ(a.sharedCpi, b.sharedCpi);
        EXPECT_EQ(a.instructions, b.instructions);
        EXPECT_EQ(a.machineL3MissPerUs, b.machineL3MissPerUs);

        for (GeneratorKind gen :
             {GeneratorKind::CtGen, GeneratorKind::MbGen}) {
            EXPECT_EQ(profile.congestion.levels(lang, gen),
                      loaded.congestion.levels(lang, gen));
            EXPECT_EQ(profile.congestion.privSeries(lang, gen),
                      loaded.congestion.privSeries(lang, gen));
            EXPECT_EQ(profile.congestion.sharedSeries(lang, gen),
                      loaded.congestion.sharedSeries(lang, gen));
            EXPECT_EQ(profile.congestion.l3Series(lang, gen),
                      loaded.congestion.l3Series(lang, gen));
        }
    }
    for (GeneratorKind gen :
         {GeneratorKind::CtGen, GeneratorKind::MbGen}) {
        EXPECT_EQ(profile.performance.levels(gen),
                  loaded.performance.levels(gen));
        EXPECT_EQ(profile.performance.totalSeries(gen),
                  loaded.performance.totalSeries(gen));
    }

    // Solo baselines travel with the profile, bit-exactly.
    ASSERT_EQ(loaded.referenceSolo.size(), 2u);
    EXPECT_EQ(loaded.referenceSolo.at("gzip-py").privCpi,
              profile.referenceSolo.at("gzip-py").privCpi);
    EXPECT_EQ(loaded.referenceSolo.at("gzip-py").sharedCpi,
              profile.referenceSolo.at("gzip-py").sharedCpi);
    EXPECT_EQ(loaded.referenceSolo.at("mst-go").privCpi,
              profile.referenceSolo.at("mst-go").privCpi);
}

TEST(TableIo, LoadedProfileBuildsAnIdenticalModel)
{
    const CalibrationProfile profile = sampleProfile();
    std::stringstream stream;
    saveProfile(stream, profile);
    const CalibrationProfile loaded = loadProfile(stream);

    const DiscountModel original(profile);
    const DiscountModel reloaded(loaded);
    EXPECT_EQ(original.machine(), reloaded.machine());

    ProbeReading reading;
    reading.privCpi = 0.71 * 1.05;
    reading.sharedCpi = 0.19 * 1.4;
    reading.instructions = 45e6;
    reading.machineL3MissPerUs = 120.0;
    const auto a = original.estimate(reading, Language::Python);
    const auto b = reloaded.estimate(reading, Language::Python);
    EXPECT_EQ(a.rPrivate, b.rPrivate);
    EXPECT_EQ(a.rShared, b.rShared);
    EXPECT_EQ(a.blendWeight, b.blendWeight);
}

TEST(TableIo, FileRoundTrip)
{
    const CalibrationProfile profile = sampleProfile();
    const std::string path = "/tmp/litmus_test_tables.txt";
    saveProfile(path, profile);
    const CalibrationProfile loaded = loadProfile(path);
    EXPECT_EQ(loaded.machine, profile.machine);
    EXPECT_TRUE(loaded.performance.populated(GeneratorKind::MbGen));
}

TEST(TableIo, HandWrittenWithoutMachineLoadsAsWildcard)
{
    // A hand-built table: no machine, no solo records. It must parse,
    // carry an empty (wildcard) machine name, and hold the rows.
    std::string text = "litmus-tables v2\n";
    for (const char *lang : {"python", "nodejs", "go"}) {
        text += std::string("baseline ") + lang +
                " 0.7 0.2 45000000 2.5\n";
        for (const char *gen : {"ct", "mb"}) {
            text += std::string("congestion ") + lang + " " + gen +
                    " 2 1.02 1.2 1.04 10\n";
            text += std::string("congestion ") + lang + " " + gen +
                    " 8 1.08 1.8 1.16 40\n";
        }
    }
    for (const char *gen : {"ct", "mb"}) {
        text += std::string("performance ") + gen +
                " 2 1.024 1.18 1.05\n";
        text += std::string("performance ") + gen +
                " 8 1.096 1.72 1.2\n";
    }

    std::stringstream stream(text);
    const CalibrationProfile loaded = loadProfile(stream);
    EXPECT_TRUE(loaded.machine.empty());
    EXPECT_TRUE(loaded.referenceSolo.empty());
    EXPECT_EQ(loaded.congestion.levels(Language::Go,
                                       GeneratorKind::MbGen),
              (std::vector<double>{2, 8}));
    // Wildcard tables price any machine.
    EXPECT_NO_FATAL_FAILURE(loaded.requireMachine("icelake-4314"));
}

TEST(TableIo, BadHeaderFatal)
{
    std::stringstream stream("not-litmus v9\n");
    EXPECT_EXIT(loadProfile(stream), ::testing::ExitedWithCode(1),
                "bad header");
    std::stringstream v3("litmus-tables v3\n");
    EXPECT_EXIT(loadProfile(v3), ::testing::ExitedWithCode(1),
                "bad header");
    // The v1 format is retired: its header is rejected outright,
    // whatever records follow.
    std::stringstream v1(
        "litmus-tables v1\nbaseline go 0.7 0.2 45000000 2.5\n");
    EXPECT_EXIT(loadProfile(v1), ::testing::ExitedWithCode(1),
                "<stream>:1: bad header 'litmus-tables v1' \\(want "
                "litmus-tables v2\\)");
}

TEST(TableIo, TruncatedRowsFatal)
{
    std::stringstream congestion(
        "litmus-tables v2\ncongestion python ct 2 1.0\n");
    EXPECT_EXIT(loadProfile(congestion), ::testing::ExitedWithCode(1),
                "<stream>:2: malformed congestion row");
    std::stringstream baseline("litmus-tables v2\nbaseline go 0.7\n");
    EXPECT_EXIT(loadProfile(baseline), ::testing::ExitedWithCode(1),
                "<stream>:2: malformed baseline");
    std::stringstream solo("litmus-tables v2\nsolo gzip-py 0.5\n");
    EXPECT_EXIT(loadProfile(solo), ::testing::ExitedWithCode(1),
                "<stream>:2: malformed solo baseline");
    std::stringstream machine("litmus-tables v2\nmachine\n");
    EXPECT_EXIT(loadProfile(machine), ::testing::ExitedWithCode(1),
                "<stream>:2: malformed machine record");
    std::stringstream performance(
        "litmus-tables v2\nperformance mb 2 1.0 1.1\n");
    EXPECT_EXIT(loadProfile(performance),
                ::testing::ExitedWithCode(1),
                "<stream>:2: malformed performance row");
}

TEST(TableIo, GarbledFieldsFatal)
{
    // Numbers where tokens should be and vice versa.
    std::stringstream badLang(
        "litmus-tables v2\nbaseline fortran 0.7 0.2 45e6 2.5\n");
    EXPECT_EXIT(loadProfile(badLang), ::testing::ExitedWithCode(1),
                "unknown language");
    std::stringstream badGen(
        "litmus-tables v2\nperformance turbo 2 1.0 1.1 1.2\n");
    EXPECT_EXIT(loadProfile(badGen), ::testing::ExitedWithCode(1),
                "unknown generator");
    std::stringstream badNumber(
        "litmus-tables v2\n"
        "congestion python ct two 1.0 1.1 1.2 10\n");
    EXPECT_EXIT(loadProfile(badNumber), ::testing::ExitedWithCode(1),
                "malformed congestion row");
}

TEST(TableIo, UnknownRecordFatal)
{
    std::stringstream stream("litmus-tables v2\nwhatever 1 2 3\n");
    EXPECT_EXIT(loadProfile(stream), ::testing::ExitedWithCode(1),
                "unknown record");
}

TEST(TableIo, FileErrorsNameFileAndLine)
{
    const std::string path =
        ::testing::TempDir() + "litmus_bad_tables.txt";
    const auto write = [&path](const std::string &text) {
        std::ofstream(path) << text;
    };
    write("litmus-tables v2\nmachine cascade-5218\n\n"
          "baseline cobol 0.7 0.2 45e6 2.5\n");
    EXPECT_EXIT(loadProfile(path), ::testing::ExitedWithCode(1),
                "litmus_bad_tables\\.txt:4: unknown language 'cobol'");
    write("litmus-tables v2\nperformance turbo 2 1.0 1.1 1.2\n");
    EXPECT_EXIT(loadProfile(path), ::testing::ExitedWithCode(1),
                "litmus_bad_tables\\.txt:2: unknown generator 'turbo'");
    write("litmus-tables v2\nsolo gzip-py\n");
    EXPECT_EXIT(loadProfile(path), ::testing::ExitedWithCode(1),
                "litmus_bad_tables\\.txt:2: malformed solo baseline");
    write("litmus-tables v1\n");
    EXPECT_EXIT(loadProfile(path), ::testing::ExitedWithCode(1),
                "litmus_bad_tables\\.txt:1: bad header");
    write("");
    EXPECT_EXIT(loadProfile(path), ::testing::ExitedWithCode(1),
                "litmus_bad_tables\\.txt:1: bad header ''");
}

TEST(TableIo, MissingFileFatal)
{
    EXPECT_EXIT(loadProfile("/nonexistent/tables.txt"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(TableIo, ProfileMachineMismatchFatal)
{
    const CalibrationProfile profile = sampleProfile();
    EXPECT_NO_FATAL_FAILURE(profile.requireMachine("cascade-5218"));
    EXPECT_NO_FATAL_FAILURE(profile.requireMachine(""));
    EXPECT_EXIT(profile.requireMachine("icelake-4314"),
                ::testing::ExitedWithCode(1),
                "calibrated on 'cascade-5218'");

    const DiscountModel model(profile);
    EXPECT_EQ(model.machine(), "cascade-5218");
    EXPECT_EXIT(model.requireMachine("icelake-4314"),
                ::testing::ExitedWithCode(1),
                "calibrated on 'cascade-5218'");
}

} // namespace
} // namespace litmus::pricing
