#include "core/table_io.h"

#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>
#include <utility>

#include "common/logging.h"

namespace litmus::pricing
{

namespace
{

using workload::GeneratorKind;
using workload::Language;

const char *
langToken(Language lang)
{
    return lang == Language::Python
               ? "python"
               : (lang == Language::NodeJs ? "nodejs" : "go");
}

const char *
genToken(GeneratorKind gen)
{
    return gen == GeneratorKind::CtGen ? "ct" : "mb";
}

/** Where a profile parse stands, so every error names `source:line`. */
struct ProfileCursor
{
    std::string source;
    int lineNo = 1;

    template <typename... Args>
    [[noreturn]] void fail(Args &&...args) const
    {
        fatal("loadProfile: ", source, ":", lineNo, ": ",
              std::forward<Args>(args)...);
    }

    Language lang(const std::string &token) const
    {
        if (token == "python")
            return Language::Python;
        if (token == "nodejs")
            return Language::NodeJs;
        if (token == "go")
            return Language::Go;
        fail("unknown language '", token, "'");
    }

    GeneratorKind gen(const std::string &token) const
    {
        if (token == "ct")
            return GeneratorKind::CtGen;
        if (token == "mb")
            return GeneratorKind::MbGen;
        fail("unknown generator '", token, "'");
    }
};

} // namespace

void
saveProfile(std::ostream &os, const CalibrationProfile &profile)
{
    os << "litmus-tables v2\n";
    // max_digits10: a decimal round-trip reproduces the exact double,
    // so a reloaded profile prices bit-identically.
    os << std::setprecision(17);

    if (!profile.machine.empty()) {
        // The record is whitespace-tokenized on load; a name with
        // spaces would silently truncate there, so refuse it here.
        if (profile.machine.find_first_of(" \t\n\r") !=
            std::string::npos)
            fatal("saveProfile: machine name '", profile.machine,
                  "' contains whitespace and would not round-trip");
        os << "machine " << profile.machine << '\n';
    }

    const CongestionTable &congestion = profile.congestion;
    const PerformanceTable &performance = profile.performance;

    for (Language lang : workload::allLanguages()) {
        const ProbeReading &base = congestion.baseline(lang);
        os << "baseline " << langToken(lang) << ' ' << base.privCpi
           << ' ' << base.sharedCpi << ' ' << base.instructions << ' '
           << base.machineL3MissPerUs << '\n';
    }

    for (const auto &[name, solo] : profile.referenceSolo) {
        os << "solo " << name << ' ' << solo.privCpi << ' '
           << solo.sharedCpi << '\n';
    }

    for (Language lang : workload::allLanguages()) {
        for (GeneratorKind gen :
             {GeneratorKind::CtGen, GeneratorKind::MbGen}) {
            const auto &levels = congestion.levels(lang, gen);
            const auto &priv = congestion.privSeries(lang, gen);
            const auto &shared = congestion.sharedSeries(lang, gen);
            const auto &total = congestion.totalSeries(lang, gen);
            const auto &l3 = congestion.l3Series(lang, gen);
            for (std::size_t i = 0; i < levels.size(); ++i) {
                os << "congestion " << langToken(lang) << ' '
                   << genToken(gen) << ' ' << levels[i] << ' '
                   << priv[i] << ' ' << shared[i] << ' ' << total[i]
                   << ' ' << l3[i] << '\n';
            }
        }
    }

    for (GeneratorKind gen :
         {GeneratorKind::CtGen, GeneratorKind::MbGen}) {
        const auto &levels = performance.levels(gen);
        const auto &priv = performance.privSeries(gen);
        const auto &shared = performance.sharedSeries(gen);
        const auto &total = performance.totalSeries(gen);
        for (std::size_t i = 0; i < levels.size(); ++i) {
            os << "performance " << genToken(gen) << ' ' << levels[i]
               << ' ' << priv[i] << ' ' << shared[i] << ' ' << total[i]
               << '\n';
        }
    }
}

void
saveProfile(const std::string &path, const CalibrationProfile &profile)
{
    std::ofstream out(path);
    if (!out)
        fatal("saveProfile: cannot write '", path, "'");
    saveProfile(out, profile);
}

CalibrationProfile
loadProfile(std::istream &is, const std::string &source)
{
    ProfileCursor at{source.empty() ? "<stream>" : source};
    std::string header;
    if (!std::getline(is, header) || header != "litmus-tables v2")
        at.fail("bad header '", header, "' (want litmus-tables v2)");

    CalibrationProfile out;
    std::string line;
    while (std::getline(is, line)) {
        ++at.lineNo;
        if (line.empty())
            continue;
        std::istringstream fields(line);
        std::string kind;
        fields >> kind;
        if (kind == "machine") {
            fields >> out.machine;
            if (!fields || out.machine.empty())
                at.fail("malformed machine record");
        } else if (kind == "baseline") {
            std::string lang;
            ProbeReading base;
            fields >> lang >> base.privCpi >> base.sharedCpi >>
                base.instructions >> base.machineL3MissPerUs;
            if (!fields)
                at.fail("malformed baseline");
            out.congestion.setBaseline(at.lang(lang), base);
        } else if (kind == "solo") {
            std::string name;
            SoloBaseline solo;
            fields >> name >> solo.privCpi >> solo.sharedCpi;
            if (!fields)
                at.fail("malformed solo baseline");
            out.referenceSolo[name] = solo;
        } else if (kind == "congestion") {
            std::string lang, gen;
            double level;
            CongestionEntry entry;
            fields >> lang >> gen >> level >> entry.privSlowdown >>
                entry.sharedSlowdown >> entry.totalSlowdown >>
                entry.l3MissPerUs;
            if (!fields)
                at.fail("malformed congestion row");
            out.congestion.add(at.lang(lang), at.gen(gen),
                               static_cast<unsigned>(level), entry);
        } else if (kind == "performance") {
            std::string gen;
            double level;
            PerformanceEntry entry;
            fields >> gen >> level >> entry.privSlowdown >>
                entry.sharedSlowdown >> entry.totalSlowdown;
            if (!fields)
                at.fail("malformed performance row");
            out.performance.add(at.gen(gen),
                                static_cast<unsigned>(level), entry);
        } else {
            at.fail("unknown record '", kind, "'");
        }
    }
    return out;
}

CalibrationProfile
loadProfile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("loadProfile: cannot open '", path, "'");
    return loadProfile(in, path);
}

} // namespace litmus::pricing
