#include "analysis/linter.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

#include "analysis/ai.hh"
#include "analysis/cfg.hh"
#include "analysis/memdep.hh"
#include "analysis/vuln.hh"

namespace paradox
{
namespace analysis
{

Report
Linter::lint(const isa::Program &prog) const
{
    Report report;
    report.program = prog.name();
    report.instructions = prog.size();

    if (prog.size() == 0) {
        report.diags.push_back(
            {Severity::Error, "cfg", "empty-program",
             Diagnostic::noIndex, "", "",
             "program contains no instructions"});
        return report;
    }

    // Problems the ProgramBuilder recorded but did not reject.
    for (const std::string &w : prog.buildWarnings())
        report.diags.push_back({Severity::Warning, "build",
                                "overlapping-regions",
                                Diagnostic::noIndex, "", "", w});

    auto timed = [&](const char *name, auto &&fn) {
        const auto t0 = std::chrono::steady_clock::now();
        const std::size_t before = report.diags.size();
        fn();
        const auto us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
        report.passes.push_back({name,
                                 report.diags.size() - before,
                                 std::uint64_t(us)});
    };

    Cfg cfg;
    timed("cfg", [&] { cfg = Cfg::build(prog, &report.diags); });
    report.blocks = cfg.blocks().size();
    const std::vector<bool> reachable = cfg.reachableBlocks();

    const Context ctx{prog, cfg, reachable, opts_};
    timed("reach", [&] { checkReachability(ctx, report.diags); });
    timed("dataflow", [&] { checkDataflow(ctx, report.diags); });
    timed("decoded", [&] { checkDecoded(ctx, report.diags); });

    // The interval facts feed the range checks, memdep, the
    // termination exemption for bounded loops and the vulnerability
    // pruning; a fixpoint that hit its sweep cap feeds none of them.
    IntervalAnalysis ai;
    timed("ranges", [&] {
        ai = IntervalAnalysis::run(prog, cfg, reachable);
        if (!ai.converged())
            report.diags.push_back(
                {Severity::Warning, "ranges", "no-fixpoint",
                 Diagnostic::noIndex, "", "",
                 "interval analysis hit its sweep cap without "
                 "converging; range diagnostics and trip bounds "
                 "were skipped"});
        else
            checkRanges(ctx, ai, report.diags);
    });
    const IntervalAnalysis *facts = ai.converged() ? &ai : nullptr;

    timed("memdep", [&] {
        if (facts)
            checkMemDep(ctx, *facts, report.diags);
    });
    timed("termination",
          [&] { checkTermination(ctx, report.diags, facts); });
    timed("vuln", [&] {
        VulnOptions vo;
        vo.extraRegions = opts_.extraRegions;
        vo.intervals = facts;
        const VulnAnalysis va =
            VulnAnalysis::run(prog, cfg, reachable, vo);
        const VulnAnalysis::Stats &st = va.stats();
        std::ostringstream msg;
        msg << "vulnerability: " << st.regBitsLive << "/"
            << st.regBitsTotal << " register bits live-into-output";
        char pct[16];
        std::snprintf(pct, sizeof pct, " (%.1f%%)",
                      100.0 * st.liveFraction);
        msg << pct << ", " << st.prunedEdges
            << " interval-pruned edge(s)";
        if (st.footprintAnalyzed)
            msg << ", " << st.footprintLiveAtEntry << "/"
                << st.footprintBytes
                << " footprint bytes live at entry";
        report.diags.push_back({Severity::Info, "vuln",
                                "live-bit-summary",
                                Diagnostic::noIndex, "", "",
                                msg.str()});
    });

    // Resolve source locations: nearest label and disassembly.
    for (auto &d : report.diags) {
        if (d.index == Diagnostic::noIndex || d.index >= prog.size())
            continue;
        d.context = prog.labelAt(d.index);
        d.inst = prog.code()[d.index].toString();
    }

    // Stable order: by instruction, then severity (worst first).
    // Nothing needs collapsing: every pass reports a (pass, code,
    // instruction) at most once, except dataflow, whose def-before-use
    // and maybe-uninit come once per operand register and name
    // different registers.
    std::stable_sort(
        report.diags.begin(), report.diags.end(),
        [](const Diagnostic &a, const Diagnostic &b) {
            if (a.index != b.index)
                return a.index < b.index;
            return static_cast<int>(a.severity) >
                   static_cast<int>(b.severity);
        });
    return report;
}

std::string
Report::toText(bool withStats) const
{
    std::ostringstream os;
    os << "program '" << program << "': " << instructions
       << " instructions, " << blocks << " blocks, " << errors()
       << " error(s), " << warnings() << " warning(s)\n";
    for (const auto &d : diags)
        os << "  " << d.toString() << "\n";
    if (withStats) {
        os << "  pass stats:\n";
        for (const auto &p : passes)
            os << "    " << p.name << ": " << p.diagnostics
               << " diagnostic(s), " << p.micros << " us\n";
    }
    return os.str();
}

std::string
Report::toJson() const
{
    std::ostringstream os;
    os << "{\"schema\":\"" << schema << "\""
       << ",\"program\":\"" << jsonEscape(program) << "\""
       << ",\"instructions\":" << instructions
       << ",\"blocks\":" << blocks
       << ",\"errors\":" << errors()
       << ",\"warnings\":" << warnings()
       << ",\"infos\":" << countSeverity(diags, Severity::Info)
       << ",\"passes\":[";
    for (std::size_t i = 0; i < passes.size(); ++i) {
        if (i)
            os << ",";
        os << "{\"name\":\"" << jsonEscape(passes[i].name)
           << "\",\"diagnostics\":" << passes[i].diagnostics
           << ",\"micros\":" << passes[i].micros << "}";
    }
    os << "],\"diagnostics\":[";
    for (std::size_t i = 0; i < diags.size(); ++i) {
        if (i)
            os << ",";
        os << diags[i].toJson();
    }
    os << "]}";
    return os.str();
}

} // namespace analysis
} // namespace paradox
