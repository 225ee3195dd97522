/**
 * @file
 * Memory-dependence analysis and effect-summary tests: the alias
 * oracle's three verdicts on synthetic programs, golden diagnostics
 * for the "memdep" lint pass, per-run effect summaries of the
 * decoded image, the pin between the analysis-side worst-case log
 * byte bounds and the core-side exact arithmetic (core/logbytes.hh),
 * and -- the property the superblock gate's soundness rests on -- a
 * randomized sweep over all 21 registered workloads checking that
 * the bytes a fault-free decoded execution actually logs per run
 * instance never exceed the static tail bound, and that the static
 * load/store counts are exact.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/ai.hh"
#include "analysis/cfg.hh"
#include "analysis/effects.hh"
#include "analysis/linter.hh"
#include "analysis/memdep.hh"
#include "core/logbytes.hh"
#include "isa/builder.hh"
#include "isa/decoded.hh"
#include "isa/decoded_run.hh"
#include "isa/executor.hh"
#include "mem/memory.hh"
#include "sim/rng.hh"
#include "workloads/workload.hh"

namespace
{

using namespace paradox;
using namespace paradox::isa;
using namespace paradox::analysis;

constexpr XReg r0{0}, r1{1}, r2{2}, r3{3}, r4{4};

/** Count diagnostics in @p report with machine code @p code. */
std::size_t
countCode(const Report &report, const std::string &code)
{
    return std::size_t(std::count_if(
        report.diags.begin(), report.diags.end(),
        [&](const Diagnostic &d) { return d.code == code; }));
}

/** First diagnostic with @p code, or nullptr. */
const Diagnostic *
findCode(const Report &report, const std::string &code)
{
    for (const auto &d : report.diags)
        if (d.code == code)
            return &d;
    return nullptr;
}

/** The full static pipeline under one roof, kept alive together. */
struct Pipeline
{
    Program prog;
    Cfg cfg;
    std::vector<bool> reachable;
    IntervalAnalysis ai;
    Options opts;
    MemDep md;

    explicit Pipeline(Program p)
        : prog(std::move(p)), cfg(Cfg::build(prog)),
          reachable(cfg.reachableBlocks()),
          ai(IntervalAnalysis::run(prog, cfg, reachable)),
          md(MemDep::run(Context{prog, cfg, reachable, opts}, ai))
    {
    }

    /** The access descriptor at instruction index @p idx. */
    const MemAccess &
    at(std::size_t idx) const
    {
        for (const auto &a : md.accesses())
            if (a.index == idx)
                return a;
        ADD_FAILURE() << "no access at index " << idx;
        static MemAccess none;
        return none;
    }
};

// ---------------------------------------------------------------------
// Alias oracle
// ---------------------------------------------------------------------

TEST(MemDepOracle, ConstantAddressesSeparateAndCoincide)
{
    ProgramBuilder b("const-alias");
    b.footprint(0x1000, 64, "buf");
    b.ldi(r1, 0x1000);
    b.ld(r2, r1, 0);   // 1: [0x1000, 0x1008)
    b.ld(r3, r1, 8);   // 2: [0x1008, 0x1010)
    b.ld(r4, r1, 0);   // 3: [0x1000, 0x1008)
    b.halt();
    const Pipeline p(b.build());
    ASSERT_EQ(p.md.accesses().size(), 3u);
    EXPECT_EQ(p.md.alias(p.at(1), p.at(2)), AliasKind::NoAlias);
    EXPECT_EQ(p.md.alias(p.at(1), p.at(3)), AliasKind::MustAlias);
    EXPECT_EQ(p.md.alias(p.at(2), p.at(3)), AliasKind::NoAlias);
}

TEST(MemDepOracle, SymbolicBaseUsesDisplacements)
{
    // r1 is loaded from memory, so its interval is unbounded: only
    // the block-local symbolic base (same register, same definition)
    // can prove anything about these pairs.
    ProgramBuilder b("sym-alias");
    b.footprint(0x1000, 64, "buf");
    b.ldi(r1, 0x1000);
    b.ld(r1, r1, 16);  // 1: r1 := unknown
    b.ld(r2, r1, 0);   // 2
    b.ld(r3, r1, 8);   // 3: disjoint displacement vs 2
    b.ld(r4, r1, 0);   // 4: same displacement and size as 2
    b.sb(r2, r1, 0);   // 5: 1 byte inside 2's extent
    b.halt();
    const Pipeline p(b.build());
    EXPECT_EQ(p.md.alias(p.at(2), p.at(3)), AliasKind::NoAlias);
    EXPECT_EQ(p.md.alias(p.at(2), p.at(4)), AliasKind::MustAlias);
    EXPECT_EQ(p.md.alias(p.at(2), p.at(5)), AliasKind::MustAlias);
    EXPECT_EQ(p.md.alias(p.at(3), p.at(5)), AliasKind::NoAlias);
}

TEST(MemDepOracle, RedefinedBaseDemotesToMay)
{
    // After r1 is redefined the two accesses share neither a symbolic
    // base epoch nor a bounded interval: nothing is provable.
    ProgramBuilder b("epoch-alias");
    b.footprint(0x1000, 64, "buf");
    b.ldi(r1, 0x1000);
    b.ld(r1, r1, 16);  // 1: r1 := unknown
    b.ld(r2, r1, 0);   // 2
    b.addi(r1, r1, 8); // new epoch for r1
    b.ld(r3, r1, 0);   // 4
    b.halt();
    const Pipeline p(b.build());
    EXPECT_EQ(p.md.alias(p.at(2), p.at(4)), AliasKind::MayAlias);
}

TEST(MemDepOracle, PairCountsCensusMatchesVerdicts)
{
    ProgramBuilder b("census");
    b.footprint(0x1000, 64, "buf");
    b.ldi(r1, 0x1000);
    b.ld(r2, r1, 0);
    b.ld(r3, r1, 8);
    b.ld(r4, r1, 0);
    b.halt();
    const Pipeline p(b.build());
    const MemDep::PairCounts pc = p.md.pairCounts();
    EXPECT_EQ(pc.no, 2u);
    EXPECT_EQ(pc.may, 0u);
    EXPECT_EQ(pc.must, 1u);
}

// ---------------------------------------------------------------------
// Golden lint diagnostics
// ---------------------------------------------------------------------

TEST(MemDepLint, RedundantLoadIsInfo)
{
    ProgramBuilder b("redundant");
    b.footprint(0x1000, 64, "buf");
    b.ldi(r1, 0x1000);
    b.ld(r2, r1, 0);
    b.ld(r3, r1, 0);
    b.add(r2, r2, r3);
    b.sd(r2, r1, 8);
    b.halt();
    const Report report = Linter().lint(b.build());
    ASSERT_EQ(countCode(report, "redundant-load"), 1u)
        << report.toText();
    const Diagnostic *d = findCode(report, "redundant-load");
    EXPECT_EQ(d->severity, Severity::Info);
    EXPECT_EQ(d->pass, "memdep");
    EXPECT_EQ(d->index, 2u);
}

TEST(MemDepLint, InterveningStoreBlocksRedundantLoad)
{
    ProgramBuilder b("not-redundant");
    b.footprint(0x1000, 64, "buf");
    b.ldi(r1, 0x1000);
    b.ld(r2, r1, 0);
    b.sd(r0, r1, 0);   // clobbers the loaded bytes
    b.ld(r3, r1, 0);
    b.add(r2, r2, r3);
    b.sd(r2, r1, 8);
    b.halt();
    const Report report = Linter().lint(b.build());
    EXPECT_EQ(countCode(report, "redundant-load"), 0u)
        << report.toText();
}

TEST(MemDepLint, DeadMemoryStoreIsWarning)
{
    ProgramBuilder b("dead-store");
    b.footprint(0x1000, 64, "buf");
    b.ldi(r1, 0x1000);
    b.ldi(r2, 7);
    b.sd(r2, r1, 0);   // 2: fully overwritten below, never read
    b.sd(r0, r1, 0);
    b.halt();
    const Report report = Linter().lint(b.build());
    ASSERT_EQ(countCode(report, "dead-memory-store"), 1u)
        << report.toText();
    const Diagnostic *d = findCode(report, "dead-memory-store");
    EXPECT_EQ(d->severity, Severity::Warning);
    EXPECT_EQ(d->pass, "memdep");
    EXPECT_EQ(d->index, 2u);
}

TEST(MemDepLint, InterveningLoadKeepsStoreLive)
{
    ProgramBuilder b("live-store");
    b.footprint(0x1000, 64, "buf");
    b.ldi(r1, 0x1000);
    b.ldi(r2, 7);
    b.sd(r2, r1, 0);
    b.ld(r3, r1, 0);   // reads the stored bytes first
    b.sd(r3, r1, 0);
    b.halt();
    const Report report = Linter().lint(b.build());
    EXPECT_EQ(countCode(report, "dead-memory-store"), 0u)
        << report.toText();
}

TEST(MemDepLint, MixedGranularityOverlapIsWarning)
{
    ProgramBuilder b("mixed");
    b.footprint(0x1000, 64, "buf");
    b.ldi(r1, 0x1000);
    b.ldi(r2, 7);
    b.sd(r2, r1, 0);   // 8 bytes ...
    b.sb(r2, r1, 0);   // ... then 1 byte inside them
    b.halt();
    const Report report = Linter().lint(b.build());
    ASSERT_EQ(countCode(report, "always-overlapping-access"), 1u)
        << report.toText();
    const Diagnostic *d =
        findCode(report, "always-overlapping-access");
    EXPECT_EQ(d->severity, Severity::Warning);
    EXPECT_EQ(d->pass, "memdep");
}

TEST(MemDepLint, AllWorkloadsStayWerrorCleanWithMemdep)
{
    // The ctest gate isa_lint_memdep runs `isa_lint --all --memdep
    // --Werror`: no registered workload may produce a memdep warning.
    const Linter linter;
    for (const auto &name : workloads::allNames()) {
        const workloads::Workload w = workloads::build(name, 1);
        const Report report = linter.lint(w.program);
        for (const auto &d : report.diags) {
            if (d.pass == "memdep") {
                EXPECT_EQ(d.severity, Severity::Info)
                    << name << ": " << d.toString();
            }
        }
    }
}

// ---------------------------------------------------------------------
// Effect summaries
// ---------------------------------------------------------------------

TEST(EffectSummary, StraightLineRunBounds)
{
    ProgramBuilder b("straight");
    b.footprint(0x1000, 64, "buf");
    b.ldi(r1, 0x1000);
    b.ld(r2, r1, 0);
    b.sd(r2, r1, 8);
    b.halt();
    const Program prog = b.build();
    const auto dp = DecodedProgram::get(prog);
    const EffectParams p;  // 16/16/8/80, 64-byte lines, ParaDox mode
    const EffectSummary es = EffectSummary::build(*dp, p);

    ASSERT_EQ(es.runs().size(), 1u);
    const RunSummary &rs = es.runs()[0];
    EXPECT_EQ(rs.start, 0u);
    EXPECT_EQ(rs.len, 4u);
    EXPECT_EQ(rs.loads, 1u);
    EXPECT_EQ(rs.stores, 1u);
    // load entry + (store entry + two line copies): 16 + 176.
    EXPECT_EQ(rs.logBoundBytes, 192u);
    EXPECT_EQ(es.tailBound(0), 192u);
    EXPECT_EQ(es.tailBound(1), 192u);
    EXPECT_EQ(es.tailBound(2), 176u);
    EXPECT_EQ(es.tailBound(3), 0u);
    EXPECT_EQ(es.uopBound(1), 16u);
    EXPECT_EQ(es.uopBound(2), 176u);
    EXPECT_EQ(es.maxRunBytes(), 192u);
    EXPECT_EQ(es.maxUopBytes(), 176u);
    EXPECT_EQ(es.staticLoads(), 1u);
    EXPECT_EQ(es.staticStores(), 1u);
    EXPECT_EQ(es.decodedUops(), dp->size());
    EXPECT_EQ(es.decodedHash(), dp->contentHash());
}

TEST(EffectSummary, RunsPartitionTheImage)
{
    ProgramBuilder b("loop");
    b.footprint(0x1000, 64, "buf");
    b.ldi(r1, 0x1000);
    b.ldi(r2, 4);
    b.label("top");
    b.ld(r3, r1, 0);
    b.sd(r3, r1, 8);
    b.addi(r2, r2, -1);
    b.bne(r2, r0, "top");
    b.halt();
    const Program prog = b.build();
    const auto dp = DecodedProgram::get(prog);
    const EffectSummary es = EffectSummary::build(*dp, EffectParams{});

    // Runs tile [0, size) exactly once each.
    std::uint64_t covered = 0, loads = 0, stores = 0;
    for (const RunSummary &rs : es.runs()) {
        EXPECT_EQ(rs.start, covered);
        covered += rs.len;
        loads += rs.loads;
        stores += rs.stores;
    }
    EXPECT_EQ(covered, dp->size());
    EXPECT_EQ(loads, es.staticLoads());
    EXPECT_EQ(stores, es.staticStores());
    // The mid-run tail bound is the run bound minus the prefix.
    EXPECT_EQ(es.tailBound(2), es.runs()[0].logBoundBytes);
    EXPECT_EQ(es.tailBound(3),
              es.runs()[0].logBoundBytes - es.uopBound(2));
}

// ---------------------------------------------------------------------
// Shared log-byte arithmetic (core/logbytes.hh vs analysis bounds)
// ---------------------------------------------------------------------

/** The three rollback shapes a SystemConfig can take. */
std::vector<EffectParams>
paramShapes()
{
    std::vector<EffectParams> shapes;
    EffectParams line;  // ParaDox: line-granularity rollback
    shapes.push_back(line);
    EffectParams word = line;  // word-granularity undo log
    word.lineGranularityRollback = false;
    shapes.push_back(word);
    EffectParams detect = word;  // DetectionOnly: no rollback data
    detect.rollbackSupported = false;
    shapes.push_back(detect);
    return shapes;
}

TEST(LogBytes, StaticStoreBoundIsExactWorstCaseOverAlignments)
{
    for (EffectParams p : paramShapes()) {
        for (unsigned lineBytes : {8u, 16u, 64u, 128u}) {
            p.lineBytes = lineBytes;
            for (unsigned size : {1u, 2u, 4u, 8u}) {
                std::size_t brute = 0;
                for (std::uint64_t align = 0; align < lineBytes;
                     ++align)
                    brute = std::max(
                        brute,
                        core::storeLogBytes(
                            p, 0x10000 + align, size,
                            [](std::uint64_t) { return false; }));
                // The static bound is sound AND tight: the exact
                // cost with no line copied yet reaches it at the
                // worst alignment and never exceeds it.
                EXPECT_EQ(brute, storeLogBound(size, p))
                    << "line=" << lineBytes << " size=" << size
                    << " lineGran=" << p.lineGranularityRollback
                    << " rollback=" << p.rollbackSupported;
            }
        }
    }
}

TEST(LogBytes, WorstUopBoundMatchesLegacyGateFormula)
{
    for (EffectParams p : paramShapes()) {
        for (unsigned lineBytes : {8u, 16u, 64u, 128u}) {
            p.lineBytes = lineBytes;
            // The formula the pre-effect-summary superblock gate
            // inlined: max(load entry, store entry + two line copies
            // | + old value | nothing).
            std::size_t store_worst = p.storeEntryBytes;
            if (p.lineGranularityRollback)
                store_worst += 2 * std::size_t(p.lineCopyBytes);
            else if (p.rollbackSupported)
                store_worst += p.storeOldValueBytes;
            const std::size_t legacy =
                std::max<std::size_t>(p.loadEntryBytes, store_worst);
            EXPECT_EQ(core::worstUopLogBytes(p), legacy)
                << "line=" << lineBytes;
        }
    }
}

TEST(LogBytes, EffectParamsMirrorSystemConfig)
{
    const core::SystemConfig cfg =
        core::SystemConfig::forMode(core::Mode::ParaDox);
    const EffectParams p = core::logEffectParams(cfg, 64);
    EXPECT_EQ(p.loadEntryBytes, cfg.log.loadEntryBytes);
    EXPECT_EQ(p.storeEntryBytes, cfg.log.storeEntryBytes);
    EXPECT_EQ(p.storeOldValueBytes, cfg.log.storeOldValueBytes);
    EXPECT_EQ(p.lineCopyBytes, cfg.log.lineCopyBytes);
    EXPECT_EQ(p.lineBytes, 64u);
    EXPECT_EQ(p.lineGranularityRollback, cfg.lineGranularityRollback);
    EXPECT_EQ(p.rollbackSupported, cfg.rollbackSupported);
}

// ---------------------------------------------------------------------
// Property: dynamic log bytes never exceed the static bounds
// ---------------------------------------------------------------------

/** One committed load/store of a recorded run instance. */
struct MemEv
{
    bool isStore;
    Addr addr;
    unsigned size;
};

/** One dynamic run instance: a straight-line stretch of commits. */
struct Instance
{
    std::uint32_t start = 0;      //!< first committed micro-op index
    std::uint32_t committed = 0;  //!< micro-ops committed in it
    std::vector<MemEv> mems;
};

/** Execute @p w fault-free and slice the commits into run instances. */
std::vector<Instance>
recordInstances(const workloads::Workload &w, std::uint64_t maxUops)
{
    const auto dp = DecodedProgram::get(w.program);
    ArchState state;
    mem::SimpleMemory memory;
    loadProgram(w.program, state, memory);

    std::vector<Instance> out;
    bool atStart = true;
    std::uint64_t total = 0;
    runDecoded(*dp, state, memory, maxUops,
               [&](const CommitRecord &r) {
                   const std::uint32_t idx =
                       std::uint32_t(r.pc / instBytes);
                   if (atStart) {
                       out.push_back(Instance{idx, 0, {}});
                       atStart = false;
                   }
                   Instance &cur = out.back();
                   ++cur.committed;
                   if (r.isLoad || r.isStore)
                       cur.mems.push_back(
                           MemEv{r.isStore, r.memAddr, r.memSize});
                   if (dp->at(idx).runLen == 1)
                       atStart = true;  // control transfer or HALT
                   ++total;
                   return !r.halted && total < maxUops;
               });
    return out;
}

/**
 * Check every recorded instance against the effect summary built
 * with @p p: the exact bytes the instance logs (no line copied yet
 * at instance entry -- the worst checkpoint state) never exceed the
 * static tail bound of its first micro-op, and a full execution of
 * a static run commits exactly the counted loads and stores.
 */
void
checkInstances(const std::string &name, const DecodedProgram &dp,
               const EffectParams &p,
               const std::vector<Instance> &instances)
{
    const EffectSummary es = EffectSummary::build(dp, p);
    std::map<std::uint32_t, const RunSummary *> byStart;
    for (const RunSummary &rs : es.runs())
        byStart[rs.start] = &rs;

    std::uint64_t checked = 0;
    for (const Instance &in : instances) {
        std::set<std::uint64_t> copied;
        std::uint64_t actual = 0, loads = 0, stores = 0;
        for (const MemEv &ev : in.mems) {
            if (ev.isStore) {
                actual += core::storeLogBytes(
                    p, ev.addr, ev.size, [&](std::uint64_t line) {
                        return copied.count(line) != 0;
                    });
                if (p.lineGranularityRollback) {
                    const std::uint64_t lb = p.lineBytes;
                    const std::uint64_t first = ev.addr & ~(lb - 1);
                    const std::uint64_t last =
                        (ev.addr + ev.size - 1) & ~(lb - 1);
                    for (std::uint64_t l = first; l <= last; l += lb)
                        copied.insert(l);
                }
                ++stores;
            } else {
                actual += p.loadEntryBytes;
                ++loads;
            }
        }
        const std::uint64_t bound = es.tailBound(in.start);
        if (actual > bound) {
            ADD_FAILURE()
                << name << ": instance at uop " << in.start
                << " logged " << actual << " bytes > static bound "
                << bound;
            return;
        }
        const auto it = byStart.find(in.start);
        if (it != byStart.end() && in.committed == it->second->len) {
            EXPECT_EQ(loads, it->second->loads)
                << name << ": run at " << in.start;
            EXPECT_EQ(stores, it->second->stores)
                << name << ": run at " << in.start;
        }
        ++checked;
    }
    EXPECT_GT(checked, 0u) << name;
}

TEST(MemDepProperty, DynamicBytesNeverExceedStaticBounds)
{
    // Fixed seed: the randomized part is the log geometry, drawn
    // once per workload on top of the production shape.
    Rng rng(0x3e3d3e9ULL);
    for (const auto &name : workloads::allNames()) {
        const workloads::Workload w = workloads::build(name, 1);
        const auto dp = DecodedProgram::get(w.program);
        const std::vector<Instance> instances =
            recordInstances(w, 120000);

        // Static census: the summary counts every load/store uop.
        std::uint64_t loads = 0, stores = 0;
        for (const MicroOp &u : dp->uops()) {
            loads += u.isLoad ? 1 : 0;
            stores += u.isStore ? 1 : 0;
        }
        const EffectSummary prod =
            EffectSummary::build(*dp, EffectParams{});
        EXPECT_EQ(prod.staticLoads(), loads) << name;
        EXPECT_EQ(prod.staticStores(), stores) << name;

        // Production geometry, then a randomized one.
        checkInstances(name, *dp, EffectParams{}, instances);

        EffectParams fuzz;
        fuzz.loadEntryBytes = 8 + unsigned(rng.nextBounded(25));
        fuzz.storeEntryBytes = 8 + unsigned(rng.nextBounded(25));
        fuzz.storeOldValueBytes = 4 + unsigned(rng.nextBounded(13));
        fuzz.lineCopyBytes = 16 + unsigned(rng.nextBounded(113));
        fuzz.lineBytes = 1u << (3 + rng.nextBounded(5));  // 8..128
        fuzz.lineGranularityRollback = rng.chance(0.7);
        fuzz.rollbackSupported = rng.chance(0.8);
        checkInstances(name, *dp, fuzz, instances);
    }
}

} // namespace
