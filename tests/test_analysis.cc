/**
 * @file
 * Static-analysis tests: CFG construction, the dataflow / range /
 * footprint / termination passes on tiny synthetic programs
 * (including known-bad programs that must produce specific
 * diagnostics), the hardened ProgramBuilder error aggregation, the
 * JSON report shape, and --
 * the gate the subsystem exists for -- a clean lint of all 21
 * registered workloads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/ai.hh"
#include "analysis/cfg.hh"
#include "analysis/interval.hh"
#include "analysis/linter.hh"
#include "analysis/regmodel.hh"
#include "isa/builder.hh"
#include "isa_oracle.hh"
#include "mem/memory.hh"
#include "workloads/workload.hh"

namespace
{

using namespace paradox;
using namespace paradox::isa;
using namespace paradox::analysis;

constexpr XReg r0{0}, r1{1}, r2{2}, r3{3}, r4{4};
constexpr FReg d1{1}, d2{2};

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

// ---------------------------------------------------------------------
// CFG construction
// ---------------------------------------------------------------------

TEST(Cfg, StraightLineIsOneBlock)
{
    ProgramBuilder b("straight");
    b.ldi(r1, 1);
    b.addi(r1, r1, 1);
    b.halt();
    const Cfg cfg = Cfg::build(b.build());
    ASSERT_EQ(cfg.blocks().size(), 1u);
    EXPECT_EQ(cfg.blocks()[0].first, 0u);
    EXPECT_EQ(cfg.blocks()[0].last, 2u);
    EXPECT_TRUE(cfg.blocks()[0].succs.empty());
}

TEST(Cfg, LoopSplitsBlocksAndRecoverEdges)
{
    ProgramBuilder b("loop");
    b.ldi(r1, 10);              // 0            block 0
    b.label("top");
    b.addi(r1, r1, -1);         // 1            block 1
    b.bne(r1, r0, "top");       // 2
    b.halt();                   // 3            block 2
    const Cfg cfg = Cfg::build(b.build());
    ASSERT_EQ(cfg.blocks().size(), 3u);

    // block 0 -> block 1; block 1 -> {1, 2}; block 2 exits.
    EXPECT_EQ(cfg.blocks()[0].succs, (std::vector<std::size_t>{1}));
    EXPECT_EQ(cfg.blocks()[1].succs, (std::vector<std::size_t>{1, 2}));
    EXPECT_TRUE(cfg.blocks()[2].succs.empty());
    EXPECT_EQ(cfg.blockOf(2), 1u);
    // Predecessors mirror the successors.
    EXPECT_EQ(cfg.blocks()[1].preds.size(), 2u);
}

TEST(Cfg, LabelsSplitBlocksForDiagnostics)
{
    ProgramBuilder b("labels");
    b.ldi(r1, 1);
    b.label("mid");             // label alone splits the block
    b.addi(r1, r1, 1);
    b.halt();
    const Cfg cfg = Cfg::build(b.build());
    ASSERT_EQ(cfg.blocks().size(), 2u);
    EXPECT_EQ(cfg.blocks()[0].succs, (std::vector<std::size_t>{1}));
}

TEST(Cfg, FallthroughOffEndIsAnError)
{
    ProgramBuilder b("felloff");
    b.ldi(r1, 1);
    b.addi(r1, r1, 1);          // last instruction is not a halt
    std::vector<Diagnostic> diags;
    Cfg::build(b.build(), &diags);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].code, "fall-off-end");
    EXPECT_EQ(diags[0].severity, Severity::Error);
}

// ---------------------------------------------------------------------
// Reachability
// ---------------------------------------------------------------------

TEST(Reachability, UnreachableBlockIsReported)
{
    ProgramBuilder b("unreach");
    b.ldi(r1, 1);
    b.j("end");
    b.label("orphan");
    b.addi(r1, r1, 1);          // skipped by the jump, no way in
    b.label("end");
    b.halt();
    const Report report = Linter().lint(b.build());
    const Diagnostic *d = findCode(report, "unreachable-block");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::Warning);
    EXPECT_EQ(d->context, "orphan");
}

TEST(Reachability, MissingHaltIsAnError)
{
    ProgramBuilder b("nohalt");
    b.label("spin");
    b.j("spin");                // spins forever, halt unreachable
    b.halt();
    const Report report = Linter().lint(b.build());
    EXPECT_NE(findCode(report, "no-halt"), nullptr);
    EXPECT_NE(findCode(report, "unreachable-block"), nullptr);
    EXPECT_NE(findCode(report, "infinite-loop"), nullptr);
    EXPECT_FALSE(report.clean());
}

// ---------------------------------------------------------------------
// Register dataflow
// ---------------------------------------------------------------------

TEST(Dataflow, DefBeforeUseIsAnError)
{
    ProgramBuilder b("defuse");
    b.add(r1, r2, r3);          // r2, r3 never written
    b.halt();
    const Report report = Linter().lint(b.build());
    EXPECT_EQ(countCode(report, "def-before-use"), 2u);
    const Diagnostic *d = findCode(report, "def-before-use");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::Error);
    EXPECT_EQ(d->index, 0u);
}

TEST(Dataflow, FpRegistersAreTrackedSeparately)
{
    ProgramBuilder b("fp");
    b.ldi(r1, 1);
    b.fcvtDL(d1, r1);           // f1 defined
    b.fadd(d2, d1, d1);         // fine
    b.fsub(d1, d2, FReg{5});    // f5 never written
    b.halt();
    const Report report = Linter().lint(b.build());
    EXPECT_EQ(countCode(report, "def-before-use"), 1u);
    EXPECT_NE(findCode(report, "def-before-use")->message.find("f5"),
              std::string::npos);
}

TEST(Dataflow, ReadOfX0IsAlwaysFine)
{
    ProgramBuilder b("zero");
    b.add(r1, r0, r0);
    b.ldi(r2, 0x100);
    b.sd(r1, r2, 0);
    b.halt();
    const Report report = Linter().lint(b.build());
    EXPECT_EQ(countCode(report, "def-before-use"), 0u);
}

TEST(Dataflow, MaybeUninitOnOnePathIsAWarning)
{
    ProgramBuilder b("diamond");
    b.ldi(r1, 1);
    b.beq(r1, r0, "skip");
    b.ldi(r2, 7);               // r2 defined on fallthrough only
    b.label("skip");
    b.add(r3, r2, r1);          // r2 maybe-uninitialized here
    b.ldi(r4, 0x100);
    b.sd(r3, r4, 0);
    b.halt();
    const Report report = Linter().lint(b.build());
    EXPECT_EQ(countCode(report, "def-before-use"), 0u);
    const Diagnostic *d = findCode(report, "maybe-uninit");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::Warning);
    EXPECT_NE(d->message.find("x2"), std::string::npos);
}

TEST(Dataflow, DeadStoreIsAWarning)
{
    ProgramBuilder b("dead");
    b.ldi(r1, 42);              // overwritten before any read
    b.ldi(r1, 43);
    b.ldi(r2, 0x100);
    b.sd(r1, r2, 0);
    b.halt();
    const Report report = Linter().lint(b.build());
    ASSERT_EQ(countCode(report, "dead-store"), 1u);
    EXPECT_EQ(findCode(report, "dead-store")->index, 0u);
}

TEST(Dataflow, LoopCarriedValuesAreNotDeadStores)
{
    ProgramBuilder b("induction");
    b.ldi(r1, 10);
    b.ldi(r2, 0);
    b.label("top");
    b.add(r2, r2, r1);          // read on the next iteration
    b.addi(r1, r1, -1);
    b.bne(r1, r0, "top");
    b.ldi(r3, 0x100);
    b.sd(r2, r3, 0);
    b.halt();
    const Report report = Linter().lint(b.build());
    EXPECT_EQ(countCode(report, "dead-store"), 0u);
    EXPECT_TRUE(report.clean(true));
}

// ---------------------------------------------------------------------
// Memory footprint
// ---------------------------------------------------------------------

TEST(Footprint, OutOfFootprintStoreIsAnError)
{
    ProgramBuilder b("oob");
    b.footprint(0x1000, 64, "buf");
    b.ldi(r1, 0x1000);
    b.ldi(r2, 5);
    b.sd(r2, r1, 64);           // one past the end
    b.halt();
    const Report report = Linter().lint(b.build());
    const Diagnostic *d = findCode(report, "out-of-footprint-store");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::Error);
    EXPECT_NE(d->message.find("0x1040"), std::string::npos);
}

TEST(Footprint, InBoundsAccessesAreClean)
{
    ProgramBuilder b("inb");
    b.footprint(0x1000, 64, "buf");
    b.ldi(r1, 0x1000);
    b.ldi(r2, 5);
    b.sd(r2, r1, 56);           // last valid doubleword
    b.ld(r3, r1, 0);
    b.sd(r3, r1, 8);
    b.halt();
    const Report report = Linter().lint(b.build());
    EXPECT_EQ(countCode(report, "out-of-footprint-store"), 0u);
    EXPECT_EQ(countCode(report, "out-of-footprint-load"), 0u);
}

TEST(Footprint, DataImageDerivesRegions)
{
    ProgramBuilder b("derived");
    b.data64(0x2000, 1);        // contiguous cells merge into
    b.data64(0x2008, 2);        // one [0x2000, 0x2010) region
    b.ldi(r1, 0x2000);
    b.ld(r2, r1, 8);
    b.ld(r3, r1, 16);           // past the derived region
    b.add(r2, r2, r3);
    b.ldi(r4, 0x2000);
    b.sd(r2, r4, 0);
    b.halt();
    const Report report = Linter().lint(b.build());
    EXPECT_EQ(countCode(report, "out-of-footprint-load"), 1u);
    EXPECT_EQ(findCode(report, "out-of-footprint-load")->index, 2u);
}

TEST(Footprint, MisalignedConstantAccessIsAWarning)
{
    ProgramBuilder b("mis");
    b.footprint(0x1000, 64, "buf");
    b.ldi(r1, 0x1000);
    b.ld(r2, r1, 4);            // 8-byte load at +4
    b.ldi(r3, 0x1000);
    b.sd(r2, r3, 0);
    b.halt();
    const Report report = Linter().lint(b.build());
    ASSERT_EQ(countCode(report, "misaligned-access"), 1u);
    EXPECT_EQ(findCode(report, "misaligned-access")->severity,
              Severity::Warning);
}

TEST(Footprint, InBoundsInductionStoreIsClean)
{
    ProgramBuilder b("vary");
    b.footprint(0x1000, 64, "buf");
    b.ldi(r1, 0x1000);
    b.ldi(r2, 8);
    b.label("top");
    b.sd(r0, r1, 0);
    b.addi(r1, r1, 8);          // r1 varies; the trip bound clamps it
    b.addi(r2, r2, -1);         // to [0x1000, 0x1038]
    b.bne(r2, r0, "top");
    b.halt();
    const Report report = Linter().lint(b.build());
    EXPECT_EQ(countCode(report, "out-of-footprint-store"), 0u);
    EXPECT_EQ(countCode(report, "possible-out-of-footprint-store"), 0u)
        << report.toText();
}

TEST(Footprint, ProgramWithoutRegionsReportsNoFootprint)
{
    ProgramBuilder b("nofoot");     // no regions, no data
    b.ldi(r1, 0x1000);
    b.ldi(r2, 5);
    b.sd(r2, r1, 0);
    b.halt();
    const Report report = Linter().lint(b.build());
    const Diagnostic *d = findCode(report, "no-footprint");
    ASSERT_NE(d, nullptr) << report.toText();
    EXPECT_EQ(d->severity, Severity::Info);
    EXPECT_EQ(d->pass, "footprint");
    EXPECT_EQ(d->index, Diagnostic::noIndex);
    EXPECT_EQ(countCode(report, "out-of-footprint-store"), 0u);
}

// ---------------------------------------------------------------------
// Termination heuristics
// ---------------------------------------------------------------------

TEST(Termination, LoopWithNoExitIsAnError)
{
    ProgramBuilder b("infinite");
    b.ldi(r1, 1);
    b.label("spin");
    b.addi(r1, r1, 1);
    b.j("spin");
    b.halt();
    const Report report = Linter().lint(b.build());
    const Diagnostic *d = findCode(report, "infinite-loop");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::Error);
}

TEST(Termination, InvariantExitConditionIsAWarning)
{
    ProgramBuilder b("noind");
    b.ldi(r1, 10);
    b.ldi(r2, 0);
    b.label("top");
    b.addi(r2, r2, 1);          // updates r2 ...
    b.bne(r1, r0, "top");       // ... but exits on r1, never written
    b.halt();
    const Report report = Linter().lint(b.build());
    const Diagnostic *d = findCode(report, "likely-infinite-loop");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::Warning);
    EXPECT_NE(d->message.find("x1"), std::string::npos);
}

TEST(Termination, CountedLoopIsClean)
{
    ProgramBuilder b("counted");
    b.ldi(r1, 10);
    b.label("top");
    b.addi(r1, r1, -1);
    b.bne(r1, r0, "top");
    b.halt();
    const Report report = Linter().lint(b.build());
    EXPECT_EQ(countCode(report, "infinite-loop"), 0u);
    EXPECT_EQ(countCode(report, "likely-infinite-loop"), 0u);
}

TEST(Termination, NestedCountedLoopsAreClean)
{
    ProgramBuilder b("nested");
    b.ldi(r1, 4);               // outer count
    b.ldi(r3, 0);
    b.label("outer");
    b.ldi(r2, 4);               // inner count
    b.label("inner");
    b.addi(r3, r3, 1);
    b.addi(r2, r2, -1);
    b.bne(r2, r0, "inner");
    b.addi(r1, r1, -1);
    b.bne(r1, r0, "outer");
    b.ldi(r4, 0x100);
    b.sd(r3, r4, 0);
    b.halt();
    const Report report = Linter().lint(b.build());
    EXPECT_EQ(countCode(report, "infinite-loop"), 0u);
    EXPECT_EQ(countCode(report, "likely-infinite-loop"), 0u);
    EXPECT_TRUE(report.clean(true)) << report.toText();
}

// ---------------------------------------------------------------------
// Builder hardening
// ---------------------------------------------------------------------

TEST(Builder, AllUndefinedLabelsReportedAtOnce)
{
    ProgramBuilder b("bad");
    b.ldi(r1, 1);
    b.bne(r1, r0, "nowhere");       // instruction 1
    b.beq(r1, r0, "also_nowhere");  // instruction 2
    b.halt();
    try {
        b.build();
        FAIL() << "build() should have thrown";
    } catch (const BuildError &err) {
        ASSERT_EQ(err.messages().size(), 2u);
        EXPECT_NE(err.messages()[0].find("'nowhere'"),
                  std::string::npos);
        EXPECT_NE(err.messages()[0].find("instruction 1"),
                  std::string::npos);
        EXPECT_NE(err.messages()[1].find("'also_nowhere'"),
                  std::string::npos);
        EXPECT_NE(std::string(err.what()).find("2 error(s)"),
                  std::string::npos);
    }
}

TEST(Builder, DuplicateLabelsCollectedWithIndices)
{
    ProgramBuilder b("dup");
    b.label("here");
    b.ldi(r1, 1);
    b.label("here");            // duplicate at instruction 1
    b.halt();
    try {
        b.build();
        FAIL() << "build() should have thrown";
    } catch (const BuildError &err) {
        ASSERT_EQ(err.messages().size(), 1u);
        EXPECT_NE(err.messages()[0].find("duplicate label 'here'"),
                  std::string::npos);
        EXPECT_NE(err.messages()[0].find("redefined at instruction 1"),
                  std::string::npos);
    }
}

TEST(Builder, FootprintAndLabelsReachTheProgram)
{
    ProgramBuilder b("meta");
    b.footprint(0x4000, 128, "scratch");
    b.ldi(r1, 1);
    b.label("body");
    b.addi(r1, r1, 1);
    b.halt();
    const Program prog = b.build();
    ASSERT_EQ(prog.regions().size(), 1u);
    EXPECT_EQ(prog.regions()[0].base, 0x4000u);
    EXPECT_EQ(prog.regions()[0].size, 128u);
    EXPECT_EQ(prog.labels().at("body"), 1u);
    EXPECT_EQ(prog.labelAt(2), "body+1");
}

// ---------------------------------------------------------------------
// Report formats
// ---------------------------------------------------------------------

TEST(Report, JsonCarriesSchemaAndDiagnostics)
{
    ProgramBuilder b("jsonbad");
    b.add(r1, r2, r2);          // def-before-use of r2
    b.halt();
    const Report report = Linter().lint(b.build());
    const std::string json = report.toJson();
    EXPECT_NE(json.find("\"schema\":\"paradox-lint/1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"program\":\"jsonbad\""), std::string::npos);
    EXPECT_NE(json.find("\"code\":\"def-before-use\""),
              std::string::npos);
    EXPECT_NE(json.find("\"severity\":\"error\""), std::string::npos);
    EXPECT_NE(json.find("\"errors\":1"), std::string::npos);
}

TEST(Report, TextRendersLocationAndDisassembly)
{
    ProgramBuilder b("textbad");
    b.ldi(r1, 1);
    b.label("body");
    b.add(r2, r3, r1);          // r3 undefined, inside 'body'
    b.ldi(r4, 0x100);
    b.sd(r2, r4, 0);
    b.halt();
    const Report report = Linter().lint(b.build());
    const std::string text = report.toText();
    EXPECT_NE(text.find("(body)"), std::string::npos);
    EXPECT_NE(text.find("add x2"), std::string::npos);
    EXPECT_NE(text.find("def-before-use"), std::string::npos);
}

TEST(Report, EmptyProgramIsAnError)
{
    const Report report = Linter().lint(Program("empty", {}, {}));
    EXPECT_NE(findCode(report, "empty-program"), nullptr);
    EXPECT_FALSE(report.clean());
}

// ---------------------------------------------------------------------
// Register use/def model sanity
// ---------------------------------------------------------------------

TEST(RegModel, StoresUseButDoNotDefine)
{
    Instruction st;
    st.op = Opcode::SD;
    st.rs1 = 1;
    st.rs2 = 2;
    const UseDef ud = useDef(st);
    EXPECT_EQ(ud.def, -1);
    EXPECT_EQ(ud.nUses, 2u);
}

TEST(RegModel, FmaddReadsItsDestination)
{
    Instruction fma;
    fma.op = Opcode::FMADD;
    fma.rd = 3;
    fma.rs1 = 1;
    fma.rs2 = 2;
    const UseDef ud = useDef(fma);
    EXPECT_EQ(ud.def, int(fslot(3)));
    EXPECT_EQ(ud.useMask(),
              slotBit(fslot(1)) | slotBit(fslot(2)) |
                  slotBit(fslot(3)));
}

TEST(RegModel, WritesToX0AreNotDefs)
{
    Instruction add;
    add.op = Opcode::ADD;
    add.rd = 0;
    add.rs1 = 1;
    add.rs2 = 2;
    EXPECT_EQ(useDef(add).def, -1);
}

// ---------------------------------------------------------------------
// Interval domain
// ---------------------------------------------------------------------

TEST(Interval, LatticeBasics)
{
    const Interval a{0, 10}, b{5, 20};
    EXPECT_EQ(join(a, b), (Interval{0, 20}));
    EXPECT_EQ(meet(a, b), (Interval{5, 10}));
    EXPECT_TRUE(meet(Interval{0, 4}, Interval{5, 9}).isBottom());
    EXPECT_EQ(join(Interval::bottom(), a), a);
    EXPECT_TRUE(meet(Interval::bottom(), a).isBottom());
}

TEST(Interval, WideningGoesToTheRails)
{
    // A still-moving upper bound is widened to max64; a stable lower
    // bound stays put.
    const Interval w = widen(Interval{0, 10}, Interval{0, 11});
    EXPECT_EQ(w.lo, 0);
    EXPECT_EQ(w.hi, Interval::max64);
    // Nothing moved: widening is the identity.
    EXPECT_EQ(widen(Interval{3, 7}, Interval{3, 7}), (Interval{3, 7}));
}

TEST(Interval, ArithmeticSaturatesToTopOnPossibleWrap)
{
    // max64 + 1 can wrap: the result must be top, not a lie.
    EXPECT_TRUE(intervalAdd(Interval{Interval::max64, Interval::max64},
                            Interval{1, 1})
                    .isTop());
    EXPECT_EQ(intervalAdd(Interval{1, 2}, Interval{10, 20}),
              (Interval{11, 22}));
    EXPECT_EQ(intervalMul(Interval{2, 3}, Interval{4, 5}),
              (Interval{8, 15}));
}

TEST(Interval, RefineCmpNarrowsBothSides)
{
    Interval a{0, 100}, b{50, 50};
    refineCmp(Cmp::LtS, a, b);      // assume a < 50
    EXPECT_EQ(a, (Interval{0, 49}));
    Interval c{0, 100}, d{200, 300};
    refineCmp(Cmp::GeS, c, d);      // assume c >= d: infeasible
    EXPECT_TRUE(c.isBottom() || d.isBottom());
}

// ---------------------------------------------------------------------
// Range-based diagnostics
// ---------------------------------------------------------------------

TEST(Ranges, InductionStoreStraddlingRegionEdgeIsPossibleOob)
{
    ProgramBuilder b("straddle");
    b.footprint(0x1000, 64, "buf");     // 8 doublewords
    b.ldi(r1, 0x1000);
    b.ldi(r2, 10);                      // but 10 iterations
    b.label("top");
    b.sd(r0, r1, 0);
    b.addi(r1, r1, 8);
    b.addi(r2, r2, -1);
    b.bne(r2, r0, "top");
    b.halt();
    const Report report = Linter().lint(b.build());
    const Diagnostic *d =
        findCode(report, "possible-out-of-footprint-store");
    ASSERT_NE(d, nullptr) << report.toText();
    EXPECT_EQ(d->severity, Severity::Warning);
    EXPECT_EQ(d->pass, "ranges");
}

TEST(Ranges, InductionLoadStraddlingRegionEdgeIsPossibleOob)
{
    ProgramBuilder b("lstraddle");
    b.footprint(0x1000, 64, "buf");
    b.ldi(r1, 0x1000);
    b.ldi(r2, 10);
    b.ldi(r3, 0);
    b.label("top");
    b.ld(r4, r1, 0);
    b.add(r3, r3, r4);
    b.addi(r1, r1, 8);
    b.addi(r2, r2, -1);
    b.bne(r2, r0, "top");
    b.ldi(r4, 0x1000);
    b.sd(r3, r4, 0);
    b.halt();
    const Report report = Linter().lint(b.build());
    EXPECT_NE(findCode(report, "possible-out-of-footprint-load"),
              nullptr)
        << report.toText();
}

TEST(Ranges, InBoundsInductionLoopIsClean)
{
    ProgramBuilder b("fits");
    b.footprint(0x1000, 64, "buf");
    b.ldi(r1, 0x1000);
    b.ldi(r2, 8);                       // exactly fills the region
    b.label("top");
    b.sd(r0, r1, 0);
    b.addi(r1, r1, 8);
    b.addi(r2, r2, -1);
    b.bne(r2, r0, "top");
    b.halt();
    const Report report = Linter().lint(b.build());
    EXPECT_TRUE(report.clean(/*warnAsError=*/true))
        << report.toText();
}

TEST(Ranges, InductionStoreEntirelyOutsideIsDefiniteError)
{
    ProgramBuilder b("definite");
    b.footprint(0x1000, 64, "buf");
    b.ldi(r1, 0x2000);                  // never inside any region
    b.ldi(r2, 4);
    b.label("top");
    b.sd(r0, r1, 0);
    b.addi(r1, r1, 8);
    b.addi(r2, r2, -1);
    b.bne(r2, r0, "top");
    b.halt();
    const Report report = Linter().lint(b.build());
    // A varying interval wholly outside the footprint is a definite
    // violation: the same code and Error severity as a constant one.
    const Diagnostic *d = findCode(report, "out-of-footprint-store");
    ASSERT_NE(d, nullptr) << report.toText();
    EXPECT_EQ(d->severity, Severity::Error);
}

TEST(Ranges, ProvablyConstantBranchIsDead)
{
    ProgramBuilder b("deadbr");
    b.ldi(r1, 5);
    b.beq(r1, r0, "skip");              // 5 == 0: never
    b.addi(r1, r1, 1);
    b.label("skip");
    b.ldi(r2, 0x100);
    b.sd(r1, r2, 0);
    b.halt();
    const Report report = Linter().lint(b.build());
    const Diagnostic *d = findCode(report, "dead-branch");
    ASSERT_NE(d, nullptr) << report.toText();
    EXPECT_NE(d->message.find("never"), std::string::npos);
}

TEST(Ranges, DivisorRangeContainingZeroWarns)
{
    ProgramBuilder b("div0");
    b.ldi(r1, 100);
    b.ldi(r2, 4);
    b.ldi(r3, 0);
    b.label("top");
    b.addi(r2, r2, -1);
    b.div(r4, r1, r2);                  // r2 hits 0 on the last trip
    b.add(r3, r3, r4);
    b.bne(r2, r0, "top");
    b.ldi(r4, 0x100);
    b.sd(r3, r4, 0);
    b.halt();
    const Report report = Linter().lint(b.build());
    EXPECT_NE(findCode(report, "possible-div-by-zero"), nullptr)
        << report.toText();
}

TEST(Ranges, ShiftAmountRangePastSixtyThreeWarns)
{
    ProgramBuilder b("bigshift");
    b.ldi(r1, 1);
    b.ldi(r2, 60);
    b.ldi(r3, 10);
    b.ldi(r4, 0);
    b.label("top");
    b.sll(r4, r1, r2);                  // r2 grows to 69
    b.addi(r2, r2, 1);
    b.addi(r3, r3, -1);
    b.bne(r3, r0, "top");
    b.ldi(r2, 0x100);
    b.sd(r4, r2, 0);
    b.halt();
    const Report report = Linter().lint(b.build());
    EXPECT_NE(findCode(report, "shift-range"), nullptr)
        << report.toText();
}

TEST(Ranges, ConstantOobIsReportedExactlyOnce)
{
    // A constant address is a singleton interval, so the range pass
    // reports this store once, as a definite "footprint" finding.
    ProgramBuilder b("dedup");
    b.footprint(0x1000, 64, "buf");
    b.ldi(r1, 0x1000);
    b.ldi(r2, 5);
    b.sd(r2, r1, 64);
    b.halt();
    const Report report = Linter().lint(b.build());
    EXPECT_EQ(countCode(report, "out-of-footprint-store"), 1u)
        << report.toText();
}

// ---------------------------------------------------------------------
// Trip-count inference
// ---------------------------------------------------------------------

/** Run the interval engine alone over a built program. */
IntervalAnalysis
runAi(ProgramBuilder &b, Cfg &cfg)
{
    const Program prog = b.build();
    cfg = Cfg::build(prog);
    return IntervalAnalysis::run(prog, cfg, cfg.reachableBlocks());
}

TEST(Trips, CountedDownLoopGetsAnExactBound)
{
    ProgramBuilder b("count10");
    b.ldi(r1, 10);
    b.label("top");
    b.addi(r1, r1, -1);
    b.bne(r1, r0, "top");
    b.halt();
    Cfg cfg;
    const IntervalAnalysis ai = runAi(b, cfg);
    EXPECT_TRUE(ai.converged());
    EXPECT_TRUE(ai.reducible());
    ASSERT_EQ(ai.loops().size(), 1u);
    EXPECT_EQ(ai.loops()[0].tripBound, 10u);
}

TEST(Trips, NestedLoopsGetPerLoopBounds)
{
    ProgramBuilder b("nested");
    b.ldi(r1, 4);
    b.label("outer");
    b.ldi(r2, 5);
    b.label("inner");
    b.addi(r2, r2, -1);
    b.bne(r2, r0, "inner");
    b.addi(r1, r1, -1);
    b.bne(r1, r0, "outer");
    b.halt();
    Cfg cfg;
    const IntervalAnalysis ai = runAi(b, cfg);
    ASSERT_EQ(ai.loops().size(), 2u);
    // The outer loop's body holds the inner loop's; each bound counts
    // its own body's runs per entry: 4 outer, 5 inner per outer pass.
    const Loop &l0 = ai.loops()[0], &l1 = ai.loops()[1];
    const bool firstIsOuter = l0.inBody[l1.header];
    const Loop &outer = firstIsOuter ? l0 : l1;
    const Loop &inner = firstIsOuter ? l1 : l0;
    EXPECT_TRUE(outer.inBody[inner.header]);
    EXPECT_FALSE(inner.inBody[outer.header]);
    EXPECT_EQ(outer.tripBound, 4u);
    EXPECT_EQ(inner.tripBound, 5u);
}

TEST(Trips, DataDependentLoopStaysUnbounded)
{
    ProgramBuilder b("datadep");
    b.data64(0x1000, 3);
    b.ldi(r1, 0x1000);
    b.ld(r1, r1, 0);                    // bound comes from memory
    b.label("top");
    b.addi(r1, r1, -1);
    b.bne(r1, r0, "top");
    b.halt();
    Cfg cfg;
    const IntervalAnalysis ai = runAi(b, cfg);
    ASSERT_EQ(ai.loops().size(), 1u);
    EXPECT_FALSE(ai.loops()[0].bounded());
}

// ---------------------------------------------------------------------
// Fixpoint convergence on randomized CFGs
// ---------------------------------------------------------------------

TEST(Fixpoint, RandomizedCfgsAlwaysConverge)
{
    // Arbitrary branch topologies -- including irreducible loops and
    // unreachable tails -- must reach a fixpoint within the sweep
    // budget.  Deterministic LCG so a failure is reproducible by seed.
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        std::uint64_t s = seed * 0x9e3779b97f4a7c15ULL + 1;
        auto rnd = [&](std::uint64_t m) {
            s = s * 6364136223846793005ULL + 1442695040888963407ULL;
            return (s >> 33) % m;
        };
        const std::size_t nb = 3 + rnd(9);
        ProgramBuilder b("rand" + std::to_string(seed));
        for (unsigned r = 1; r <= 6; ++r)
            b.ldi(XReg{std::uint8_t(r)}, std::int64_t(rnd(1000)));
        auto reg = [&] { return XReg{std::uint8_t(1 + rnd(6))}; };
        for (std::size_t i = 0; i < nb; ++i) {
            b.label(std::string("b").append(std::to_string(i)));
            const std::size_t ops = 1 + rnd(3);
            for (std::size_t k = 0; k < ops; ++k) {
                switch (rnd(5)) {
                case 0: b.addi(reg(), reg(),
                               std::int64_t(rnd(64)) - 32); break;
                case 1: b.add(reg(), reg(), reg()); break;
                case 2: b.mul(reg(), reg(), reg()); break;
                case 3: b.srli(reg(), reg(), unsigned(rnd(63))); break;
                default: b.xor_(reg(), reg(), reg()); break;
                }
            }
            if (i + 1 == nb) {
                b.halt();
            } else {
                const std::string t =
                    std::string("b").append(std::to_string(rnd(nb)));
                if (rnd(3) == 0)
                    b.j(t);
                else
                    b.bne(reg(), r0, t);
            }
        }
        Cfg cfg;
        const IntervalAnalysis ai = runAi(b, cfg);
        const std::size_t blocks = cfg.blocks().size();
        EXPECT_TRUE(ai.converged()) << "seed " << seed;
        EXPECT_LE(ai.sweeps(), 100 + 10 * blocks) << "seed " << seed;
    }
}

// ---------------------------------------------------------------------
// Overlapping-region detection in the builder
// ---------------------------------------------------------------------

TEST(Builder, OverlappingRegionsProduceABuildWarning)
{
    ProgramBuilder b("ovl");
    b.footprint(0x1000, 64, "a");
    b.footprint(0x1020, 64, "b");       // overlaps the tail of 'a'
    b.ldi(r1, 1);
    b.halt();
    const Program prog = b.build();
    ASSERT_EQ(prog.buildWarnings().size(), 1u);
    EXPECT_NE(prog.buildWarnings()[0].find("overlap"),
              std::string::npos);
    // The linter surfaces it as a diagnostic.
    const Report report = Linter().lint(prog);
    const Diagnostic *d = findCode(report, "overlapping-regions");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::Warning);
}

TEST(Builder, AdjacentRegionsDoNotWarn)
{
    ProgramBuilder b("adj");
    b.footprint(0x1000, 64, "a");
    b.footprint(0x1040, 64, "b");       // touches, does not overlap
    b.ldi(r1, 1);
    b.halt();
    EXPECT_TRUE(b.build().buildWarnings().empty());
}

TEST(Builder, AllOverlapPairsAreAggregated)
{
    ProgramBuilder b("multi");
    b.footprint(0x1000, 0x100, "big");
    b.footprint(0x1010, 8, "in1");
    b.footprint(0x1020, 8, "in2");
    b.ldi(r1, 1);
    b.halt();
    EXPECT_EQ(b.build().buildWarnings().size(), 2u);
}

// ---------------------------------------------------------------------
// The gates: every registered workload must lint clean, and the loop
// trip bounds must hold on real executions.
// ---------------------------------------------------------------------

TEST(Workloads, AllWorkloadsLintCleanUnderWerror)
{
    Options opts;
    opts.extraRegions.push_back(
        {paradox::workloads::resultAddr, 8, "result"});
    const Linter linter(opts);
    for (const auto &name : paradox::workloads::allNames()) {
        const auto w = paradox::workloads::build(name, 1);
        const Report report = linter.lint(w.program);
        EXPECT_TRUE(report.clean(/*warnAsError=*/true))
            << report.toText();
    }
}

TEST(IntervalAnalysis, TripBoundsHoldOnExecution)
{
    // Loop::tripBound feeds widening, and through it the memdep
    // bounds the commit gate admits batches under.  Step the programs
    // with the oracle and count, for every bounded loop, the header's
    // runs since the loop was last entered from outside its body.
    for (const std::string name : {"stream", "mcf", "tonto"}) {
        const auto w = paradox::workloads::build(name, 1);
        const Cfg cfg = Cfg::build(w.program);
        const IntervalAnalysis ai =
            IntervalAnalysis::run(w.program, cfg, cfg.reachableBlocks());
        ASSERT_TRUE(ai.converged()) << name;

        std::vector<const Loop *> bounded;
        for (const Loop &l : ai.loops())
            if (l.bounded())
                bounded.push_back(&l);
        ASSERT_FALSE(bounded.empty()) << name;
        std::vector<std::uint64_t> runs(bounded.size(), 0);
        bool iterated = false;

        mem::SimpleMemory memory;
        isa::ArchState state;
        isa::loadProgram(w.program, state, memory);
        std::size_t prevBlock = std::size_t(-1);
        for (std::uint64_t executed = 0;; ++executed) {
            ASSERT_LT(executed, 100'000'000u) << name << " did not halt";
            const std::size_t idx = state.pc() / isa::instBytes;
            ASSERT_LT(idx, w.program.code().size()) << name;
            const std::size_t block = cfg.blockOf(idx);
            for (std::size_t k = 0; k < bounded.size(); ++k) {
                const Loop &l = *bounded[k];
                if (idx != cfg.blocks()[l.header].first)
                    continue;
                const bool fromBody =
                    prevBlock != std::size_t(-1) && l.inBody[prevBlock];
                runs[k] = fromBody ? runs[k] + 1 : 1;
                iterated |= fromBody;
                ASSERT_LE(runs[k], l.tripBound)
                    << name << ": loop at block " << l.header;
            }
            const isa::ExecResult r = isa::step(w.program, state, memory);
            ASSERT_TRUE(r.valid) << name;
            if (r.halted)
                break;
            prevBlock = block;
        }
        // Some loop went round its back edge, so the check ran.
        EXPECT_TRUE(iterated) << name;
    }
}

} // namespace
