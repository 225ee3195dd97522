/**
 * @file
 * ISA unit tests: executor semantics per opcode family, the program
 * builder, architectural-state operations, and the opcode table's
 * operand roles against the reference executor.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "analysis/regmodel.hh"
#include "isa/builder.hh"
#include "isa/decoded.hh"
#include "isa_oracle.hh"
#include "mem/memory.hh"
#include "sim/rng.hh"

namespace
{

using namespace paradox;
using namespace paradox::isa;

constexpr XReg r1{1}, r2{2}, r3{3}, r4{4};
constexpr FReg d1{1}, d2{2}, d3{3};

/** Assemble, run to halt, return the final state. */
ArchState
runProgram(ProgramBuilder &b, mem::SimpleMemory &memory,
           std::uint64_t max_steps = 100000)
{
    Program prog = b.build();
    ArchState state;
    loadProgram(prog, state, memory);
    for (std::uint64_t i = 0; i < max_steps; ++i) {
        ExecResult r = step(prog, state, memory);
        EXPECT_TRUE(r.valid);
        if (r.halted)
            return state;
    }
    ADD_FAILURE() << "program did not halt";
    return state;
}

ArchState
runProgram(ProgramBuilder &b)
{
    mem::SimpleMemory memory;
    return runProgram(b, memory);
}

TEST(Executor, IntegerArithmetic)
{
    ProgramBuilder b("t");
    b.ldi(r1, 7).ldi(r2, 5);
    b.add(r3, r1, r2);
    b.sub(r4, r1, r2);
    b.halt();
    ArchState s = runProgram(b);
    EXPECT_EQ(s.readX(3), 12u);
    EXPECT_EQ(s.readX(4), 2u);
}

TEST(Executor, X0IsHardwiredZero)
{
    ProgramBuilder b("t");
    b.ldi(r1, 99);
    b.add(xzero, r1, r1);  // write attempt to x0
    b.add(r2, xzero, xzero);
    b.halt();
    ArchState s = runProgram(b);
    EXPECT_EQ(s.readX(0), 0u);
    EXPECT_EQ(s.readX(2), 0u);
}

TEST(Executor, ShiftsSignedAndUnsigned)
{
    ProgramBuilder b("t");
    b.ldi(r1, std::uint64_t(-16));
    b.srai(r2, r1, 2);
    b.srli(r3, r1, 2);
    b.slli(r4, r1, 1);
    b.halt();
    ArchState s = runProgram(b);
    EXPECT_EQ(std::int64_t(s.readX(2)), -4);
    EXPECT_EQ(s.readX(3), std::uint64_t(-16) >> 2);
    EXPECT_EQ(s.readX(4), std::uint64_t(-32));
}

TEST(Executor, DivisionEdgeCases)
{
    ProgramBuilder b("t");
    b.ldi(r1, std::uint64_t(std::numeric_limits<std::int64_t>::min()));
    b.ldi(r2, std::uint64_t(-1));
    b.div(r3, r1, r2);   // overflow: INT64_MIN
    b.rem(r4, r1, r2);   // overflow: 0
    b.ldi(XReg{5}, 10);
    b.div(XReg{6}, XReg{5}, xzero);   // div by zero: all ones
    b.rem(XReg{7}, XReg{5}, xzero);   // rem by zero: dividend
    b.halt();
    ArchState s = runProgram(b);
    EXPECT_EQ(std::int64_t(s.readX(3)),
              std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(s.readX(4), 0u);
    EXPECT_EQ(s.readX(6), ~std::uint64_t(0));
    EXPECT_EQ(s.readX(7), 10u);
}

TEST(Executor, MulHigh)
{
    ProgramBuilder b("t");
    b.ldi(r1, std::uint64_t(-2));
    b.ldi(r2, 3);
    b.mulh(r3, r1, r2);
    b.halt();
    ArchState s = runProgram(b);
    // -2 * 3 = -6: high 64 bits of the signed product are all ones.
    EXPECT_EQ(s.readX(3), ~std::uint64_t(0));
}

TEST(Executor, LoadSignAndZeroExtension)
{
    ProgramBuilder b("t");
    b.data64(0x1000, 0x00000000000080ffULL);  // bytes: ff 80 ...
    b.ldi(r1, 0x1000);
    b.lb(r2, r1, 0);    // 0xff -> -1
    b.lbu(r3, r1, 0);   // 0xff -> 255
    b.lh(r4, r1, 0);    // 0x80ff -> sign extended
    b.halt();
    ArchState s = runProgram(b);
    EXPECT_EQ(std::int64_t(s.readX(2)), -1);
    EXPECT_EQ(s.readX(3), 255u);
    EXPECT_EQ(std::int64_t(s.readX(4)),
              std::int64_t(std::int16_t(0x80ff)));
}

TEST(Executor, StoreReturnsOldValue)
{
    ProgramBuilder b("t");
    b.data64(0x2000, 0x1111111111111111ULL);
    b.ldi(r1, 0x2000);
    b.ldi(r2, 0x2222222222222222ULL);
    b.sd(r2, r1, 0);
    b.halt();
    Program prog = b.build();
    mem::SimpleMemory memory;
    ArchState state;
    loadProgram(prog, state, memory);
    step(prog, state, memory);  // ldi
    step(prog, state, memory);  // ldi
    ExecResult r = step(prog, state, memory);
    EXPECT_TRUE(r.isStore);
    EXPECT_EQ(r.storeOld, 0x1111111111111111ULL);
    EXPECT_EQ(r.storeValue, 0x2222222222222222ULL);
    EXPECT_EQ(memory.read(0x2000, 8), 0x2222222222222222ULL);
}

TEST(Executor, PartialStorePreservesNeighbours)
{
    ProgramBuilder b("t");
    b.data64(0x2000, 0xaaaaaaaaaaaaaaaaULL);
    b.ldi(r1, 0x2000);
    b.ldi(r2, 0x42);
    b.sb(r2, r1, 3);
    b.halt();
    mem::SimpleMemory memory;
    runProgram(b, memory);
    EXPECT_EQ(memory.read(0x2000, 8), 0xaaaaaaaa42aaaaaaULL);
}

TEST(Executor, BranchesAndLoops)
{
    ProgramBuilder b("t");
    b.ldi(r1, 10).ldi(r2, 0);
    b.label("loop");
    b.add(r2, r2, r1);
    b.addi(r1, r1, -1);
    b.bne(r1, xzero, "loop");
    b.halt();
    ArchState s = runProgram(b);
    EXPECT_EQ(s.readX(2), 55u);  // 10+9+...+1
}

TEST(Executor, JalRecordsLinkAndJalrReturns)
{
    ProgramBuilder b("t");
    b.ldi(r1, 5);
    b.jal(r3, "func");
    b.addi(r1, r1, 100);  // executed after return
    b.halt();
    b.label("func");
    b.addi(r1, r1, 1);
    b.ret(r3);
    ArchState s = runProgram(b);
    EXPECT_EQ(s.readX(1), 106u);
    EXPECT_EQ(s.readX(3), 2u * instBytes);  // return address
}

TEST(Executor, FpArithmeticAndCompares)
{
    ProgramBuilder b("t");
    b.dataF64(0x3000, 2.25);
    b.dataF64(0x3008, 4.0);
    b.ldi(r1, 0x3000);
    b.fld(d1, r1, 0);
    b.fld(d2, r1, 8);
    b.fadd(d3, d1, d2);
    b.fsd(d3, r1, 16);
    b.fsqrt(FReg{4}, d2);
    b.fsd(FReg{4}, r1, 24);
    b.flt(r2, d1, d2);
    b.fle(r3, d2, d1);
    b.halt();
    mem::SimpleMemory memory;
    ArchState s = runProgram(b, memory);
    EXPECT_EQ(std::bit_cast<double>(memory.read(0x3010, 8)), 6.25);
    EXPECT_EQ(std::bit_cast<double>(memory.read(0x3018, 8)), 2.0);
    EXPECT_EQ(s.readX(2), 1u);
    EXPECT_EQ(s.readX(3), 0u);
}

TEST(Executor, FpExceptionFlags)
{
    ProgramBuilder b("t");
    b.dataF64(0x3000, 1.0);
    b.dataF64(0x3008, 0.0);
    b.dataF64(0x3010, -4.0);
    b.ldi(r1, 0x3000);
    b.fld(d1, r1, 0);
    b.fld(d2, r1, 8);
    b.fld(d3, r1, 16);
    b.fdiv(FReg{4}, d1, d2);   // 1/0 -> divzero flag
    b.fsqrt(FReg{5}, d3);      // sqrt(-4) -> invalid flag
    b.halt();
    ArchState s = runProgram(b);
    EXPECT_TRUE(s.fflags() & ArchState::flagDivZero);
    EXPECT_TRUE(s.fflags() & ArchState::flagInvalid);
}

TEST(Executor, FcvtHandlesNaNAndClamps)
{
    ProgramBuilder b("t");
    b.dataF64(0x3000, std::nan(""));
    b.dataF64(0x3008, 1e30);
    b.dataF64(0x3010, -1e30);
    b.ldi(r1, 0x3000);
    b.fld(d1, r1, 0);
    b.fld(d2, r1, 8);
    b.fld(d3, r1, 16);
    b.fcvtLD(r2, d1);
    b.fcvtLD(r3, d2);
    b.fcvtLD(r4, d3);
    b.halt();
    ArchState s = runProgram(b);
    EXPECT_EQ(s.readX(2), 0u);
    EXPECT_EQ(std::int64_t(s.readX(3)),
              std::numeric_limits<std::int64_t>::max());
    EXPECT_EQ(std::int64_t(s.readX(4)),
              std::numeric_limits<std::int64_t>::min());
    EXPECT_TRUE(s.fflags() & ArchState::flagInvalid);
}

TEST(Executor, FmaddUsesDestinationAsAccumulator)
{
    ProgramBuilder b("t");
    b.dataF64(0x3000, 3.0);
    b.dataF64(0x3008, 4.0);
    b.dataF64(0x3010, 10.0);
    b.ldi(r1, 0x3000);
    b.fld(d1, r1, 0);
    b.fld(d2, r1, 8);
    b.fld(d3, r1, 16);
    b.fmadd(d3, d1, d2);  // d3 = 3*4 + 10
    b.fsd(d3, r1, 24);
    b.halt();
    mem::SimpleMemory memory;
    runProgram(b, memory);
    EXPECT_EQ(std::bit_cast<double>(memory.read(0x3018, 8)), 22.0);
}

TEST(Executor, SyscallIsDeterministic)
{
    auto run_once = [] {
        ProgramBuilder b("t");
        b.ldi(r1, 0x1234);
        b.syscall(r2, r1);
        b.halt();
        return runProgram(b).readX(2);
    };
    std::uint64_t a = run_once();
    std::uint64_t b = run_once();
    EXPECT_EQ(a, b);
    EXPECT_NE(a, 0u);
}

TEST(Executor, WildFetchReportsInvalid)
{
    ProgramBuilder b("t");
    b.halt();
    Program prog = b.build();
    ArchState state;
    state.reset(0x9999000);  // far outside the image
    mem::SimpleMemory memory;
    ExecResult r = step(prog, state, memory);
    EXPECT_FALSE(r.valid);
    EXPECT_EQ(state.pc(), 0x9999000u);  // state untouched
}

TEST(Builder, LabelsResolveForwardAndBackward)
{
    ProgramBuilder b("t");
    b.j("fwd");
    b.label("back");
    b.halt();
    b.label("fwd");
    b.j("back");
    Program prog = b.build();
    EXPECT_EQ(prog.code()[0].imm, std::int64_t(2 * instBytes));
    EXPECT_EQ(prog.code()[2].imm, std::int64_t(1 * instBytes));
}

TEST(Builder, FetchOutsideImageReturnsNull)
{
    ProgramBuilder b("t");
    b.halt();
    Program prog = b.build();
    EXPECT_NE(prog.fetch(0), nullptr);
    EXPECT_EQ(prog.fetch(instBytes), nullptr);
    EXPECT_EQ(prog.fetch(1), nullptr);  // misaligned
}

TEST(ArchState, FlipBitPerCategory)
{
    ArchState s;
    s.writeX(5, 0);
    ArchState before = s;

    s.flipBit(RegCategory::Integer, 4, 3);  // x5 bit 3
    EXPECT_NE(s, before);
    EXPECT_EQ(s.readX(5), 8u);

    ArchState t;
    t.flipBit(RegCategory::Float, 2, 10);
    EXPECT_EQ(t.readFBits(2), std::uint64_t(1) << 10);

    ArchState u;
    u.flipBit(RegCategory::Flags, 0, 1);
    EXPECT_EQ(u.fflags(), 2u);

    ArchState v;
    v.setPc(0x100);
    v.flipBit(RegCategory::Misc, 0, 4);
    EXPECT_EQ(v.pc(), 0x110u);
    EXPECT_EQ(v.pc() % instBytes, 0u);
}

TEST(ArchState, FlipBitNeverTouchesX0)
{
    for (unsigned idx = 0; idx < 64; ++idx) {
        ArchState s;
        s.flipBit(RegCategory::Integer, idx, 0);
        EXPECT_EQ(s.readX(0), 0u);
    }
}

TEST(ArchState, FingerprintSensitive)
{
    ArchState a, b;
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    b.writeX(31, 1);
    EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(Instruction, ToStringMentionsMnemonic)
{
    Instruction inst;
    inst.op = Opcode::ADD;
    inst.rd = 3;
    inst.rs1 = 1;
    inst.rs2 = 2;
    EXPECT_NE(inst.toString().find("add"), std::string::npos);
}

TEST(Instruction, ToStringPrintsTheRowsOperands)
{
    const auto text = [](Opcode op, unsigned rd, unsigned rs1,
                         unsigned rs2, std::int64_t imm) {
        return Instruction{op, std::uint8_t(rd), std::uint8_t(rs1),
                           std::uint8_t(rs2), imm}
            .toString();
    };
    EXPECT_EQ(text(Opcode::ADD, 3, 1, 2, 0), "add x3, x1, x2");
    EXPECT_EQ(text(Opcode::ADDI, 3, 1, 0, -5), "addi x3, x1, -5");
    EXPECT_EQ(text(Opcode::LDI, 3, 0, 0, 42), "ldi x3, 42");
    EXPECT_EQ(text(Opcode::LW, 2, 1, 0, 8), "lw x2, 8(x1)");
    EXPECT_EQ(text(Opcode::FSD, 0, 1, 2, 16), "fsd f2, 16(x1)");
    EXPECT_EQ(text(Opcode::BEQ, 0, 1, 2, 64), "beq x1, x2, @64");
    EXPECT_EQ(text(Opcode::JAL, 1, 0, 0, 64), "jal x1, @64");
    EXPECT_EQ(text(Opcode::JALR, 0, 1, 0, 0), "jalr x0, x1, 0");
    EXPECT_EQ(text(Opcode::FMADD, 3, 1, 2, 0), "fmadd f3, f1, f2");
    EXPECT_EQ(text(Opcode::FCVT_D_L, 1, 2, 0, 0), "fcvt.d.l f1, x2");
    EXPECT_EQ(text(Opcode::FEQ, 4, 1, 2, 0), "feq x4, f1, f2");
    EXPECT_EQ(text(Opcode::SYSCALL, 3, 1, 0, 0), "syscall x3, x1");
    EXPECT_EQ(text(Opcode::NOP, 0, 0, 0, 0), "nop");
    EXPECT_EQ(text(Opcode::HALT, 0, 0, 0, 0), "halt");
}

/** Memory whose contents are a fixed function of the address. */
class HashMemory : public MemIf
{
  public:
    std::uint64_t
    read(Addr addr, unsigned size) override
    {
        const std::uint64_t v = (addr ^ 0x5bd1e995) * 0x9e3779b97f4a7c15ULL;
        return size == 8 ? v : v & ((std::uint64_t(1) << (8 * size)) - 1);
    }

    std::uint64_t
    write(Addr, unsigned, std::uint64_t) override
    {
        return 0;
    }
};

/** What one step of the reference executor produces. */
struct StepOutputs
{
    bool wroteInt, wroteFp;
    std::uint64_t destValue;
    Addr memAddr;
    std::uint64_t storeValue;
    Addr nextPc;
    bool taken;
    std::uint64_t fflags;

    bool operator==(const StepOutputs &) const = default;
};

StepOutputs
stepOutputs(const Program &prog, ArchState state)
{
    HashMemory memory;
    const ExecResult r = step(prog, state, memory);
    EXPECT_TRUE(r.valid);
    return {r.wroteInt,   r.wroteFp, r.destValue, r.memAddr,
            r.storeValue, r.nextPc,  r.taken,     state.fflags()};
}

std::uint8_t
encodedSource(Operand file, unsigned idx)
{
    if (file == Operand::None)
        return srcNone;
    return std::uint8_t(file == Operand::Fp ? idx | srcFpBit : idx);
}

TEST(OpcodeTable, RolesMatchTheReferenceExecutor)
{
    // For every opcode: registers outside the row's roles never move
    // an output of isa::step, every role does in some trial, and the
    // use/def model and the commit record's sources follow the roles.
    Rng rng(0x701e5);
    const auto fpValue = [&rng] {
        return std::bit_cast<std::uint64_t>(rng.nextDouble() * 200 - 100);
    };
    for (unsigned o = 0; o < unsigned(Opcode::NumOpcodes); ++o) {
        const Opcode op = Opcode(o);
        const InstInfo &ii = instInfo(op);
        const Operand roles[3] = {
            ii.rs1, ii.rs2, ii.rdIsSource ? ii.rd : Operand::None};
        bool moved[3] = {false, false, false};
        for (int trial = 0; trial < 64; ++trial) {
            // Distinct nonzero register fields.
            std::uint8_t regs[31];
            for (unsigned i = 0; i < 31; ++i)
                regs[i] = std::uint8_t(i + 1);
            for (unsigned i = 0; i < 3; ++i)
                std::swap(regs[i], regs[i + rng.nextBounded(31 - i)]);
            std::int64_t imm = std::int64_t(rng.nextBounded(64)) - 16;
            if (ii.isBranch || op == Opcode::JAL)
                imm = 64;
            const Instruction inst{op, regs[0], regs[1], regs[2], imm};
            const Program prog(
                "roles", {inst, Instruction{Opcode::HALT, 0, 0, 0, 0}},
                {});

            ArchState base;
            for (unsigned r = 1; r < numIntRegs; ++r)
                base.writeX(r, rng.chance(0.5) ? rng.next()
                                               : rng.nextBounded(8));
            for (unsigned r = 0; r < numFpRegs; ++r)
                base.writeFBits(r, fpValue());
            if (rng.chance(0.5)) {  // equal operands flip branches
                base.writeX(inst.rs2, base.readX(inst.rs1));
                base.writeFBits(inst.rs2, base.readFBits(inst.rs1));
            }

            const auto srcs = inst.sources();
            const analysis::UseDef ud = analysis::useDef(inst);
            std::uint64_t roleMask = 0;
            unsigned nRoles = 0;
            for (const RegOperand &src : srcs)
                if (src.file != Operand::None) {
                    ASSERT_LT(nRoles, ud.nUses) << ii.mnemonic;
                    EXPECT_EQ(ud.uses[nRoles++], analysis::regSlot(src))
                        << ii.mnemonic;
                    roleMask |= analysis::slotBit(analysis::regSlot(src));
                }
            EXPECT_EQ(ud.nUses, nRoles) << ii.mnemonic;
            EXPECT_EQ(ud.def, ii.rd == Operand::None
                                  ? -1
                                  : int(analysis::regSlot(inst.dest())))
                << ii.mnemonic;

            for (int engine = 0; engine < 2; ++engine) {
                ArchState st = base;
                HashMemory memory;
                const CommitRecord rec =
                    makeEngine(engine ? EngineKind::Decoded
                                      : EngineKind::Reference,
                               prog)
                        ->step(st, memory);
                EXPECT_EQ(rec.srcA, encodedSource(ii.rs1, inst.rs1))
                    << ii.mnemonic;
                EXPECT_EQ(rec.srcB, encodedSource(ii.rs2, inst.rs2))
                    << ii.mnemonic;
                EXPECT_EQ(rec.srcC, encodedSource(srcs[2].file, inst.rd))
                    << ii.mnemonic;
            }

            const StepOutputs want = stepOutputs(prog, base);
            EXPECT_EQ(want.wroteInt, ii.rd == Operand::Int) << ii.mnemonic;
            EXPECT_EQ(want.wroteFp, ii.rd == Operand::Fp) << ii.mnemonic;
            for (unsigned slot = 1; slot < analysis::numRegSlots; ++slot) {
                ArchState st = base;
                if (slot < numIntRegs)
                    st.writeX(slot, st.readX(slot) ^ (rng.next() | 1));
                else
                    st.writeFBits(slot - numIntRegs, fpValue());
                const bool same = stepOutputs(prog, st) == want;
                if (!(roleMask & analysis::slotBit(slot))) {
                    EXPECT_TRUE(same) << ii.mnemonic << " reads "
                                      << analysis::slotName(slot);
                    continue;
                }
                for (unsigned k = 0; k < 3; ++k)
                    if (srcs[k].file != Operand::None &&
                        analysis::regSlot(srcs[k]) == slot && !same)
                        moved[k] = true;
            }
        }
        for (unsigned k = 0; k < 3; ++k)
            EXPECT_TRUE(roles[k] == Operand::None || moved[k])
                << ii.mnemonic << " never reads source " << k;
    }
}

TEST(InstInfo, ClassesAreConsistent)
{
    EXPECT_EQ(instInfo(Opcode::LD).cls, InstClass::Load);
    EXPECT_TRUE(instInfo(Opcode::LD).isLoad);
    EXPECT_EQ(instInfo(Opcode::SD).cls, InstClass::Store);
    EXPECT_TRUE(instInfo(Opcode::SD).isStore);
    EXPECT_TRUE(instInfo(Opcode::BEQ).isBranch);
    EXPECT_TRUE(instInfo(Opcode::JAL).isJump);
    EXPECT_EQ(instInfo(Opcode::FDIV).cls, InstClass::FpDiv);
    EXPECT_EQ(instInfo(Opcode::DIV).cls, InstClass::IntDiv);
    EXPECT_EQ(instInfo(Opcode::FADD).rd, Operand::Fp);
    EXPECT_EQ(instInfo(Opcode::FEQ).rd, Operand::Int);
    EXPECT_EQ(instInfo(Opcode::LW).memSize, 4u);
}

} // namespace
