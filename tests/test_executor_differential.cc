/**
 * @file
 * Differential testing of the functional executor: every computational
 * opcode, over thousands of random operand pairs, against an oracle
 * written independently of the executor's switch.  Guards the single
 * most safety-critical property of the simulator -- main-core and
 * checker-core executions agree bit-for-bit exactly when the
 * architecture says they should.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "isa/builder.hh"
#include "isa/decoded.hh"
#include "isa/decoded_run.hh"
#include "isa_oracle.hh"
#include "mem/memory.hh"
#include "sim/rng.hh"
#include "workloads/workload.hh"

namespace
{

using namespace paradox;
using namespace paradox::isa;

/** Run `op x3, x1, x2` once with the given operand values. */
std::uint64_t
runIntOp(Opcode op, std::uint64_t a, std::uint64_t b)
{
    Instruction inst;
    inst.op = op;
    inst.rd = 3;
    inst.rs1 = 1;
    inst.rs2 = 2;
    ProgramBuilder builder("diff");
    builder.halt();  // placeholder image; we step the raw instruction
    Program prog("diff", {inst, Instruction{Opcode::HALT, 0, 0, 0, 0}},
                 {});
    ArchState state;
    state.writeX(1, a);
    state.writeX(2, b);
    mem::SimpleMemory memory;
    ExecResult r = step(prog, state, memory);
    EXPECT_TRUE(r.valid);
    return state.readX(3);
}

/**
 * Run `fop f3, f1, f2` once on each engine; both must write the same
 * bits.  Returns the reference engine's result.
 */
double
runFpOp(Opcode op, double a, double b)
{
    Instruction inst;
    inst.op = op;
    inst.rd = 3;
    inst.rs1 = 1;
    inst.rs2 = 2;
    Program prog("diff", {inst, Instruction{Opcode::HALT, 0, 0, 0, 0}},
                 {});
    std::uint64_t bits[2];
    const EngineKind kinds[2] = {EngineKind::Reference,
                                 EngineKind::Decoded};
    for (int k = 0; k < 2; ++k) {
        auto engine = makeEngine(kinds[k], prog);
        ArchState state;
        state.writeF(1, a);
        state.writeF(2, b);
        mem::SimpleMemory memory;
        EXPECT_TRUE(engine->step(state, memory).valid);
        bits[k] = state.readFBits(3);
    }
    EXPECT_EQ(bits[0], bits[1])
        << "engines disagree: " << mnemonic(op) << " a=" << a
        << " b=" << b;
    return std::bit_cast<double>(bits[0]);
}

/** Independent integer oracle (no shared code with the executor). */
std::uint64_t
intOracle(Opcode op, std::uint64_t a, std::uint64_t b)
{
    const auto sa = std::int64_t(a);
    const auto sb = std::int64_t(b);
    const auto int_min = std::numeric_limits<std::int64_t>::min();
    switch (op) {
      case Opcode::ADD:  return a + b;
      case Opcode::SUB:  return a - b;
      case Opcode::AND_: return a & b;
      case Opcode::OR_:  return a | b;
      case Opcode::XOR_: return a ^ b;
      case Opcode::SLL:  return a << (b % 64);
      case Opcode::SRL:  return a >> (b % 64);
      case Opcode::SRA:  return std::uint64_t(sa >> (b % 64));
      case Opcode::SLT:  return sa < sb ? 1 : 0;
      case Opcode::SLTU: return a < b ? 1 : 0;
      case Opcode::MUL:  return a * b;
      case Opcode::MULH: {
        __int128 p = __int128(sa) * __int128(sb);
        return std::uint64_t(std::uint64_t(std::int64_t(p >> 64)));
      }
      case Opcode::DIV:
        if (b == 0)
            return ~std::uint64_t(0);
        if (sa == int_min && sb == -1)
            return a;
        return std::uint64_t(sa / sb);
      case Opcode::DIVU: return b == 0 ? ~std::uint64_t(0) : a / b;
      case Opcode::REM:
        if (b == 0)
            return a;
        if (sa == int_min && sb == -1)
            return 0;
        return std::uint64_t(sa % sb);
      case Opcode::REMU: return b == 0 ? a : a % b;
      default: return 0;
    }
}

class IntOpDifferential : public ::testing::TestWithParam<Opcode>
{
};

TEST_P(IntOpDifferential, MatchesOracleOnRandomOperands)
{
    Opcode op = GetParam();
    Rng rng(0xd1ff ^ std::uint64_t(op));
    for (int trial = 0; trial < 3000; ++trial) {
        std::uint64_t a = rng.next();
        std::uint64_t b = rng.next();
        // Bias toward interesting values now and then.
        if (trial % 7 == 0)
            b = rng.nextBounded(4);
        if (trial % 11 == 0)
            a = ~std::uint64_t(0);
        if (trial % 13 == 0)
            a = std::uint64_t(
                std::numeric_limits<std::int64_t>::min());
        EXPECT_EQ(runIntOp(op, a, b), intOracle(op, a, b))
            << mnemonic(op) << " a=" << a << " b=" << b;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllIntOps, IntOpDifferential,
    ::testing::Values(Opcode::ADD, Opcode::SUB, Opcode::AND_,
                      Opcode::OR_, Opcode::XOR_, Opcode::SLL,
                      Opcode::SRL, Opcode::SRA, Opcode::SLT,
                      Opcode::SLTU, Opcode::MUL, Opcode::MULH,
                      Opcode::DIV, Opcode::DIVU, Opcode::REM,
                      Opcode::REMU),
    [](const ::testing::TestParamInfo<Opcode> &info) {
        std::string name = mnemonic(info.param);
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

/**
 * A signed key whose integer order is IEEE totalOrder on non-NaN
 * doubles: -0 sorts just below +0.
 */
std::int64_t
totalOrderKey(double x)
{
    const auto k = std::bit_cast<std::int64_t>(x);
    return k < 0 ? k ^ std::numeric_limits<std::int64_t>::max() : k;
}

/**
 * RISC-V FMIN/FMAX by total-order keys: a NaN operand yields the
 * other operand, two NaNs the canonical NaN (0x7ff8000000000000).
 */
double
minMaxOracle(bool is_max, double a, double b)
{
    if (std::isnan(a) && std::isnan(b))
        return std::bit_cast<double>(std::uint64_t(0x7ff8000000000000));
    if (std::isnan(a))
        return b;
    if (std::isnan(b))
        return a;
    const bool a_first = totalOrderKey(a) <= totalOrderKey(b);
    return a_first != is_max ? a : b;
}

/** Independent FP oracle. */
double
fpOracle(Opcode op, double a, double b)
{
    switch (op) {
      case Opcode::FADD: return a + b;
      case Opcode::FSUB: return a - b;
      case Opcode::FMUL: return a * b;
      case Opcode::FDIV: return a / b;
      case Opcode::FMIN: return minMaxOracle(false, a, b);
      case Opcode::FMAX: return minMaxOracle(true, a, b);
      default: return 0.0;
    }
}

class FpOpDifferential : public ::testing::TestWithParam<Opcode>
{
};

TEST_P(FpOpDifferential, MatchesOracleBitForBit)
{
    Opcode op = GetParam();
    Rng rng(0xf10a7 ^ std::uint64_t(op));
    for (int trial = 0; trial < 3000; ++trial) {
        double a = (rng.nextDouble() - 0.5) * 1e6;
        double b = (rng.nextDouble() - 0.5) * 1e6;
        if (trial % 9 == 0)
            b = 0.0;
        if (trial % 17 == 0)
            a = std::numeric_limits<double>::infinity();
        double got = runFpOp(op, a, b);
        double want = fpOracle(op, a, b);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(want))
            << mnemonic(op) << " a=" << a << " b=" << b;
    }
}

TEST_P(FpOpDifferential, SignedZeroAndNanOperands)
{
    // The pairs where C leaves std::fmin/std::fmax open or where
    // RISC-V differs from IEEE minNum on NaNs.
    const Opcode op = GetParam();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double neg_nan = -nan;
    const double inf = std::numeric_limits<double>::infinity();
    const double vals[] = {0.0, -0.0, 1.5, -2.25, inf, -inf, nan,
                           neg_nan};
    for (double a : vals) {
        for (double b : vals) {
            const std::uint64_t got =
                std::bit_cast<std::uint64_t>(runFpOp(op, a, b));
            const double want = fpOracle(op, a, b);
            if (op != Opcode::FMIN && op != Opcode::FMAX &&
                std::isnan(want)) {
                // Arithmetic NaN payloads are the host's; the engines
                // agreeing (runFpOp) is the contract there.  FADD and
                // FMUL, which the compiler may commute, propagate the
                // first NaN operand, quieted (fpNanFirst).
                EXPECT_TRUE(std::isnan(std::bit_cast<double>(got)));
                if ((op == Opcode::FADD || op == Opcode::FMUL) &&
                    (std::isnan(a) || std::isnan(b))) {
                    EXPECT_EQ(got, std::bit_cast<std::uint64_t>(
                                       std::isnan(a) ? a : b) |
                                       0x0008000000000000ULL)
                        << mnemonic(op) << " a=" << a << " b=" << b;
                }
                continue;
            }
            EXPECT_EQ(got, std::bit_cast<std::uint64_t>(want))
                << mnemonic(op) << " a=" << a << " b=" << b;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllFpOps, FpOpDifferential,
    ::testing::Values(Opcode::FADD, Opcode::FSUB, Opcode::FMUL,
                      Opcode::FDIV, Opcode::FMIN, Opcode::FMAX),
    [](const ::testing::TestParamInfo<Opcode> &info) {
        std::string name = mnemonic(info.param);
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

/** One FSQRT/FDIV/FCVT operand case and the result PDX64 defines. */
struct FpEdgeCase
{
    Opcode op;
    std::uint64_t a;       //!< rs1 bits (an integer for FCVT_D_L)
    std::uint64_t b;       //!< rs2 bits (FDIV only)
    bool nanResult;        //!< any NaN (host payload), else exact
    std::uint64_t result;  //!< rd bits (an integer for FCVT_L_D)
};

/**
 * The ops besides FMIN/FMAX that reach libm or the FPU, at the operands
 * where a build could fork: FSQRT of -1, -0, NaN and +inf; FDIV of
 * +-0/+-0, 1/+-0 and inf/inf; FCVT_L_D of NaN, +-inf, +-2^63, -0.5
 * and 2^63-1024 (the largest double below 2^63); FCVT_D_L of
 * INT64_MIN.  Each runs once on each engine: rd and the whole
 * architectural state, fflags included, must agree bit for bit, and rd
 * must match the table.  Arithmetic NaN payloads are the host's, so
 * only NaN-ness is tabled for them.  test_executor_differential_O0
 * runs the same table with the ISA library built at -O0.
 */
TEST(FpEdgeDifferential, SqrtDivConvertSpecialOperands)
{
    const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double two63 = 9223372036854775808.0;
    const auto imax = std::uint64_t(std::numeric_limits<std::int64_t>::max());
    const auto imin = std::uint64_t(std::numeric_limits<std::int64_t>::min());
    const FpEdgeCase cases[] = {
        {Opcode::FSQRT, bits(-1.0), 0, true, 0},
        {Opcode::FSQRT, bits(-0.0), 0, false, bits(-0.0)},
        {Opcode::FSQRT, bits(nan), 0, true, 0},
        {Opcode::FSQRT, bits(inf), 0, false, bits(inf)},
        {Opcode::FDIV, bits(0.0), bits(0.0), true, 0},
        {Opcode::FDIV, bits(0.0), bits(-0.0), true, 0},
        {Opcode::FDIV, bits(-0.0), bits(0.0), true, 0},
        {Opcode::FDIV, bits(-0.0), bits(-0.0), true, 0},
        {Opcode::FDIV, bits(1.0), bits(0.0), false, bits(inf)},
        {Opcode::FDIV, bits(1.0), bits(-0.0), false, bits(-inf)},
        {Opcode::FDIV, bits(inf), bits(inf), true, 0},
        {Opcode::FCVT_L_D, bits(nan), 0, false, 0},
        {Opcode::FCVT_L_D, bits(inf), 0, false, imax},
        {Opcode::FCVT_L_D, bits(-inf), 0, false, imin},
        {Opcode::FCVT_L_D, bits(two63), 0, false, imax},
        {Opcode::FCVT_L_D, bits(-two63), 0, false, imin},
        {Opcode::FCVT_L_D, bits(-0.5), 0, false, 0},
        {Opcode::FCVT_L_D, bits(two63 - 1024.0), 0, false,
         std::uint64_t(9223372036854774784ULL)},
        {Opcode::FCVT_D_L, imin, 0, false, bits(-two63)},
    };
    for (const FpEdgeCase &c : cases) {
        const bool int_src = c.op == Opcode::FCVT_D_L;
        const bool int_dst = c.op == Opcode::FCVT_L_D;
        Instruction inst;
        inst.op = c.op;
        inst.rd = 3;
        inst.rs1 = 1;
        inst.rs2 = 2;
        Program prog("diff",
                     {inst, Instruction{Opcode::HALT, 0, 0, 0, 0}}, {});
        ArchState states[2];
        const EngineKind kinds[2] = {EngineKind::Reference,
                                     EngineKind::Decoded};
        for (int k = 0; k < 2; ++k) {
            auto engine = makeEngine(kinds[k], prog);
            if (int_src)
                states[k].writeX(1, c.a);
            else
                states[k].writeFBits(1, c.a);
            states[k].writeFBits(2, c.b);
            mem::SimpleMemory memory;
            EXPECT_TRUE(engine->step(states[k], memory).valid);
        }
        const std::uint64_t rd = int_dst ? states[0].readX(3)
                                         : states[0].readFBits(3);
        SCOPED_TRACE(testing::Message()
                     << mnemonic(c.op) << " a=" << std::hex << c.a
                     << " b=" << c.b << " rd=" << rd);
        EXPECT_TRUE(states[0] == states[1]) << "engines disagree";
        EXPECT_EQ(states[0].fflags(), states[1].fflags());
        if (c.nanResult)
            EXPECT_TRUE(std::isnan(std::bit_cast<double>(rd)));
        else
            EXPECT_EQ(rd, c.result);
    }
}

// ---------------------------------------------------------------------
// Engine lockstep: the decoded threaded-dispatch engine against the
// reference engine, asserting identical per-instruction commit
// records and architectural state.

/** Pretty commit-record mismatch context. */
std::string
describeRecord(const CommitRecord &r)
{
    std::string s = "pc=" + std::to_string(r.pc) +
                    " op=" + (r.valid ? mnemonic(r.op) : "<wild>") +
                    " nextPc=" + std::to_string(r.nextPc) +
                    " dest=" + std::to_string(r.destValue);
    if (r.isLoad || r.isStore)
        s += " mem@" + std::to_string(r.memAddr) + "/" +
             std::to_string(r.memSize);
    return s;
}

/**
 * Run @p prog on both engines in lockstep for up to @p max_steps,
 * requiring bit-identical commit records, register state and memory
 * at every instruction boundary.
 */
void
lockstepSingleStep(const Program &prog, std::uint64_t max_steps)
{
    auto ref = makeEngine(EngineKind::Reference, prog);
    auto dec = makeEngine(EngineKind::Decoded, prog);
    EXPECT_EQ(ref->kind(), EngineKind::Reference);
    EXPECT_EQ(dec->kind(), EngineKind::Decoded);

    ArchState refState, decState;
    mem::SimpleMemory refMem, decMem;
    ref->reset(refState, refMem);
    dec->reset(decState, decMem);
    EXPECT_EQ(refState, decState);

    std::uint64_t steps = 0;
    for (; steps < max_steps; ++steps) {
        const MemPeek refPeek = ref->peekMem(refState);
        const MemPeek decPeek = dec->peekMem(decState);
        EXPECT_EQ(refPeek.valid, decPeek.valid);
        EXPECT_EQ(refPeek.isLoad, decPeek.isLoad);
        EXPECT_EQ(refPeek.isStore, decPeek.isStore);
        EXPECT_EQ(refPeek.addr, decPeek.addr);
        EXPECT_EQ(refPeek.size, decPeek.size);

        const CommitRecord a = ref->step(refState, refMem);
        const CommitRecord b = dec->step(decState, decMem);
        ASSERT_TRUE(a.sameAs(b))
            << prog.name() << " step " << steps << "\n  ref: "
            << describeRecord(a) << "\n  dec: " << describeRecord(b);
        ASSERT_EQ(refState, decState)
            << prog.name() << " state diverged at step " << steps;
        // The peek must agree with what actually executed.  The
        // decoded peek is the micro-op's kind and width plus
        // isa::effectiveAddr, which is all the System's commit gate
        // reads to size an access's exact log bytes before running it.
        if (b.valid) {
            EXPECT_EQ(decPeek.isLoad, b.isLoad);
            EXPECT_EQ(decPeek.isStore, b.isStore);
            if (b.isLoad || b.isStore) {
                EXPECT_EQ(decPeek.addr, b.memAddr);
                EXPECT_EQ(decPeek.size, b.memSize);
            }
        }
        if (!a.valid || a.halted)
            break;
    }
    EXPECT_EQ(refMem.fingerprint(), decMem.fingerprint())
        << prog.name() << " memory diverged";
}

/**
 * Run the decoded program through the *batch* threaded-dispatch loop
 * (the checker-replay fast path, which carries resolved target
 * indices between micro-ops) against the reference engine stepping
 * one instruction at a time.
 */
void
lockstepBatch(const Program &prog, std::uint64_t max_steps)
{
    auto ref = makeEngine(EngineKind::Reference, prog);
    auto dp = DecodedProgram::get(prog);
    ASSERT_EQ(dp->size(), prog.size());

    ArchState refState, decState;
    mem::SimpleMemory refMem, decMem;
    ref->reset(refState, refMem);
    isa::loadProgram(prog, decState, decMem);

    std::uint64_t steps = 0;
    bool diverged = false;
    runDecoded(*dp, decState, decMem, max_steps,
               [&](const CommitRecord &b) {
                   const CommitRecord a = ref->step(refState, refMem);
                   EXPECT_TRUE(a.sameAs(b))
                       << prog.name() << " batch step " << steps
                       << "\n  ref: " << describeRecord(a)
                       << "\n  dec: " << describeRecord(b);
                   EXPECT_EQ(refState, decState)
                       << prog.name() << " batch state diverged at step "
                       << steps;
                   ++steps;
                   diverged = !a.sameAs(b) || !(refState == decState);
                   return !diverged;
               });
    EXPECT_FALSE(diverged);
    EXPECT_EQ(refMem.fingerprint(), decMem.fingerprint())
        << prog.name() << " batch memory diverged";
}

class EngineWorkloadDifferential
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EngineWorkloadDifferential, BatchLockstepBitIdentical)
{
    workloads::Workload w = workloads::build(GetParam(), 1);
    lockstepBatch(w.program, 150000);
}

TEST_P(EngineWorkloadDifferential, SingleStepLockstepBitIdentical)
{
    workloads::Workload w = workloads::build(GetParam(), 1);
    lockstepSingleStep(w.program, 50000);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, EngineWorkloadDifferential,
    ::testing::ValuesIn(workloads::allNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

TEST(EngineDifferential, DecodedImageMatchesCode)
{
    for (const auto &name : workloads::allNames()) {
        workloads::Workload w = workloads::build(name, 1);
        auto dp = DecodedProgram::get(w.program);
        ASSERT_EQ(dp->size(), w.program.size()) << name;
        for (std::size_t i = 0; i < dp->size(); ++i) {
            const MicroOp &u = dp->at(i);
            const Instruction &inst = w.program.code()[i];
            ASSERT_EQ(u.op, inst.op) << name << " @" << i;
            ASSERT_EQ(u.inst, &inst) << name << " @" << i;
            const InstInfo &ii = inst.info();
            ASSERT_EQ(u.cls, ii.cls);
            ASSERT_EQ(u.isLoad, ii.isLoad);
            ASSERT_EQ(u.isStore, ii.isStore);
            // Superblock runs must stop at (and only at) control
            // transfers, HALT, or the image end.
            const bool endsRun = ii.isBranch || ii.isJump ||
                                 inst.op == Opcode::HALT ||
                                 i + 1 == dp->size();
            ASSERT_EQ(u.runLen == 1, endsRun) << name << " @" << i;
            if (!endsRun) {
                ASSERT_EQ(u.runLen, dp->at(i + 1).runLen + 1);
            }
        }
    }
}

TEST(EngineDifferential, DecodeIsMemoizedPerProgram)
{
    workloads::Workload w = workloads::build("bitcount", 1);
    auto a = DecodedProgram::get(w.program);
    auto b = DecodedProgram::get(w.program);
    EXPECT_EQ(a.get(), b.get());

    // A different Program object decodes separately (micro-ops point
    // into their own image).
    workloads::Workload w2 = workloads::build("bitcount", 1);
    auto c = DecodedProgram::get(w2.program);
    EXPECT_NE(a.get(), c.get());
    EXPECT_EQ(a->contentHash(), c->contentHash());
}

/** Seeded random program: terminating, mostly-sane, sometimes wild. */
Program
randomProgram(std::uint64_t seed, unsigned insts)
{
    Rng rng(seed);
    std::vector<Instruction> code;
    code.reserve(insts + 1);
    const auto numOps = std::uint64_t(Opcode::NumOpcodes);
    for (unsigned i = 0; i < insts; ++i) {
        Instruction inst;
        inst.op = Opcode(rng.nextBounded(numOps));
        if (inst.op == Opcode::HALT && i + 1 != insts)
            inst.op = Opcode::ADD;  // keep programs long enough
        inst.rd = std::uint8_t(rng.nextBounded(isa::numIntRegs));
        inst.rs1 = std::uint8_t(rng.nextBounded(isa::numIntRegs));
        inst.rs2 = std::uint8_t(rng.nextBounded(isa::numIntRegs));
        const InstInfo &ii = instInfo(inst.op);
        if (ii.isBranch || inst.op == Opcode::JAL) {
            // Mostly in-image targets, occasionally wild/misaligned.
            if (rng.nextBounded(16) == 0)
                inst.imm = std::int64_t(rng.next() & 0xffff);
            else
                inst.imm = std::int64_t(
                    rng.nextBounded(insts) * instBytes);
        } else if (ii.isLoad || ii.isStore) {
            inst.imm = std::int64_t(0x2000 + rng.nextBounded(0x4000));
            inst.rs1 = 0;  // x0 base: bounded, deterministic footprint
        } else {
            inst.imm = std::int64_t(rng.next() & 0xffff) - 0x8000;
        }
        code.push_back(inst);
    }
    code.push_back(Instruction{Opcode::HALT, 0, 0, 0, 0});
    return Program("random-" + std::to_string(seed), std::move(code),
                   {});
}

TEST(EngineDifferential, RandomProgramsLockstep)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        Program prog = randomProgram(0x5eedULL * seed + seed, 96);
        lockstepSingleStep(prog, 4000);
        lockstepBatch(prog, 4000);
    }
}

TEST(EngineDifferential, WildFetchLeavesStateUntouched)
{
    // A JAL straight out of the image.
    std::vector<Instruction> code;
    code.push_back(Instruction{Opcode::JAL, 1, 0, 0, 0x100000});
    Program prog("wild", std::move(code), {});

    auto dec = makeEngine(EngineKind::Decoded, prog);
    ArchState state;
    mem::SimpleMemory memory;
    dec->reset(state, memory);

    CommitRecord jump = dec->step(state, memory);
    EXPECT_TRUE(jump.valid);
    EXPECT_TRUE(jump.isJump);
    EXPECT_EQ(state.pc(), Addr(0x100000));

    const ArchState before = state;
    CommitRecord wild = dec->step(state, memory);
    EXPECT_FALSE(wild.valid);
    EXPECT_EQ(wild.pc, Addr(0x100000));
    EXPECT_EQ(wild.nextPc, Addr(0));
    EXPECT_EQ(state, before);
    EXPECT_EQ(wild.inst, nullptr);
    EXPECT_FALSE(dec->peekMem(state).valid);
}

TEST(MemOpDifferential, AllWidthsRoundTripThroughMemory)
{
    Rng rng(0x3333);
    mem::SimpleMemory memory;
    for (int trial = 0; trial < 2000; ++trial) {
        Addr addr = 0x1000 + rng.nextBounded(0x10000);
        std::uint64_t value = rng.next();
        for (unsigned size : {1u, 2u, 4u, 8u}) {
            std::uint64_t mask =
                size == 8 ? ~std::uint64_t(0)
                          : ((std::uint64_t(1) << (size * 8)) - 1);
            memory.write(addr, size, value);
            EXPECT_EQ(memory.read(addr, size), value & mask);
        }
    }
}

} // namespace
