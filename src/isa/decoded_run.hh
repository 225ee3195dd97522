/**
 * @file
 * The threaded-dispatch inner loop over a DecodedProgram.
 *
 * runDecoded() is a template so each caller instantiates it against
 * a *concrete* memory type: the checker-replay fast path runs it
 * devirtualized over its log-replay adapter, the System's commit path
 * over its main memory.  Dispatch is a computed goto on GNU-
 * compatible compilers (one indirect branch per micro-op, no bounds
 * check); the portable fallback is a dense switch, which compilers
 * lower to the same jump table a function-pointer dispatch would
 * use.
 *
 * Semantics are a line-for-line mirror of the test-only reference
 * executor (tests/isa_oracle.cc); tests/test_executor_differential.cc
 * holds the two to bit-identical commit records and architectural
 * state across every workload and seeded random programs.
 */

#ifndef PARADOX_ISA_DECODED_RUN_HH
#define PARADOX_ISA_DECODED_RUN_HH

#include <cmath>
#include <limits>
#include <utility>

#include "isa/decoded.hh"
#include "isa/fp_minmax.hh"

#if defined(__GNUC__) || defined(__clang__)
#define PARADOX_THREADED_DISPATCH 1
#else
#define PARADOX_THREADED_DISPATCH 0
#endif

namespace paradox
{
namespace isa
{

/** Why runDecoded() returned. */
enum class RunStop : std::uint8_t
{
    MaxUops,    //!< executed the requested number of micro-ops
    SinkStop,   //!< the sink asked to stop
    Halted,     //!< HALT committed (its record was delivered)
    WildFetch,  //!< fetch left the image (invalid record delivered)
    MemNext,    //!< the mem gate refused the next load/store (not run)
};

namespace rundetail
{

/** Default memory gate: every load/store may execute. */
struct NoMemGate
{
    constexpr bool operator()(std::uint64_t /* idx */) const
    { return true; }
};

inline std::int64_t
asSigned(std::uint64_t v)
{
    return static_cast<std::int64_t>(v);
}

inline std::uint64_t
sext(std::uint64_t v, unsigned bytes)
{
    const unsigned bits = bytes * 8;
    if (bits >= 64)
        return v;
    const std::uint64_t sign = std::uint64_t(1) << (bits - 1);
    const std::uint64_t mask = (std::uint64_t(1) << bits) - 1;
    v &= mask;
    return (v ^ sign) - sign;
}

inline std::uint64_t
zext(std::uint64_t v, unsigned bytes)
{
    const unsigned bits = bytes * 8;
    if (bits >= 64)
        return v;
    return v & ((std::uint64_t(1) << bits) - 1);
}

inline std::uint64_t
mulHigh(std::uint64_t a, std::uint64_t b)
{
    __int128 prod = static_cast<__int128>(asSigned(a)) *
                    static_cast<__int128>(asSigned(b));
    return static_cast<std::uint64_t>(prod >> 64);
}

/**
 * `CommitRecord{}`, defined out of line (decoded.cc): runDecoded's
 * record starts as a copy of it, which compiles to a few wide moves
 * where default-initialising the escaping record compiles to a
 * rep stos clear.
 */
extern const CommitRecord blankRecord;

/**
 * Assign every field of @p r in place: `CommitRecord{}` with pc @p pc,
 * validity @p valid and the fetch fields of @p u (MicroOp{} gives the
 * wild-fetch record).  The record escapes to the sink, so
 * `r = CommitRecord{}` would build a temporary (rep stos plus narrow
 * stores) and copy it with wide loads that cannot forward from those
 * stores, once per instruction.
 */
inline void
initRecord(CommitRecord &r, bool valid, Addr pc, const MicroOp &u)
{
    r.valid = valid;
    r.halted = false;
    r.op = u.op;
    r.cls = u.cls;
    r.pc = pc;
    r.nextPc = 0;
    r.isLoad = false;
    r.isStore = false;
    r.memAddr = 0;
    r.memSize = 0;
    r.loadValue = 0;
    r.storeValue = 0;
    r.storeOld = 0;
    r.isBranch = false;
    r.isJump = false;
    r.taken = false;
    r.wroteInt = false;
    r.wroteFp = false;
    r.rd = u.rd;
    r.destValue = 0;
    r.inst = u.inst;
    r.srcA = u.srcA;
    r.srcB = u.srcB;
    r.srcC = u.srcC;
}

} // namespace rundetail

/**
 * Execute up to @p max_uops micro-ops of @p dp starting at
 * state.pc(), delivering one CommitRecord per retired micro-op to
 * @p sink (a callable returning true to continue).  The state is
 * updated exactly as the reference executor would: pc advances per
 * instruction, a wild fetch delivers an invalid record and leaves
 * the state untouched.
 *
 * @p mem_gate is consulted *before* executing any load/store
 * micro-op and receives the micro-op's index, so the gate can
 * consult per-op static facts (the effect-summary byte bounds);
 * returning false stops the run with RunStop::MemNext and the state
 * positioned exactly at that instruction (pc unchanged, nothing
 * committed).  The commit loop uses it to stop a batch at a load or
 * store whose exact log bytes would overflow the open segment, so the
 * capacity cut runs before the access.
 */
template <typename Mem, typename Sink, typename MemGate>
RunStop
runDecoded(const DecodedProgram &dp, ArchState &state, Mem &mem,
           std::uint64_t max_uops, Sink &&sink, MemGate &&mem_gate)
{
    using rundetail::asSigned;
    using rundetail::initRecord;
    using rundetail::mulHigh;
    using rundetail::sext;
    using rundetail::zext;

    const MicroOp *const uops = dp.uops().data();
    const std::uint64_t n = dp.size();

    if (max_uops == 0)
        return RunStop::MaxUops;

    std::uint64_t executed = 0;
    Addr pc = state.pc();
    std::uint64_t idx =
        pc % instBytes == 0 ? pc / instBytes : DecodedProgram::badTarget;

    // Locals shared by the handlers; declared before the dispatch
    // label so gotos never cross an initialization.
    const MicroOp *u = nullptr;
    CommitRecord r = rundetail::blankRecord;
    Addr next_pc = 0;
    std::uint64_t next_idx = 0;
    std::uint64_t a = 0, b = 0, raw = 0, sv = 0, old = 0;
    double fa = 0.0, fb = 0.0;
    Addr addr = 0;

#if PARADOX_THREADED_DISPATCH
#define U_LABEL(name) L_##name:
#define U_DISPATCH() goto *dispatch_table[unsigned(u->op)]
#define U_NEXT() goto commit
    static const void *const dispatch_table[unsigned(
        Opcode::NumOpcodes)] = {
#define PARADOX_X(name, ...) &&L_##name,
        PARADOX_OPCODES(PARADOX_X)
#undef PARADOX_X
    };
#else
#define U_LABEL(name) case Opcode::name:
#define U_NEXT() break
#endif

    // Shared per-micro-op semantic actions, mirroring executor.cc.
#define U_WRITE_X(value)                                                \
    do {                                                                \
        const std::uint64_t v__ = (value);                              \
        state.writeX(u->rd, v__);                                       \
        r.wroteInt = u->rd != 0;                                        \
        r.destValue = v__;                                              \
    } while (0)
#define U_WRITE_F(value)                                                \
    do {                                                                \
        const double vd__ = (value);                                    \
        state.writeF(u->rd, vd__);                                      \
        r.wroteFp = true;                                               \
        r.destValue = state.readFBits(u->rd);                           \
        if (std::isinf(vd__) && !std::isinf(fa) && !std::isinf(fb))     \
            state.orFflags(ArchState::flagOverflow);                    \
    } while (0)
#define U_LOAD(size, sign_extend, to_fp)                                \
    do {                                                                \
        a = state.readX(u->rs1);                                        \
        addr = a + std::uint64_t(u->imm);                               \
        raw = mem.read(addr, (size));                                   \
        const std::uint64_t lv__ =                                      \
            (sign_extend) ? sext(raw, (size)) : zext(raw, (size));      \
        r.isLoad = true;                                                \
        r.memAddr = addr;                                               \
        r.memSize = (size);                                             \
        r.loadValue = raw;                                              \
        if (to_fp) {                                                    \
            state.writeFBits(u->rd, lv__);                              \
            r.wroteFp = true;                                           \
            r.destValue = lv__;                                         \
        } else {                                                        \
            U_WRITE_X(lv__);                                            \
        }                                                               \
    } while (0)
#define U_STORE(size, from_fp)                                          \
    do {                                                                \
        a = state.readX(u->rs1);                                        \
        addr = a + std::uint64_t(u->imm);                               \
        sv = (from_fp) ? state.readFBits(u->rs2)                        \
                       : state.readX(u->rs2);                           \
        sv = zext(sv, (size));                                          \
        old = mem.write(addr, (size), sv);                              \
        r.isStore = true;                                               \
        r.memAddr = addr;                                               \
        r.memSize = (size);                                             \
        r.storeValue = sv;                                              \
        r.storeOld = old;                                               \
    } while (0)
#define U_BRANCH(cond)                                                  \
    do {                                                                \
        a = state.readX(u->rs1);                                        \
        b = state.readX(u->rs2);                                        \
        r.isBranch = true;                                              \
        const bool take__ = (cond);                                     \
        r.taken = take__;                                               \
        if (take__) {                                                   \
            next_pc = static_cast<Addr>(u->imm);                        \
            next_idx = u->target;                                       \
        }                                                               \
    } while (0)
#define U_READ_AB()                                                     \
    do {                                                                \
        a = state.readX(u->rs1);                                        \
        b = state.readX(u->rs2);                                        \
    } while (0)
#define U_READ_FAB()                                                    \
    do {                                                                \
        fa = state.readF(u->rs1);                                       \
        fb = state.readF(u->rs2);                                       \
    } while (0)

dispatch:
    if (idx >= n) {
        // Wild fetch: an invalid record with the state untouched,
        // exactly as the reference executor reports it.
        initRecord(r, false, pc, MicroOp{});
        sink(static_cast<const CommitRecord &>(r));
        return RunStop::WildFetch;
    }
    u = &uops[idx];
    if ((u->isLoad || u->isStore) && !mem_gate(idx))
        return RunStop::MemNext;
    initRecord(r, true, pc, *u);
    next_pc = pc + instBytes;
    next_idx = idx + 1;
#if PARADOX_THREADED_DISPATCH
    U_DISPATCH();
#else
    switch (u->op) {
#endif

    U_LABEL(ADD)  U_READ_AB(); U_WRITE_X(a + b); U_NEXT();
    U_LABEL(SUB)  U_READ_AB(); U_WRITE_X(a - b); U_NEXT();
    U_LABEL(AND_) U_READ_AB(); U_WRITE_X(a & b); U_NEXT();
    U_LABEL(OR_)  U_READ_AB(); U_WRITE_X(a | b); U_NEXT();
    U_LABEL(XOR_) U_READ_AB(); U_WRITE_X(a ^ b); U_NEXT();
    U_LABEL(SLL)  U_READ_AB(); U_WRITE_X(a << (b & 63)); U_NEXT();
    U_LABEL(SRL)  U_READ_AB(); U_WRITE_X(a >> (b & 63)); U_NEXT();
    U_LABEL(SRA)
        U_READ_AB();
        U_WRITE_X(std::uint64_t(asSigned(a) >> (b & 63)));
        U_NEXT();
    U_LABEL(SLT)
        U_READ_AB();
        U_WRITE_X(asSigned(a) < asSigned(b) ? 1 : 0);
        U_NEXT();
    U_LABEL(SLTU) U_READ_AB(); U_WRITE_X(a < b ? 1 : 0); U_NEXT();
    U_LABEL(MUL)  U_READ_AB(); U_WRITE_X(a * b); U_NEXT();
    U_LABEL(MULH) U_READ_AB(); U_WRITE_X(mulHigh(a, b)); U_NEXT();
    U_LABEL(DIV)
        U_READ_AB();
        if (b == 0) {
            U_WRITE_X(~std::uint64_t(0));
        } else if (asSigned(a) ==
                       std::numeric_limits<std::int64_t>::min() &&
                   asSigned(b) == -1) {
            U_WRITE_X(a);  // overflow: result is INT64_MIN
        } else {
            U_WRITE_X(std::uint64_t(asSigned(a) / asSigned(b)));
        }
        U_NEXT();
    U_LABEL(DIVU)
        U_READ_AB();
        U_WRITE_X(b == 0 ? ~std::uint64_t(0) : a / b);
        U_NEXT();
    U_LABEL(REM)
        U_READ_AB();
        if (b == 0) {
            U_WRITE_X(a);
        } else if (asSigned(a) ==
                       std::numeric_limits<std::int64_t>::min() &&
                   asSigned(b) == -1) {
            U_WRITE_X(0);
        } else {
            U_WRITE_X(std::uint64_t(asSigned(a) % asSigned(b)));
        }
        U_NEXT();
    U_LABEL(REMU)
        U_READ_AB();
        U_WRITE_X(b == 0 ? a : a % b);
        U_NEXT();

    U_LABEL(ADDI)
        a = state.readX(u->rs1);
        U_WRITE_X(a + std::uint64_t(u->imm));
        U_NEXT();
    U_LABEL(ANDI)
        a = state.readX(u->rs1);
        U_WRITE_X(a & std::uint64_t(u->imm));
        U_NEXT();
    U_LABEL(ORI)
        a = state.readX(u->rs1);
        U_WRITE_X(a | std::uint64_t(u->imm));
        U_NEXT();
    U_LABEL(XORI)
        a = state.readX(u->rs1);
        U_WRITE_X(a ^ std::uint64_t(u->imm));
        U_NEXT();
    U_LABEL(SLLI)
        a = state.readX(u->rs1);
        U_WRITE_X(a << (u->imm & 63));
        U_NEXT();
    U_LABEL(SRLI)
        a = state.readX(u->rs1);
        U_WRITE_X(a >> (u->imm & 63));
        U_NEXT();
    U_LABEL(SRAI)
        a = state.readX(u->rs1);
        U_WRITE_X(std::uint64_t(asSigned(a) >> (u->imm & 63)));
        U_NEXT();
    U_LABEL(SLTI)
        a = state.readX(u->rs1);
        U_WRITE_X(asSigned(a) < u->imm ? 1 : 0);
        U_NEXT();
    U_LABEL(LDI) U_WRITE_X(std::uint64_t(u->imm)); U_NEXT();

    U_LABEL(LB)  U_LOAD(1, true, false); U_NEXT();
    U_LABEL(LBU) U_LOAD(1, false, false); U_NEXT();
    U_LABEL(LH)  U_LOAD(2, true, false); U_NEXT();
    U_LABEL(LHU) U_LOAD(2, false, false); U_NEXT();
    U_LABEL(LW)  U_LOAD(4, true, false); U_NEXT();
    U_LABEL(LWU) U_LOAD(4, false, false); U_NEXT();
    U_LABEL(LD)  U_LOAD(8, false, false); U_NEXT();
    U_LABEL(FLD) U_LOAD(8, false, true); U_NEXT();

    U_LABEL(SB)  U_STORE(1, false); U_NEXT();
    U_LABEL(SH)  U_STORE(2, false); U_NEXT();
    U_LABEL(SW)  U_STORE(4, false); U_NEXT();
    U_LABEL(SD)  U_STORE(8, false); U_NEXT();
    U_LABEL(FSD) U_STORE(8, true); U_NEXT();

    U_LABEL(BEQ)  U_BRANCH(a == b); U_NEXT();
    U_LABEL(BNE)  U_BRANCH(a != b); U_NEXT();
    U_LABEL(BLT)  U_BRANCH(asSigned(a) < asSigned(b)); U_NEXT();
    U_LABEL(BGE)  U_BRANCH(asSigned(a) >= asSigned(b)); U_NEXT();
    U_LABEL(BLTU) U_BRANCH(a < b); U_NEXT();
    U_LABEL(BGEU) U_BRANCH(a >= b); U_NEXT();

    U_LABEL(JAL)
        U_WRITE_X(pc + instBytes);
        r.isJump = true;
        r.taken = true;
        next_pc = static_cast<Addr>(u->imm);
        next_idx = u->target;
        U_NEXT();
    U_LABEL(JALR)
        a = state.readX(u->rs1);
        U_WRITE_X(pc + instBytes);
        r.isJump = true;
        r.taken = true;
        next_pc = (a + std::uint64_t(u->imm)) & ~Addr(instBytes - 1);
        next_idx = next_pc / instBytes;  // aligned by construction
        U_NEXT();

    U_LABEL(FADD)
        U_READ_FAB();
        U_WRITE_F(fpNanFirst(fa + fb, fa, fb));
        U_NEXT();
    U_LABEL(FSUB) U_READ_FAB(); U_WRITE_F(fa - fb); U_NEXT();
    U_LABEL(FMUL)
        U_READ_FAB();
        U_WRITE_F(fpNanFirst(fa * fb, fa, fb));
        U_NEXT();
    U_LABEL(FDIV)
        U_READ_FAB();
        if (fb == 0.0)
            state.orFflags(ArchState::flagDivZero);
        U_WRITE_F(fa / fb);
        U_NEXT();
    U_LABEL(FSQRT)
        U_READ_FAB();
        if (fa < 0.0)
            state.orFflags(ArchState::flagInvalid);
        U_WRITE_F(std::sqrt(fa));
        U_NEXT();
    U_LABEL(FMIN) U_READ_FAB(); U_WRITE_F(fpMin(fa, fb)); U_NEXT();
    U_LABEL(FMAX) U_READ_FAB(); U_WRITE_F(fpMax(fa, fb)); U_NEXT();
    U_LABEL(FNEG) U_READ_FAB(); U_WRITE_F(-fa); U_NEXT();
    U_LABEL(FABS) U_READ_FAB(); U_WRITE_F(std::fabs(fa)); U_NEXT();
    U_LABEL(FMADD)
        // rd <- rs1 * rs2 + rd (rd doubles as accumulator source).
        U_READ_FAB();
        fa = fpNanFirst(fa * fb, fa, fb);
        fb = state.readF(u->rd);
        U_WRITE_F(fpNanFirst(fa + fb, fa, fb));
        U_NEXT();
    U_LABEL(FCVT_D_L)
        U_READ_FAB();
        a = state.readX(u->rs1);
        U_WRITE_F(static_cast<double>(asSigned(a)));
        U_NEXT();
    U_LABEL(FCVT_L_D)
        fa = state.readF(u->rs1);
        if (std::isnan(fa)) {
            state.orFflags(ArchState::flagInvalid);
            U_WRITE_X(0);
        } else if (fa >= 9.2233720368547758e18) {
            U_WRITE_X(
                std::uint64_t(std::numeric_limits<std::int64_t>::max()));
        } else if (fa <= -9.2233720368547758e18) {
            U_WRITE_X(
                std::uint64_t(std::numeric_limits<std::int64_t>::min()));
        } else {
            U_WRITE_X(std::uint64_t(static_cast<std::int64_t>(fa)));
        }
        U_NEXT();
    U_LABEL(FMV_X_D)
        U_WRITE_X(state.readFBits(u->rs1));
        U_NEXT();
    U_LABEL(FMV_D_X)
        a = state.readX(u->rs1);
        state.writeFBits(u->rd, a);
        r.wroteFp = true;
        r.destValue = a;
        U_NEXT();
    U_LABEL(FEQ)
        U_READ_FAB();
        U_WRITE_X(fa == fb ? 1 : 0);
        U_NEXT();
    U_LABEL(FLT_)
        U_READ_FAB();
        U_WRITE_X(fa < fb ? 1 : 0);
        U_NEXT();
    U_LABEL(FLE)
        U_READ_FAB();
        U_WRITE_X(fa <= fb ? 1 : 0);
        U_NEXT();

    U_LABEL(NOP) U_NEXT();
    U_LABEL(SYSCALL)
        // Deterministic stand-in for a rollback-able syscall: the
        // "kernel" hashes the argument register into the result.
        a = state.readX(u->rs1);
        U_WRITE_X((a ^ 0x53594e4353595343ULL) * 0x9e3779b97f4a7c15ULL);
        U_NEXT();
    U_LABEL(HALT)
        r.halted = true;
        U_NEXT();

#if !PARADOX_THREADED_DISPATCH
      default:
        break;
    }
#endif

commit:
    r.nextPc = next_pc;
    state.setPc(next_pc);
    ++executed;
    if (!sink(static_cast<const CommitRecord &>(r)))
        return RunStop::SinkStop;
    if (r.halted)
        return RunStop::Halted;
    pc = next_pc;
    idx = next_idx;
    if (executed >= max_uops)
        return RunStop::MaxUops;
    goto dispatch;

#undef U_LABEL
#undef U_DISPATCH
#undef U_NEXT
#undef U_WRITE_X
#undef U_WRITE_F
#undef U_LOAD
#undef U_STORE
#undef U_BRANCH
#undef U_READ_AB
#undef U_READ_FAB
}

/** runDecoded() with an always-open memory gate. */
template <typename Mem, typename Sink>
RunStop
runDecoded(const DecodedProgram &dp, ArchState &state, Mem &mem,
           std::uint64_t max_uops, Sink &&sink)
{
    return runDecoded(dp, state, mem, max_uops,
                      std::forward<Sink>(sink), rundetail::NoMemGate{});
}

} // namespace isa
} // namespace paradox

#endif // PARADOX_ISA_DECODED_RUN_HH
