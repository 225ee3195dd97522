#include "isa_oracle.hh"

#include <bit>
#include <cmath>
#include <limits>

#include "isa/decoded_run.hh"
#include "isa/fp_minmax.hh"
#include "sim/logging.hh"

namespace paradox
{
namespace isa
{

namespace
{

std::int64_t
asSigned(std::uint64_t v)
{
    return static_cast<std::int64_t>(v);
}

std::uint64_t
signExtend(std::uint64_t v, unsigned bytes)
{
    const unsigned bits = bytes * 8;
    if (bits >= 64)
        return v;
    const std::uint64_t sign = std::uint64_t(1) << (bits - 1);
    const std::uint64_t mask = (std::uint64_t(1) << bits) - 1;
    v &= mask;
    return (v ^ sign) - sign;
}

std::uint64_t
zeroExtend(std::uint64_t v, unsigned bytes)
{
    const unsigned bits = bytes * 8;
    if (bits >= 64)
        return v;
    return v & ((std::uint64_t(1) << bits) - 1);
}

/** Signed 128-bit high multiply via __int128. */
std::uint64_t
mulHigh(std::uint64_t a, std::uint64_t b)
{
    __int128 prod = static_cast<__int128>(asSigned(a)) *
                    static_cast<__int128>(asSigned(b));
    return static_cast<std::uint64_t>(prod >> 64);
}

} // namespace

ExecResult
step(const Program &prog, ArchState &state, MemIf &mem)
{
    ExecResult r;
    r.pc = state.pc();

    const Instruction *inst = prog.fetch(state.pc());
    if (!inst)
        return r;  // valid stays false: wild fetch

    const InstInfo &ii = inst->info();
    r.valid = true;
    r.op = inst->op;
    r.cls = ii.cls;
    r.rd = inst->rd;

    Addr next_pc = state.pc() + instBytes;

    const std::uint64_t a = state.readX(inst->rs1);
    const std::uint64_t b = state.readX(inst->rs2);
    const double fa = state.readF(inst->rs1);
    const double fb = state.readF(inst->rs2);
    const std::int64_t imm = inst->imm;

    auto writeX = [&](std::uint64_t v) {
        state.writeX(inst->rd, v);
        r.wroteInt = inst->rd != 0;
        r.destValue = v;
    };
    auto writeF = [&](double v) {
        state.writeF(inst->rd, v);
        r.wroteFp = true;
        r.destValue = state.readFBits(inst->rd);
        if (std::isinf(v) && !std::isinf(fa) && !std::isinf(fb))
            state.orFflags(ArchState::flagOverflow);
    };

    auto doLoad = [&](unsigned size, bool sign_extend, bool to_fp) {
        Addr addr = a + imm;
        std::uint64_t raw = mem.read(addr, size);
        std::uint64_t v =
            sign_extend ? signExtend(raw, size) : zeroExtend(raw, size);
        r.isLoad = true;
        r.memAddr = addr;
        r.memSize = size;
        r.loadValue = raw;
        if (to_fp) {
            state.writeFBits(inst->rd, v);
            r.wroteFp = true;
            r.destValue = v;
        } else {
            writeX(v);
        }
    };

    auto doStore = [&](unsigned size, bool from_fp) {
        Addr addr = a + imm;
        std::uint64_t v = from_fp ? state.readFBits(inst->rs2) : b;
        v = zeroExtend(v, size);
        std::uint64_t old = mem.write(addr, size, v);
        r.isStore = true;
        r.memAddr = addr;
        r.memSize = size;
        r.storeValue = v;
        r.storeOld = old;
    };

    auto doBranch = [&](bool take) {
        r.isBranch = true;
        r.taken = take;
        if (take)
            next_pc = static_cast<Addr>(imm);
    };

    switch (inst->op) {
      case Opcode::ADD:  writeX(a + b); break;
      case Opcode::SUB:  writeX(a - b); break;
      case Opcode::AND_: writeX(a & b); break;
      case Opcode::OR_:  writeX(a | b); break;
      case Opcode::XOR_: writeX(a ^ b); break;
      case Opcode::SLL:  writeX(a << (b & 63)); break;
      case Opcode::SRL:  writeX(a >> (b & 63)); break;
      case Opcode::SRA:  writeX(std::uint64_t(asSigned(a) >> (b & 63)));
        break;
      case Opcode::SLT:  writeX(asSigned(a) < asSigned(b) ? 1 : 0); break;
      case Opcode::SLTU: writeX(a < b ? 1 : 0); break;
      case Opcode::MUL:  writeX(a * b); break;
      case Opcode::MULH: writeX(mulHigh(a, b)); break;
      case Opcode::DIV:
        if (b == 0) {
            writeX(~std::uint64_t(0));
        } else if (asSigned(a) == std::numeric_limits<std::int64_t>::min()
                   && asSigned(b) == -1) {
            writeX(a);  // overflow: result is INT64_MIN
        } else {
            writeX(std::uint64_t(asSigned(a) / asSigned(b)));
        }
        break;
      case Opcode::DIVU: writeX(b == 0 ? ~std::uint64_t(0) : a / b); break;
      case Opcode::REM:
        if (b == 0) {
            writeX(a);
        } else if (asSigned(a) == std::numeric_limits<std::int64_t>::min()
                   && asSigned(b) == -1) {
            writeX(0);
        } else {
            writeX(std::uint64_t(asSigned(a) % asSigned(b)));
        }
        break;
      case Opcode::REMU: writeX(b == 0 ? a : a % b); break;

      case Opcode::ADDI: writeX(a + std::uint64_t(imm)); break;
      case Opcode::ANDI: writeX(a & std::uint64_t(imm)); break;
      case Opcode::ORI:  writeX(a | std::uint64_t(imm)); break;
      case Opcode::XORI: writeX(a ^ std::uint64_t(imm)); break;
      case Opcode::SLLI: writeX(a << (imm & 63)); break;
      case Opcode::SRLI: writeX(a >> (imm & 63)); break;
      case Opcode::SRAI: writeX(std::uint64_t(asSigned(a) >> (imm & 63)));
        break;
      case Opcode::SLTI: writeX(asSigned(a) < imm ? 1 : 0); break;
      case Opcode::LDI:  writeX(std::uint64_t(imm)); break;

      case Opcode::LB:  doLoad(1, true, false); break;
      case Opcode::LBU: doLoad(1, false, false); break;
      case Opcode::LH:  doLoad(2, true, false); break;
      case Opcode::LHU: doLoad(2, false, false); break;
      case Opcode::LW:  doLoad(4, true, false); break;
      case Opcode::LWU: doLoad(4, false, false); break;
      case Opcode::LD:  doLoad(8, false, false); break;
      case Opcode::FLD: doLoad(8, false, true); break;

      case Opcode::SB: doStore(1, false); break;
      case Opcode::SH: doStore(2, false); break;
      case Opcode::SW: doStore(4, false); break;
      case Opcode::SD: doStore(8, false); break;
      case Opcode::FSD: doStore(8, true); break;

      case Opcode::BEQ:  doBranch(a == b); break;
      case Opcode::BNE:  doBranch(a != b); break;
      case Opcode::BLT:  doBranch(asSigned(a) < asSigned(b)); break;
      case Opcode::BGE:  doBranch(asSigned(a) >= asSigned(b)); break;
      case Opcode::BLTU: doBranch(a < b); break;
      case Opcode::BGEU: doBranch(a >= b); break;

      case Opcode::JAL:
        writeX(state.pc() + instBytes);
        r.isJump = true;
        r.taken = true;
        next_pc = static_cast<Addr>(imm);
        break;
      case Opcode::JALR:
        writeX(state.pc() + instBytes);
        r.isJump = true;
        r.taken = true;
        next_pc = (a + std::uint64_t(imm)) & ~Addr(instBytes - 1);
        break;

      case Opcode::FADD: writeF(fpNanFirst(fa + fb, fa, fb)); break;
      case Opcode::FSUB: writeF(fa - fb); break;
      case Opcode::FMUL: writeF(fpNanFirst(fa * fb, fa, fb)); break;
      case Opcode::FDIV:
        if (fb == 0.0)
            state.orFflags(ArchState::flagDivZero);
        writeF(fa / fb);
        break;
      case Opcode::FSQRT:
        if (fa < 0.0)
            state.orFflags(ArchState::flagInvalid);
        writeF(std::sqrt(fa));
        break;
      case Opcode::FMIN: writeF(fpMin(fa, fb)); break;
      case Opcode::FMAX: writeF(fpMax(fa, fb)); break;
      case Opcode::FNEG: writeF(-fa); break;
      case Opcode::FABS: writeF(std::fabs(fa)); break;
      case Opcode::FMADD: {
        // rd <- rs1 * rs2 + rd (rd doubles as accumulator source).
        const double p = fpNanFirst(fa * fb, fa, fb);
        const double c = state.readF(inst->rd);
        writeF(fpNanFirst(p + c, p, c));
        break;
      }
      case Opcode::FCVT_D_L:
        writeF(static_cast<double>(asSigned(a)));
        break;
      case Opcode::FCVT_L_D:
        if (std::isnan(fa)) {
            state.orFflags(ArchState::flagInvalid);
            writeX(0);
        } else if (fa >= 9.2233720368547758e18) {
            writeX(std::uint64_t(std::numeric_limits<std::int64_t>::max()));
        } else if (fa <= -9.2233720368547758e18) {
            writeX(std::uint64_t(std::numeric_limits<std::int64_t>::min()));
        } else {
            writeX(std::uint64_t(static_cast<std::int64_t>(fa)));
        }
        break;
      case Opcode::FMV_X_D: writeX(state.readFBits(inst->rs1)); break;
      case Opcode::FMV_D_X:
        state.writeFBits(inst->rd, a);
        r.wroteFp = true;
        r.destValue = a;
        break;
      case Opcode::FEQ:  writeX(fa == fb ? 1 : 0); break;
      case Opcode::FLT_: writeX(fa < fb ? 1 : 0); break;
      case Opcode::FLE:  writeX(fa <= fb ? 1 : 0); break;

      case Opcode::NOP: break;
      case Opcode::SYSCALL:
        // Deterministic stand-in for a rollback-able syscall: the
        // "kernel" hashes the argument register into the result.
        writeX((a ^ 0x53594e4353595343ULL) * 0x9e3779b97f4a7c15ULL);
        break;
      case Opcode::HALT:
        r.halted = true;
        break;

      default:
        panic("executor: unhandled opcode");
    }

    r.nextPc = next_pc;
    state.setPc(next_pc);
    return r;
}

CommitRecord
makeCommitRecord(const Instruction &inst, const ExecResult &r)
{
    CommitRecord rec;
    static_cast<ExecResult &>(rec) = r;
    rec.inst = &inst;
    const SourceRegs s = decodeSources(inst);
    rec.srcA = s.a;
    rec.srcB = s.b;
    rec.srcC = s.c;
    return rec;
}

MemPeek
ReferenceEngine::peekMem(const ArchState &state) const
{
    MemPeek p;
    const Instruction *inst = prog_.fetch(state.pc());
    if (!inst)
        return p;
    p.valid = true;
    const InstInfo &ii = inst->info();
    if (ii.isLoad || ii.isStore) {
        p.isLoad = ii.isLoad;
        p.isStore = ii.isStore;
        p.addr = state.readX(inst->rs1) + std::uint64_t(inst->imm);
        p.size = ii.memSize;
    }
    return p;
}

CommitRecord
ReferenceEngine::step(ArchState &state, MemIf &mem)
{
    const Addr pc = state.pc();
    const ExecResult r = isa::step(prog_, state, mem);
    if (!r.valid) {
        CommitRecord wild;
        static_cast<ExecResult &>(wild) = r;
        return wild;
    }
    return makeCommitRecord(*prog_.fetch(pc), r);
}

MemPeek
DecodedEngine::peekMem(const ArchState &state) const
{
    MemPeek p;
    const Addr pc = state.pc();
    const std::size_t idx = pc / instBytes;
    if (pc % instBytes != 0 || idx >= dp_->size())
        return p;
    const MicroOp &u = dp_->at(idx);
    p.valid = true;
    if (u.isLoad || u.isStore) {
        p.isLoad = u.isLoad;
        p.isStore = u.isStore;
        p.addr = effectiveAddr(u, state);
        p.size = u.memSize;
    }
    return p;
}

CommitRecord
DecodedEngine::step(ArchState &state, MemIf &mem)
{
    CommitRecord out;
    runDecoded(*dp_, state, mem, 1,
               [&out](const CommitRecord &r) {
                   out = r;
                   return true;
               });
    return out;
}

std::unique_ptr<Engine>
makeEngine(EngineKind kind, const Program &prog)
{
    if (kind == EngineKind::Reference)
        return std::make_unique<ReferenceEngine>(prog);
    return std::make_unique<DecodedEngine>(prog);
}

} // namespace isa
} // namespace paradox
