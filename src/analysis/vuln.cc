#include "analysis/vuln.hh"

#include <cstdio>
#include <sstream>

#include "analysis/ai.hh"
#include "analysis/diagnostic.hh"
#include "analysis/passes.hh"
#include "isa/opcode.hh"

namespace paradox
{
namespace analysis
{

namespace
{

using SlotMasks = VulnAnalysis::SlotMasks;

constexpr std::uint64_t allBits = ~std::uint64_t(0);
constexpr std::uint64_t signBit = std::uint64_t(1) << 63;

/** Bits 0..highest-set-bit of @p m (carry propagates upward). */
std::uint64_t
smearDown(std::uint64_t m)
{
    return m ? (allBits >> __builtin_clzll(m)) : 0;
}

/** Bits lowest-set-bit..63 of @p m (right shifts move downward). */
std::uint64_t
smearUp(std::uint64_t m)
{
    return m ? (allBits << __builtin_ctzll(m)) : 0;
}

std::uint64_t
lowMask(unsigned bits)
{
    return bits >= 64 ? allBits : ((std::uint64_t(1) << bits) - 1);
}

/** Bits that could be 1 in some value of the box. */
std::uint64_t
possibleOnes(const Interval &iv)
{
    if (iv.isBottom())
        return 0;
    if (iv.isConstant())
        return std::uint64_t(iv.lo);
    if (iv.lo >= 0)
        return smearDown(std::uint64_t(iv.hi));
    return allBits;  // negative values have high bits set
}

/** Bits that are 1 in every value of the box. */
std::uint64_t
forcedOnes(const Interval &iv)
{
    return iv.isConstant() ? std::uint64_t(iv.lo) : 0;
}

/**
 * Backward gen step for one instruction.  @p M is the live-out mask
 * of the destination *before* the kill; @p iv is the interval state
 * on entry to the instruction (null when unavailable).
 *
 * Everything here must stay value independent: a bit is added to a
 * source's mask whenever *any* runtime value could propagate it into
 * @p M or into the segment log.  Interval-based pruning drops a bit
 * of one operand only when another operand that *remains live* (and
 * is therefore uncorrupted under the dead-site contract) provably
 * masks it.
 */
void
genUses(SlotMasks &live, const isa::Instruction &inst, std::uint64_t M,
        const RegState *iv)
{
    using isa::Opcode;
    // x0 always reads zero; corrupting it is architecturally
    // impossible (ArchState::flipBit never maps onto it), so slot 0
    // never accumulates liveness.
    const auto g = [&live](unsigned slot, std::uint64_t m) {
        if (slot != 0)
            live[slot] |= m;
    };
    const unsigned x1 = xslot(inst.rs1), x2 = xslot(inst.rs2);
    const unsigned f1 = fslot(inst.rs1), f2 = fslot(inst.rs2);

    switch (inst.op) {
      // Carry chains: source bit b reaches result bits >= b only.
      case Opcode::ADD:
      case Opcode::SUB:
      case Opcode::MUL:
        g(x1, smearDown(M));
        g(x2, smearDown(M));
        break;
      case Opcode::ADDI:
        g(x1, smearDown(M));
        break;

      // No useful per-bit structure: any source bit can reach any
      // result bit.
      case Opcode::MULH:
      case Opcode::DIV:
      case Opcode::DIVU:
      case Opcode::REM:
      case Opcode::REMU:
        if (M) {
            g(x1, allBits);
            g(x2, allBits);
        }
        break;

      case Opcode::AND_: {
        std::uint64_t m1 = M, m2 = M;
        if (iv) {
            // Prune at most ONE side: the masking operand must keep
            // its zero bits live (uncorrupted), or two simultaneous
            // "dead" flips could conspire to flip a live result bit.
            const std::uint64_t ones2 = possibleOnes(iv->regs[inst.rs2]);
            const std::uint64_t ones1 = possibleOnes(iv->regs[inst.rs1]);
            if ((M & ~ones2) != 0)
                m1 &= ones2;
            else if ((M & ~ones1) != 0)
                m2 &= ones1;
        }
        g(x1, m1);
        g(x2, m2);
        break;
      }
      case Opcode::OR_: {
        std::uint64_t m1 = M, m2 = M;
        if (iv) {
            const std::uint64_t one2 = forcedOnes(iv->regs[inst.rs2]);
            const std::uint64_t one1 = forcedOnes(iv->regs[inst.rs1]);
            if ((M & one2) != 0)
                m1 &= ~one2;
            else if ((M & one1) != 0)
                m2 &= ~one1;
        }
        g(x1, m1);
        g(x2, m2);
        break;
      }
      case Opcode::XOR_:
        g(x1, M);
        g(x2, M);
        break;

      // Immediates are encoded in the program image and cannot be
      // corrupted, so they prune unconditionally.
      case Opcode::ANDI:
        g(x1, M & std::uint64_t(inst.imm));
        break;
      case Opcode::ORI:
        g(x1, M & ~std::uint64_t(inst.imm));
        break;
      case Opcode::XORI:
        g(x1, M);
        break;

      case Opcode::SLLI:
        g(x1, M >> (unsigned(inst.imm) & 63));
        break;
      case Opcode::SRLI:
        g(x1, M << (unsigned(inst.imm) & 63));
        break;
      case Opcode::SRAI: {
        const unsigned sh = unsigned(inst.imm) & 63;
        std::uint64_t m = M << sh;
        // Result bits whose source index exceeds 63 replicate the
        // sign bit.
        if (sh && (M >> (64 - sh)) != 0)
            m |= signBit;
        g(x1, m);
        break;
      }

      // Variable shifts: the amount is unknown, so smear toward the
      // direction bits can travel from; the low 6 amount bits steer.
      case Opcode::SLL:
        g(x1, smearDown(M));
        if (M)
            g(x2, 0x3f);
        break;
      case Opcode::SRL:
      case Opcode::SRA:
        g(x1, smearUp(M));
        if (M)
            g(x2, 0x3f);
        break;

      // Comparisons collapse to bit 0.
      case Opcode::SLT:
      case Opcode::SLTU:
        if (M & 1) {
            g(x1, allBits);
            g(x2, allBits);
        }
        break;
      case Opcode::SLTI:
        if (M & 1)
            g(x1, allBits);
        break;

      case Opcode::LDI:
      case Opcode::NOP:
      case Opcode::HALT:
      case Opcode::JAL:  // link value is pc+4: incorruptible
        break;

      // Loads: the base register addresses the segment log; any flip
      // is a LoadEntryMismatch in the checker or a wrong access on
      // the main core, so it is live regardless of the destination.
      case Opcode::LB:
      case Opcode::LBU:
      case Opcode::LH:
      case Opcode::LHU:
      case Opcode::LW:
      case Opcode::LWU:
      case Opcode::LD:
      case Opcode::FLD:
        g(x1, allBits);
        break;

      // Stores: base as above; the value is compared (and written)
      // to the access width only -- the executor masks it first.
      case Opcode::SB:
      case Opcode::SH:
      case Opcode::SW:
      case Opcode::SD:
        g(x1, allBits);
        g(x2, lowMask(unsigned(inst.info().memSize) * 8));
        break;
      case Opcode::FSD:
        g(x1, allBits);
        g(f2, allBits);
        break;

      // Branch operands steer control flow (entry counts, watchdog
      // budget): always fully live, which is also what licenses the
      // infeasible-edge pruning in the fixpoint.
      case Opcode::BEQ:
      case Opcode::BNE:
      case Opcode::BLT:
      case Opcode::BGE:
      case Opcode::BLTU:
      case Opcode::BGEU:
        g(x1, allBits);
        g(x2, allBits);
        break;
      case Opcode::JALR:
        // The executor aligns the target with & ~3: bits 0-1 of the
        // base never reach the pc.
        g(x1, allBits & ~std::uint64_t(3));
        break;

      // FP arithmetic: rounding couples every source bit to every
      // result bit.  fflags side effects only reach the final-state
      // compare, so a fully dead destination generates nothing.
      case Opcode::FADD:
      case Opcode::FSUB:
      case Opcode::FMUL:
      case Opcode::FDIV:
      case Opcode::FMIN:
      case Opcode::FMAX:
        if (M) {
            g(f1, allBits);
            g(f2, allBits);
        }
        break;
      case Opcode::FSQRT:
        if (M)
            g(f1, allBits);
        break;
      case Opcode::FNEG:
        g(f1, M);  // pure sign-bit flip: bit-transparent
        break;
      case Opcode::FABS:
        g(f1, M & ~signBit);
        break;
      case Opcode::FMADD:
        if (M) {
            g(f1, allBits);
            g(f2, allBits);
            g(fslot(inst.rd), allBits);  // accumulator is a source
        }
        break;
      case Opcode::FCVT_D_L:
        if (M)
            g(x1, allBits);
        break;
      case Opcode::FCVT_L_D:
        if (M)
            g(f1, allBits);
        break;
      case Opcode::FMV_X_D:
        g(f1, M);
        break;
      case Opcode::FMV_D_X:
        g(x1, M);
        break;
      case Opcode::FEQ:
      case Opcode::FLT_:
      case Opcode::FLE:
        if (M & 1) {
            g(f1, allBits);
            g(f2, allBits);
        }
        break;

      case Opcode::SYSCALL:
        // (a ^ C) * odd-C': xor is bit-transparent, the multiply
        // propagates upward only.
        g(x1, smearDown(M));
        break;

      // No default: -Wswitch flags an opcode added without a case.
      case Opcode::NumOpcodes:
        break;
    }
}

} // namespace

const char *
toString(SiteVerdict v)
{
    switch (v) {
      case SiteVerdict::Live: return "live";
      case SiteVerdict::Dead: return "dead";
      case SiteVerdict::Unknown: break;
    }
    return "unknown";
}

VulnAnalysis
VulnAnalysis::run(const isa::Program &prog, const Cfg &cfg,
                  const std::vector<bool> &reachable,
                  const VulnOptions &opts)
{
    VulnAnalysis va;
    const auto &code = prog.code();
    const std::size_t n = code.size();
    const std::size_t nb = cfg.blocks().size();
    va.liveOut_.assign(n, SlotMasks{});

    // FNV-1a over the instruction stream: the staleness key for
    // paradox-vuln/1 consumers.
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    for (const isa::Instruction &inst : code) {
        mix(std::uint64_t(inst.op) | (std::uint64_t(inst.rd) << 8) |
            (std::uint64_t(inst.rs1) << 16) |
            (std::uint64_t(inst.rs2) << 24));
        mix(std::uint64_t(inst.imm));
    }
    va.hash_ = h;

    const IntervalAnalysis *ai = opts.intervals;
    if (ai && !ai->converged())
        ai = nullptr;  // unconverged boxes prove nothing
    va.stats_.intervalsUsed = ai != nullptr;

    // Interval in-state per instruction, forward-walked from block
    // entries: feeds the AND/OR masking prunes and resolves
    // load/store addresses for the byte pass.
    std::vector<RegState> ivIn;
    if (ai) {
        ivIn.assign(n, RegState{});
        for (std::size_t b = 0; b < nb; ++b) {
            if (!reachable[b])
                continue;
            RegState s = ai->blockIn(b);
            const BasicBlock &blk = cfg.blocks()[b];
            for (std::size_t i = blk.first; i <= blk.last; ++i) {
                ivIn[i] = s;
                IntervalAnalysis::transfer(code[i], i, s);
            }
        }
    }

    std::vector<SlotMasks> blockLiveIn(nb, SlotMasks{});

    const auto transferBlock = [&](std::size_t b, SlotMasks live,
                                   bool record) {
        const BasicBlock &blk = cfg.blocks()[b];
        for (std::size_t i = blk.last + 1; i-- > blk.first;) {
            if (record)
                va.liveOut_[i] = live;
            const isa::Instruction &inst = code[i];
            const UseDef ud = useDef(inst);
            const std::uint64_t M =
                ud.def >= 0 ? live[unsigned(ud.def)] : 0;
            if (ud.def >= 0)
                live[unsigned(ud.def)] = 0;
            genUses(live, inst, M,
                    ai && ivIn[i].feasible ? &ivIn[i] : nullptr);
        }
        return live;
    };

    const auto blockOut = [&](std::size_t b) {
        const BasicBlock &blk = cfg.blocks()[b];
        SlotMasks out{};
        if (blk.indirect || blk.fallsOffEnd) {
            out.fill(allBits);  // unknown continuation: everything live
            return out;
        }
        for (std::size_t s : blk.succs) {
            // An interval-infeasible successor never executes, and
            // because branch operands are always fully live a dead
            // fault cannot steer execution into it either.
            if (ai && !ai->blockIn(s).feasible)
                continue;
            for (unsigned k = 0; k < numRegSlots; ++k)
                out[k] |= blockLiveIn[s][k];
        }
        // No successors (a halt block): registers are NOT
        // architectural output -- the final-state compare may still
        // see a dead flip, but only as a FinalStateMismatch.
        return out;
    };

    // The transfer is monotone over a finite lattice, so the
    // reverse-order sweep converges; no cap needed.
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t b = nb; b-- > 0;) {
            if (!reachable[b])
                continue;
            SlotMasks in = transferBlock(b, blockOut(b), false);
            if (in != blockLiveIn[b]) {
                blockLiveIn[b] = in;
                changed = true;
            }
        }
    }

    // Record per-instruction masks and the aggregate statistics.
    std::uint64_t totalLive = 0, totalBits = 0;
    va.stats_.blockLiveFraction.assign(nb, 0.0);
    for (std::size_t b = 0; b < nb; ++b) {
        if (!reachable[b])
            continue;
        transferBlock(b, blockOut(b), true);
        const BasicBlock &blk = cfg.blocks()[b];
        std::uint64_t blive = 0;
        for (std::size_t i = blk.first; i <= blk.last; ++i) {
            const UseDef ud = useDef(code[i]);
            for (unsigned k = 0; k < numRegSlots; ++k)
                va.everLive_[k] |= va.liveOut_[i][k];
            if (ud.def > 0)
                va.classDestLive_[std::size_t(code[i].info().cls)] |=
                    va.liveOut_[i][unsigned(ud.def)];
            for (unsigned k = 0; k < numRegSlots; ++k)
                blive += std::uint64_t(
                    __builtin_popcountll(va.liveOut_[i][k]));
        }
        const std::uint64_t bbits =
            std::uint64_t(blk.size()) * numRegSlots * 64;
        va.stats_.blockLiveFraction[b] =
            bbits ? double(blive) / double(bbits) : 0.0;
        totalLive += blive;
        totalBits += bbits;
        if (ai && !blk.indirect && !blk.fallsOffEnd)
            for (std::size_t s : blk.succs)
                if (!ai->blockIn(s).feasible)
                    ++va.stats_.prunedEdges;
    }
    va.stats_.regBitsTotal = totalBits;
    va.stats_.regBitsLive = totalLive;
    va.stats_.liveFraction =
        totalBits ? double(totalLive) / double(totalBits) : 0.0;

    // ----------------------------------------------------------------
    // Byte-granular footprint liveness (informational: register
    // soundness never depends on it because store values and
    // addresses are always live).  Final memory is the campaign's
    // fingerprinted output, so every byte is live at exit; constant
    // -address stores kill, loads whose destination still matters
    // gen, unknown-address loads gen everything.
    // ----------------------------------------------------------------
    const std::vector<isa::MemRegion> regions =
        mergeRegions(footprintRegions(prog, opts.extraRegions));
    std::uint64_t totalBytes = 0;
    for (const isa::MemRegion &r : regions)
        totalBytes += r.size;
    va.stats_.footprintBytes = totalBytes;
    if (n == 0 || totalBytes == 0 ||
        totalBytes > opts.footprintByteCap)
        return va;
    va.stats_.footprintAnalyzed = true;

    const auto byteIndex = [&regions](Addr addr) -> std::int64_t {
        std::uint64_t off = 0;
        for (const isa::MemRegion &r : regions) {
            if (addr >= r.base && addr - r.base < r.size)
                return std::int64_t(off + (addr - r.base));
            off += r.size;
        }
        return -1;
    };
    const std::size_t nw = std::size_t((totalBytes + 63) / 64);
    using ByteSet = std::vector<std::uint64_t>;
    const auto setBit = [](ByteSet &s, std::int64_t i) {
        if (i >= 0)
            s[std::size_t(i) / 64] |= std::uint64_t(1) << (i % 64);
    };
    const auto clearBit = [](ByteSet &s, std::int64_t i) {
        if (i >= 0)
            s[std::size_t(i) / 64] &= ~(std::uint64_t(1) << (i % 64));
    };
    ByteSet allLive(nw, allBits);
    if (totalBytes % 64)
        allLive[nw - 1] = lowMask(unsigned(totalBytes % 64));
    std::vector<ByteSet> memIn(nb, ByteSet(nw, 0));

    // Constant access address of instruction i, or -1.
    const auto constAddr = [&](std::size_t i) -> std::int64_t {
        if (!ai || !ivIn[i].feasible)
            return -1;
        const Interval a = intervalAdd(ivIn[i].regs[code[i].rs1],
                                       Interval::constant(code[i].imm));
        return a.isConstant() && a.lo >= 0 ? a.lo : -1;
    };

    const auto memTransfer = [&](std::size_t b, ByteSet live) {
        const BasicBlock &blk = cfg.blocks()[b];
        for (std::size_t i = blk.last + 1; i-- > blk.first;) {
            const isa::Instruction &inst = code[i];
            const isa::InstInfo &info = inst.info();
            if (info.isStore) {
                const std::int64_t a = constAddr(i);
                if (a < 0)
                    continue;  // unknown target: kills nothing
                for (unsigned j = 0; j < info.memSize; ++j)
                    clearBit(live, byteIndex(Addr(a) + j));
            } else if (info.isLoad) {
                const unsigned slot = regSlot(inst.dest());
                if (slot == 0 || va.liveOut_[i][slot] == 0)
                    continue;  // the loaded value goes nowhere
                const std::int64_t a = constAddr(i);
                if (a < 0) {
                    live = allLive;  // could read any byte
                    continue;
                }
                for (unsigned j = 0; j < info.memSize; ++j)
                    setBit(live, byteIndex(Addr(a) + j));
            }
        }
        return live;
    };

    changed = true;
    while (changed) {
        changed = false;
        for (std::size_t b = nb; b-- > 0;) {
            if (!reachable[b])
                continue;
            const BasicBlock &blk = cfg.blocks()[b];
            ByteSet out(nw, 0);
            if (blk.indirect || blk.fallsOffEnd || blk.succs.empty()) {
                out = allLive;  // final memory is the output
            } else {
                for (std::size_t s : blk.succs) {
                    if (ai && !ai->blockIn(s).feasible)
                        continue;
                    for (std::size_t w = 0; w < nw; ++w)
                        out[w] |= memIn[s][w];
                }
            }
            ByteSet in = memTransfer(b, std::move(out));
            if (in != memIn[b]) {
                memIn[b] = std::move(in);
                changed = true;
            }
        }
    }
    std::uint64_t liveEntry = 0;
    for (std::uint64_t w : memIn[cfg.entry()])
        liveEntry += std::uint64_t(__builtin_popcountll(w));
    // Words past totalBytes were never set (no byte maps there).
    va.stats_.footprintLiveAtEntry = liveEntry;
    return va;
}

std::shared_ptr<const VulnAnalysis>
VulnAnalysis::build(const isa::Program &prog,
                    const std::vector<isa::MemRegion> &extraRegions)
{
    const Cfg cfg = Cfg::build(prog);
    const std::vector<bool> reachable = cfg.reachableBlocks();
    const IntervalAnalysis ai =
        IntervalAnalysis::run(prog, cfg, reachable);
    VulnOptions opts;
    opts.extraRegions = extraRegions;
    opts.intervals = &ai;  // run() ignores it unless converged
    return std::make_shared<const VulnAnalysis>(
        run(prog, cfg, reachable, opts));
}

std::uint64_t
VulnAnalysis::liveOutMask(std::size_t instIdx, unsigned slot) const
{
    if (instIdx >= liveOut_.size() || slot >= numRegSlots)
        return allBits;  // out of range: claim nothing
    return liveOut_[instIdx][slot];
}

SiteVerdict
VulnAnalysis::regBitVerdict(std::size_t instIdx, unsigned slot,
                            unsigned bit) const
{
    if (slot == 0)
        return SiteVerdict::Dead;  // x0 is architecturally immutable
    if (instIdx >= liveOut_.size() || slot >= numRegSlots)
        return SiteVerdict::Unknown;
    return ((liveOut_[instIdx][slot] >> (bit & 63)) & 1)
               ? SiteVerdict::Live
               : SiteVerdict::Dead;
}

SiteVerdict
VulnAnalysis::cellVerdict(const faults::WeakCell &cell) const
{
    switch (cell.kind) {
      case faults::SiteKind::LogRow:
        // Store rows always matter; load rows depend on the consuming
        // instruction and are judged per hit (loadEntryVerdict).
        return SiteVerdict::Live;
      case faults::SiteKind::RegisterBit: {
        // FaultInjector applies register cells through
        // ArchState::writeBit(Integer, index, bit): the index wraps
        // onto x1..x31 (x0 stays zero), the bit wraps mod 64.
        const unsigned slot =
            1 + unsigned(cell.index) % (isa::numIntRegs - 1);
        return ((everLive_[slot] >> (cell.bit & 63)) & 1)
                   ? SiteVerdict::Live
                   : SiteVerdict::Dead;
      }
      case faults::SiteKind::FunctionalUnit: {
        // The cell's index IS the instruction class whose results it
        // corrupts (constrained chipEvent match).
        const std::size_t cls =
            std::size_t(cell.index) %
            std::size_t(isa::InstClass::NumClasses);
        return ((classDestLive_[cls] >> (cell.bit & 63)) & 1)
                   ? SiteVerdict::Live
                   : SiteVerdict::Dead;
      }
    }
    return SiteVerdict::Unknown;
}

SiteVerdict
VulnAnalysis::loadEntryVerdict(const isa::Instruction &inst,
                               std::size_t instIdx,
                               unsigned bit) const
{
    const isa::InstInfo &info = inst.info();
    if (!info.isLoad)
        return SiteVerdict::Live;  // store values are always compared
    bit &= 63;
    const unsigned width = unsigned(info.memSize) * 8;
    if (bit >= width)
        return SiteVerdict::Dead;  // executor re-extends low bytes
    const unsigned slot = regSlot(inst.dest());
    if (slot == 0)
        return SiteVerdict::Dead;  // load to x0: value discarded
    if (instIdx >= liveOut_.size())
        return SiteVerdict::Unknown;
    const std::uint64_t influence = (info.loadSignExtend &&
                                     bit == width - 1)
                                        ? (allBits << bit)
                                        : (std::uint64_t(1) << bit);
    return (influence & liveOut_[instIdx][slot])
               ? SiteVerdict::Live
               : SiteVerdict::Dead;
}

std::string
vulnJsonHeader()
{
    return "{\"schema\":\"paradox-vuln/1\"}";
}

namespace
{

std::string
frac(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6f", v);
    return buf;
}

} // namespace

std::string
vulnJsonLine(const VulnAnalysis &va, const std::string &program,
             unsigned scale)
{
    const VulnAnalysis::Stats &st = va.stats();
    std::ostringstream os;
    char hash[32];
    std::snprintf(hash, sizeof hash, "0x%016llx",
                  static_cast<unsigned long long>(va.programHash()));
    os << "{\"record\":\"vuln\",\"program\":\"" << jsonEscape(program)
       << "\",\"scale\":" << scale
       << ",\"program_hash\":\"" << hash << "\""
       << ",\"instructions\":" << va.instructionCount()
       << ",\"reg_bits_total\":" << st.regBitsTotal
       << ",\"reg_bits_live\":" << st.regBitsLive
       << ",\"live_fraction\":" << frac(st.liveFraction)
       << ",\"pruned_edges\":" << st.prunedEdges
       << ",\"intervals_used\":" << (st.intervalsUsed ? 1 : 0)
       << ",\"footprint_bytes\":" << st.footprintBytes
       << ",\"footprint_analyzed\":" << (st.footprintAnalyzed ? 1 : 0)
       << ",\"footprint_live_entry\":" << st.footprintLiveAtEntry
       << ",\"block_live_fraction\":[";
    for (std::size_t b = 0; b < st.blockLiveFraction.size(); ++b) {
        if (b)
            os << ",";
        os << frac(st.blockLiveFraction[b]);
    }
    os << "]}";
    return os.str();
}

std::string
vulnChipJsonLine(const VulnAnalysis &va, const faults::ChipModel &chip,
                 const std::string &program)
{
    std::ostringstream os;
    char fp[32];
    std::snprintf(fp, sizeof fp, "0x%016llx",
                  static_cast<unsigned long long>(chip.fingerprint()));
    std::size_t dead = 0, live = 0;
    std::ostringstream cells;
    for (std::size_t i = 0; i < chip.cells().size(); ++i) {
        const faults::WeakCell &c = chip.cells()[i];
        const SiteVerdict v = va.cellVerdict(c);
        (v == SiteVerdict::Dead ? dead : live) += 1;
        if (i)
            cells << ",";
        cells << "{\"kind\":\"" << faults::siteKindName(c.kind)
              << "\",\"core\":" << c.core << ",\"index\":" << c.index
              << ",\"bit\":" << c.bit << ",\"verdict\":\""
              << toString(v) << "\"}";
    }
    os << "{\"record\":\"chip_verdicts\",\"program\":\""
       << jsonEscape(program)
       << "\",\"chip_seed\":" << chip.config().chipSeed
       << ",\"fingerprint\":\"" << fp << "\""
       << ",\"dead_cells\":" << dead << ",\"live_cells\":" << live
       << ",\"cells\":[" << cells.str() << "]}";
    return os.str();
}

} // namespace analysis
} // namespace paradox
