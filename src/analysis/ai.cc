#include "analysis/ai.hh"

#include <algorithm>
#include <cstdint>

#include "analysis/regmodel.hh"
#include "isa/opcode.hh"

namespace paradox
{
namespace analysis
{

namespace
{

using I128 = __int128;

constexpr std::int64_t kMin = Interval::min64;
constexpr std::int64_t kMax = Interval::max64;

/** Trip bounds saturate here so cost products cannot overflow. */
constexpr std::uint64_t kTripCap = std::uint64_t(1) << 62;

/** Same decoding as Cfg::build: resolved byte target -> inst index. */
bool
decodeTarget(const isa::Instruction &inst, std::size_t codeSize,
             std::size_t &target)
{
    if (inst.imm < 0)
        return false;
    const auto byte = static_cast<std::uint64_t>(inst.imm);
    if (byte % isa::instBytes != 0)
        return false;
    target = byte / isa::instBytes;
    return target < codeSize;
}

/** DFS back-edge detection (same traversal as the termination pass). */
std::vector<std::pair<std::size_t, std::size_t>>
findBackEdges(const Cfg &cfg, const std::vector<bool> &reachable)
{
    enum class Mark : std::uint8_t { White, Grey, Black };
    const auto &blocks = cfg.blocks();
    std::vector<Mark> mark(blocks.size(), Mark::White);
    std::vector<std::pair<std::size_t, std::size_t>> backEdges;

    std::vector<std::pair<std::size_t, std::size_t>> stack;
    auto visit = [&](std::size_t root) {
        if (mark[root] != Mark::White)
            return;
        mark[root] = Mark::Grey;
        stack.push_back({root, 0});
        while (!stack.empty()) {
            auto &[b, next] = stack.back();
            if (next < blocks[b].succs.size()) {
                std::size_t s = blocks[b].succs[next++];
                if (mark[s] == Mark::Grey)
                    backEdges.push_back({b, s});
                else if (mark[s] == Mark::White) {
                    mark[s] = Mark::Grey;
                    stack.push_back({s, 0});
                }
            } else {
                mark[b] = Mark::Black;
                stack.pop_back();
            }
        }
    };

    for (std::size_t b = 0; b < blocks.size(); ++b)
        if (reachable[b])
            visit(b);
    return backEdges;
}

} // namespace

std::vector<Loop>
findLoops(const Cfg &cfg, const std::vector<bool> &reachable)
{
    const auto &blocks = cfg.blocks();
    const std::size_t nb = blocks.size();
    std::vector<Loop> loops;

    for (const auto &[tail, header] : findBackEdges(cfg, reachable)) {
        Loop *loop = nullptr;
        for (auto &l : loops)
            if (l.header == header)
                loop = &l;
        if (!loop) {
            loops.push_back({});
            loop = &loops.back();
            loop->header = header;
            loop->inBody.assign(nb, false);
            loop->inBody[header] = true;
        }
        loop->latches.push_back(tail);

        // Natural loop of the back edge, merged into the body.
        std::vector<std::size_t> work;
        if (!loop->inBody[tail]) {
            loop->inBody[tail] = true;
            work.push_back(tail);
        }
        while (!work.empty()) {
            std::size_t b = work.back();
            work.pop_back();
            for (std::size_t p : blocks[b].preds)
                if (reachable[p] && !loop->inBody[p]) {
                    loop->inBody[p] = true;
                    work.push_back(p);
                }
        }
    }

    for (auto &l : loops) {
        std::sort(l.latches.begin(), l.latches.end());
        l.latches.erase(
            std::unique(l.latches.begin(), l.latches.end()),
            l.latches.end());
        for (std::size_t b = 0; b < nb; ++b)
            if (l.inBody[b])
                l.bodyBlocks.push_back(b);
    }
    return loops;
}

Dominators
Dominators::compute(const Cfg &cfg, const std::vector<bool> &reachable)
{
    Dominators d;
    const auto &blocks = cfg.blocks();
    const std::size_t nb = blocks.size();
    const std::size_t words = (nb + 63) / 64;
    d.bits_.assign(nb, std::vector<std::uint64_t>(words, 0));
    if (nb == 0)
        return d;

    auto isRoot = [&](std::size_t b) {
        return b == cfg.entry() || blocks[b].callReturnPoint;
    };

    std::vector<std::uint64_t> all(words, ~std::uint64_t(0));
    if (nb % 64)
        all.back() = (std::uint64_t(1) << (nb % 64)) - 1;

    for (std::size_t b = 0; b < nb; ++b) {
        if (!reachable[b])
            continue;  // empty set: dominates() is never queried
        if (isRoot(b))
            d.bits_[b][b / 64] |= std::uint64_t(1) << (b % 64);
        else
            d.bits_[b] = all;
    }

    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t b = 0; b < nb; ++b) {
            if (!reachable[b] || isRoot(b))
                continue;
            std::vector<std::uint64_t> meet = all;
            bool any = false;
            for (std::size_t p : blocks[b].preds) {
                if (!reachable[p])
                    continue;
                any = true;
                for (std::size_t w = 0; w < words; ++w)
                    meet[w] &= d.bits_[p][w];
            }
            if (!any)
                meet.assign(words, 0);
            meet[b / 64] |= std::uint64_t(1) << (b % 64);
            if (meet != d.bits_[b]) {
                d.bits_[b] = std::move(meet);
                changed = true;
            }
        }
    }
    return d;
}

bool
branchCmp(const isa::Instruction &inst, Cmp &cmp)
{
    using isa::Opcode;
    switch (inst.op) {
    case Opcode::BEQ: cmp = Cmp::Eq; return true;
    case Opcode::BNE: cmp = Cmp::Ne; return true;
    case Opcode::BLT: cmp = Cmp::LtS; return true;
    case Opcode::BGE: cmp = Cmp::GeS; return true;
    case Opcode::BLTU: cmp = Cmp::LtU; return true;
    case Opcode::BGEU: cmp = Cmp::GeU; return true;
    default: return false;
    }
}

void
IntervalAnalysis::transfer(const isa::Instruction &inst,
                           std::size_t instIdx, RegState &s)
{
    using isa::Opcode;

    auto setRd = [&](const Interval &v) {
        if (inst.rd != 0)
            s.regs[inst.rd] = v;
    };
    const Interval a = s.regs[inst.rs1];
    const Interval b = s.regs[inst.rs2];
    const Interval immI = Interval::constant(inst.imm);
    auto boolIv = [](Tri t) {
        if (t == Tri::True)
            return Interval::constant(1);
        if (t == Tri::False)
            return Interval::constant(0);
        return Interval{0, 1};
    };

    switch (inst.op) {
    case Opcode::LDI:
        setRd(immI);
        break;
    case Opcode::ADDI:
        setRd(intervalAdd(a, immI));
        break;
    case Opcode::ANDI:
        setRd(intervalAnd(a, immI));
        break;
    case Opcode::ORI:
        setRd(intervalOr(a, immI));
        break;
    case Opcode::XORI:
        setRd(intervalXor(a, immI));
        break;
    case Opcode::SLLI:
        setRd(intervalShl(a, unsigned(inst.imm) & 63));
        break;
    case Opcode::SRLI:
        setRd(intervalShrLogical(a, unsigned(inst.imm) & 63));
        break;
    case Opcode::SRAI:
        setRd(intervalShrArith(a, unsigned(inst.imm) & 63));
        break;
    case Opcode::SLTI:
        setRd(boolIv(evalCmp(Cmp::LtS, a, immI)));
        break;
    case Opcode::ADD:
        setRd(intervalAdd(a, b));
        break;
    case Opcode::SUB:
        setRd(intervalSub(a, b));
        break;
    case Opcode::AND_:
        setRd(intervalAnd(a, b));
        break;
    case Opcode::OR_:
        setRd(intervalOr(a, b));
        break;
    case Opcode::XOR_:
        setRd(intervalXor(a, b));
        break;
    case Opcode::MUL:
        setRd(intervalMul(a, b));
        break;
    case Opcode::MULH:
        setRd(intervalMulHigh(a, b));
        break;
    case Opcode::DIV:
        setRd(intervalDiv(a, b));
        break;
    case Opcode::DIVU:
        setRd(intervalDivU(a, b));
        break;
    case Opcode::REM:
        setRd(intervalRem(a, b));
        break;
    case Opcode::REMU:
        setRd(intervalRemU(a, b));
        break;
    case Opcode::SLT:
        setRd(boolIv(evalCmp(Cmp::LtS, a, b)));
        break;
    case Opcode::SLTU:
        setRd(boolIv(evalCmp(Cmp::LtU, a, b)));
        break;
    case Opcode::SLL:
        if (b.isConstant())
            setRd(intervalShl(a, unsigned(b.lo) & 63));
        else
            setRd(Interval::top());
        break;
    case Opcode::SRL:
        if (b.isConstant())
            setRd(intervalShrLogical(a, unsigned(b.lo) & 63));
        else if (!a.isBottom() && a.lo >= 0)
            setRd({0, a.hi});  // any shift only shrinks it
        else
            setRd(Interval::top());
        break;
    case Opcode::SRA:
        if (b.isConstant()) {
            setRd(intervalShrArith(a, unsigned(b.lo) & 63));
        } else if (!a.isBottom()) {
            // Hull of the sh = 0 and sh = 63 extremes covers every
            // amount in between (a >> sh is monotone in sh).
            setRd(join(a, {a.lo >> 63, a.hi >> 63}));
        } else {
            setRd(Interval::bottom());
        }
        break;
    case Opcode::LB:
        setRd({-128, 127});
        break;
    case Opcode::LBU:
        setRd({0, 255});
        break;
    case Opcode::LH:
        setRd({-32768, 32767});
        break;
    case Opcode::LHU:
        setRd({0, 65535});
        break;
    case Opcode::LW:
        setRd({std::int64_t(-2147483648LL), 2147483647});
        break;
    case Opcode::LWU:
        setRd({0, 4294967295LL});
        break;
    case Opcode::JAL:
    case Opcode::JALR:
        // The link value is the resolved return address.
        setRd(Interval::constant(
            std::int64_t((instIdx + 1) * isa::instBytes)));
        break;
    case Opcode::FEQ:
    case Opcode::FLT_:
    case Opcode::FLE:
        setRd({0, 1});
        break;
    default: {
        // LD, FP conversions/moves, SYSCALL...: any integer def is
        // unknown; FP defs are outside this domain.
        const UseDef ud = useDef(inst);
        if (ud.def > 0 && unsigned(ud.def) < isa::numIntRegs)
            s.regs[unsigned(ud.def)] = Interval::top();
        break;
    }
    }
    s.regs[0] = Interval::constant(0);
}

namespace
{

/** All-Top state with x0 pinned, for entry and call-return roots. */
RegState
rootState()
{
    RegState s;
    s.feasible = true;
    for (auto &r : s.regs)
        r = Interval::top();
    s.regs[0] = Interval::constant(0);
    return s;
}

/** One per-loop clamp list: (register, back-edge bound). */
using ClampList = std::vector<std::pair<unsigned, Interval>>;

/** Normalized continue-predicate relations (`r REL bound`). */
enum class Rel : std::uint8_t
{
    Lt, Le, Gt, Ge, Ne,      //!< signed
    LtU, LeU, GtU, GeU,      //!< unsigned (extra preconditions)
};

/**
 * Upper-bound the iterations of a loop that continues while
 * `r REL bound` holds, where r steps by @p c exactly once per
 * iteration, r's entry box is @p I and the loop-invariant bound's
 * box is @p B.
 *
 * With J = the largest step count whose value still passes the test,
 * the k-th test sees r0 + k*c when the step runs before the test
 * (@p defFirst) and r0 + (k-1)*c otherwise, so the bound is J+1
 * iterations in the first case and J+2 in the second.  The Ne cases
 * demand the tested values *strictly* approach the bound: when
 * defFirst and r0 == bound, the stepped value skips the only equal
 * value and the loop never exits.
 *
 * @return false when the shape guarantees nothing (wrong step sign,
 * possible wraparound, gap-jumping or degenerate NE...).
 */
bool
tripFromRel(Rel rel, std::int64_t c, const Interval &I,
            const Interval &B, bool defFirst, std::uint64_t &tripsOut)
{
    const int slack = defFirst ? 1 : 2;
    if (I.isBottom() || B.isBottom())
        return false;

    const bool unsignedRel = rel == Rel::LtU || rel == Rel::LeU ||
                             rel == Rel::GtU || rel == Rel::GeU;
    if (unsignedRel) {
        // Within the non-negative half, unsigned order is signed
        // order; for down-counting relations the underflow guard
        // below keeps r from wrapping to a huge unsigned value.
        if (I.lo < 0 || B.lo < 0)
            return false;
        if ((rel == Rel::GeU || rel == Rel::GtU) &&
            I128(B.lo) + (rel == Rel::GtU ? 1 : 0) < -I128(c))
            return false;
        rel = rel == Rel::LtU   ? Rel::Lt
              : rel == Rel::LeU ? Rel::Le
              : rel == Rel::GtU ? Rel::Gt
                                : Rel::Ge;
    }

    I128 trips = 0;
    switch (rel) {
    case Rel::Lt:
    case Rel::Le: {
        if (c <= 0)
            return false;
        const I128 bEff = I128(B.hi) - (rel == Rel::Lt ? 1 : 0);
        // Signed compare: continuing values must not overflow when
        // stepped, or the wrapped value would keep the loop alive.
        if (!unsignedRel && bEff + c > I128(kMax))
            return false;
        trips = bEff >= I128(I.lo) ? (bEff - I.lo) / c + slack : 1;
        break;
    }
    case Rel::Gt:
    case Rel::Ge: {
        if (c >= 0)
            return false;
        const I128 bEff = I128(B.lo) + (rel == Rel::Gt ? 1 : 0);
        if (!unsignedRel && bEff + c < I128(kMin))
            return false;
        trips = I128(I.hi) >= bEff ? (I.hi - bEff) / -I128(c) + slack
                                   : 1;
        break;
    }
    case Rel::Ne:
        // The step must be unable to jump over the bound, and r must
        // start strictly on one side of it (see above).  The exiting
        // test is the one that lands exactly on the bound, so the
        // slack here is one less than for the ordered relations.
        if (c == 1 && I.hi < B.lo)
            trips = I128(B.hi) - I.lo + slack - 1;
        else if (c == -1 && I.lo > B.hi)
            trips = I128(I.hi) - B.lo + slack - 1;
        else if (I.isConstant() && B.isConstant() && c != 0 &&
                 (I128(B.lo) - I.lo) % c == 0 &&
                 (I128(B.lo) - I.lo) / c >= 1)
            trips = (I128(B.lo) - I.lo) / c + slack - 1;
        else
            return false;
        break;
    default:
        return false;
    }

    if (trips < 1)
        trips = 1;
    tripsOut = trips > I128(kTripCap) ? kTripCap
                                      : std::uint64_t(trips);
    return true;
}

} // namespace

IntervalAnalysis
IntervalAnalysis::run(const isa::Program &prog, const Cfg &cfg,
                      const std::vector<bool> &reachable)
{
    IntervalAnalysis ai;
    const auto &blocks = cfg.blocks();
    const auto &code = prog.code();
    const std::size_t nb = blocks.size();
    const std::size_t n = code.size();
    ai.in_.assign(nb, RegState{});
    ai.loops_ = findLoops(cfg, reachable);
    ai.doms_ = Dominators::compute(cfg, reachable);
    if (nb == 0)
        return ai;

    for (const auto &l : ai.loops_)
        for (std::size_t t : l.latches)
            if (!ai.doms_.dominates(l.header, t))
                ai.reducible_ = false;

    // Reverse postorder of the reachable blocks.
    std::vector<std::size_t> rpo;
    {
        std::vector<bool> seen(nb, false);
        std::vector<std::pair<std::size_t, std::size_t>> stack;
        auto visit = [&](std::size_t root) {
            if (seen[root])
                return;
            seen[root] = true;
            stack.push_back({root, 0});
            while (!stack.empty()) {
                auto &[b, next] = stack.back();
                if (next < blocks[b].succs.size()) {
                    std::size_t s = blocks[b].succs[next++];
                    if (!seen[s]) {
                        seen[s] = true;
                        stack.push_back({s, 0});
                    }
                } else {
                    rpo.push_back(b);
                    stack.pop_back();
                }
            }
        };
        visit(cfg.entry());
        for (std::size_t b = 0; b < nb; ++b)
            if (reachable[b] && blocks[b].callReturnPoint)
                visit(b);
        std::reverse(rpo.begin(), rpo.end());
    }

    std::vector<std::size_t> loopOfHeader(nb, std::size_t(-1));
    for (std::size_t l = 0; l < ai.loops_.size(); ++l)
        loopOfHeader[ai.loops_[l].header] = l;

    std::vector<RegState> out(nb);

    auto isRoot = [&](std::size_t b) {
        return b == cfg.entry() || blocks[b].callReturnPoint;
    };

    // In-state of @p b from its predecessors' out-states, with
    // branch-edge refinement and (on back edges) induction clamps.
    std::vector<ClampList> clamps(ai.loops_.size());
    auto joinIn = [&](std::size_t b) {
        RegState s;
        if (isRoot(b))
            s = rootState();
        const std::size_t loopIdx = loopOfHeader[b];
        for (std::size_t p : blocks[b].preds) {
            if (!reachable[p] || !out[p].feasible)
                continue;
            RegState e = out[p];
            bool feasibleEdge = true;

            const auto &binst = code[blocks[p].last];
            Cmp cmp;
            if (branchCmp(binst, cmp)) {
                std::size_t target;
                const std::size_t takenB =
                    decodeTarget(binst, n, target)
                        ? cfg.blockOf(target)
                        : std::size_t(-1);
                const std::size_t fallB =
                    blocks[p].last + 1 < n
                        ? cfg.blockOf(blocks[p].last + 1)
                        : std::size_t(-1);
                if (takenB != fallB && (b == takenB || b == fallB)) {
                    Interval va = e.regs[binst.rs1];
                    Interval vb = e.regs[binst.rs2];
                    refineCmp(b == takenB ? cmp : negate(cmp), va, vb);
                    if (va.isBottom() || vb.isBottom()) {
                        feasibleEdge = false;
                    } else {
                        if (binst.rs1 != 0)
                            e.regs[binst.rs1] = va;
                        if (binst.rs2 != 0)
                            e.regs[binst.rs2] = vb;
                    }
                }
            }

            if (feasibleEdge && loopIdx != std::size_t(-1)) {
                const Loop &l = ai.loops_[loopIdx];
                if (std::binary_search(l.latches.begin(),
                                       l.latches.end(), p)) {
                    for (const auto &[reg, iv] : clamps[loopIdx]) {
                        e.regs[reg] = meet(e.regs[reg], iv);
                        if (e.regs[reg].isBottom())
                            feasibleEdge = false;
                    }
                }
            }
            if (!feasibleEdge)
                continue;

            if (!s.feasible) {
                s = e;
                s.feasible = true;
            } else {
                for (unsigned r = 0; r < isa::numIntRegs; ++r)
                    s.regs[r] = join(s.regs[r], e.regs[r]);
            }
        }
        if (s.feasible)
            s.regs[0] = Interval::constant(0);
        return s;
    };

    /*
     * Meet a header's joined state with its loop's clamps.  The
     * clamp interval contains the preheader box by construction
     * (zero steps taken) as well as every back-edge value, so all
     * concrete values of the register at the header lie inside it --
     * the meet is sound on the entry path too.  Applying it after
     * widening turns the clamp into a widening threshold: without
     * this, widening rails the induction register for a sweep and
     * the railed value survives forever in any inner loop that
     * carries it around an identity cycle, where narrowing cannot
     * shrink it.
     */
    auto applyHeaderClamps = [&](std::size_t b, RegState &s) {
        const std::size_t loopIdx = loopOfHeader[b];
        if (!s.feasible || loopIdx == std::size_t(-1))
            return;
        for (const auto &[reg, iv] : clamps[loopIdx]) {
            s.regs[reg] = meet(s.regs[reg], iv);
            if (s.regs[reg].isBottom()) {
                s = RegState{};  // header unreachable this round
                return;
            }
        }
    };

    auto transferBlock = [&](std::size_t b, RegState s) {
        if (s.feasible)
            for (std::size_t i = blocks[b].first;
                 i <= blocks[b].last; ++i)
                transfer(code[i], i, s);
        return s;
    };

    // Registers actually defined inside each loop's body.  Only
    // those need widening at the header: an invariant register's
    // back-edge value is the header value itself, so its chain grows
    // only when the loop entry grows and stabilizes without help --
    // while widening it would smash it to a rail that narrowing can
    // never undo (the stale value feeds itself around the back
    // edge).  Restricting by body is only sound when every cycle is
    // covered by the natural loop of its header, i.e. the CFG is
    // reducible; otherwise widen everything.
    std::vector<std::uint64_t> loopDefMask(ai.loops_.size(), ~0ull);
    if (ai.reducible_)
        for (std::size_t li = 0; li < ai.loops_.size(); ++li) {
            std::uint64_t mask = 0;
            for (std::size_t b : ai.loops_[li].bodyBlocks)
                for (std::size_t i = blocks[b].first;
                     i <= blocks[b].last; ++i) {
                    const UseDef ud = useDef(code[i]);
                    if (ud.def > 0 &&
                        unsigned(ud.def) < isa::numIntRegs)
                        mask |= 1ull << unsigned(ud.def);
                }
            loopDefMask[li] = mask;
        }

    // Widening fixpoint followed by a short narrowing phase.
    constexpr unsigned kWidenDelay = 2;
    constexpr unsigned kNarrowSweeps = 2;
    const std::size_t sweepCap = 100 + 10 * nb;
    auto runFixpoint = [&]() {
        for (std::size_t b = 0; b < nb; ++b)
            ai.in_[b] = out[b] = RegState{};
        std::vector<unsigned> visits(nb, 0);
        bool changed = true;
        std::size_t local = 0;
        while (changed && local < sweepCap) {
            changed = false;
            ++local;
            for (std::size_t b : rpo) {
                RegState s = joinIn(b);
                if (loopOfHeader[b] != std::size_t(-1) &&
                    visits[b] >= kWidenDelay && ai.in_[b].feasible &&
                    s.feasible) {
                    const std::uint64_t wmask =
                        loopDefMask[loopOfHeader[b]];
                    for (unsigned r = 0; r < isa::numIntRegs; ++r)
                        if (wmask >> r & 1)
                            s.regs[r] =
                                widen(ai.in_[b].regs[r], s.regs[r]);
                    applyHeaderClamps(b, s);
                }
                ++visits[b];
                ai.in_[b] = s;
                RegState o = transferBlock(b, std::move(s));
                if (!(o == out[b])) {
                    out[b] = std::move(o);
                    changed = true;
                }
            }
        }
        ai.sweeps_ += local;
        if (changed)
            ai.converged_ = false;
        for (unsigned k = 0; k < kNarrowSweeps; ++k) {
            for (std::size_t b : rpo) {
                RegState s = joinIn(b);
                applyHeaderClamps(b, s);
                ai.in_[b] = s;
                out[b] = transferBlock(b, ai.in_[b]);
            }
            ++ai.sweeps_;
        }
    };

    // Interval box of register @p r joined over entries to the loop.
    auto preheaderState = [&](const Loop &l) {
        RegState pre;
        if (isRoot(l.header))
            pre = rootState();
        for (std::size_t p : blocks[l.header].preds) {
            if (!reachable[p] || l.inBody[p] || !out[p].feasible)
                continue;
            if (!pre.feasible) {
                pre = out[p];
            } else {
                for (unsigned r = 0; r < isa::numIntRegs; ++r)
                    pre.regs[r] = join(pre.regs[r], out[p].regs[r]);
            }
        }
        if (pre.feasible)
            pre.regs[0] = Interval::constant(0);
        return pre;
    };

    /*
     * Induction candidates of a loop: integer registers with exactly
     * one def in the body, and that def is `addi r, r, c` sitting
     * outside every nested loop (so it runs at most once per
     * iteration of this loop).  everyIter additionally requires the
     * def block to dominate every latch: the step then runs exactly
     * once per completed iteration, which the trip formulas need.
     */
    struct Cand
    {
        unsigned reg;
        std::int64_t step;
        bool everyIter;
        std::size_t defIdx;   //!< instruction index of the step
        std::size_t defBlock; //!< block holding the step
    };
    auto inductionCands = [&](const Loop &l) {
        std::array<unsigned, isa::numIntRegs> defCount{};
        std::array<std::size_t, isa::numIntRegs> defSite{};
        for (std::size_t b : l.bodyBlocks)
            for (std::size_t i = blocks[b].first;
                 i <= blocks[b].last; ++i) {
                const UseDef ud = useDef(code[i]);
                if (ud.def > 0 && unsigned(ud.def) < isa::numIntRegs) {
                    ++defCount[unsigned(ud.def)];
                    defSite[unsigned(ud.def)] = i;
                }
            }
        std::vector<Cand> cands;
        for (unsigned r = 1; r < isa::numIntRegs; ++r) {
            if (defCount[r] != 1)
                continue;
            const auto &d = code[defSite[r]];
            if (d.op != isa::Opcode::ADDI || d.rd != r ||
                d.rs1 != r || d.imm == 0)
                continue;
            const std::size_t db = cfg.blockOf(defSite[r]);
            bool nested = false;
            for (const Loop &m : ai.loops_)
                if (m.header != l.header && l.inBody[m.header] &&
                    m.inBody[db])
                    nested = true;
            if (nested)
                continue;
            bool everyIter = true;
            for (std::size_t t : l.latches)
                if (!ai.doms_.dominates(db, t))
                    everyIter = false;
            cands.push_back({r, d.imm, everyIter, defSite[r], db});
        }
        return cands;
    };

    auto inferTrips = [&]() {
        for (Loop &l : ai.loops_) {
            const RegState pre = preheaderState(l);
            if (!pre.feasible)
                continue;
            const auto cands = inductionCands(l);

            std::array<bool, isa::numIntRegs> invariant;
            {
                std::array<unsigned, isa::numIntRegs> defCount{};
                for (std::size_t b : l.bodyBlocks)
                    for (std::size_t i = blocks[b].first;
                         i <= blocks[b].last; ++i) {
                        const UseDef ud = useDef(code[i]);
                        if (ud.def >= 0 &&
                            unsigned(ud.def) < isa::numIntRegs)
                            ++defCount[unsigned(ud.def)];
                    }
                for (unsigned r = 0; r < isa::numIntRegs; ++r)
                    invariant[r] = defCount[r] == 0;
                invariant[0] = true;
            }

            for (std::size_t b : l.bodyBlocks) {
                const std::size_t bi = blocks[b].last;
                const auto &binst = code[bi];
                Cmp cmp;
                if (!branchCmp(binst, cmp))
                    continue;
                std::size_t target;
                if (!decodeTarget(binst, n, target))
                    continue;
                const std::size_t takenB = cfg.blockOf(target);
                if (blocks[b].last + 1 >= n)
                    continue;
                const std::size_t fallB = cfg.blockOf(bi + 1);
                if (takenB == fallB ||
                    l.inBody[takenB] == l.inBody[fallB])
                    continue;  // not a two-way exit test
                bool domsAll = true;
                for (std::size_t t : l.latches)
                    if (!ai.doms_.dominates(b, t))
                        domsAll = false;
                if (!domsAll)
                    continue;

                const Cmp cont =
                    l.inBody[takenB] ? cmp : negate(cmp);

                // Normalize to `r REL bound` for each operand order.
                auto tryOrder = [&](unsigned r, unsigned q,
                                    bool mirrored) {
                    Rel rel = Rel::Ne;
                    switch (cont) {
                    case Cmp::Eq: return;
                    case Cmp::Ne: rel = Rel::Ne; break;
                    case Cmp::LtS:
                        rel = mirrored ? Rel::Gt : Rel::Lt;
                        break;
                    case Cmp::GeS:
                        rel = mirrored ? Rel::Le : Rel::Ge;
                        break;
                    case Cmp::LtU:
                        rel = mirrored ? Rel::GtU : Rel::LtU;
                        break;
                    case Cmp::GeU:
                        rel = mirrored ? Rel::LeU : Rel::GeU;
                        break;
                    }
                    if (!invariant[q])
                        return;
                    for (const Cand &c : cands) {
                        if (c.reg != r || !c.everyIter)
                            continue;
                        // Does the step run before the exit test on
                        // every path of an iteration?  In a reducible
                        // loop a body block dominating the test block
                        // cannot be bypassed within the iteration
                        // (reaching it again would pass the header
                        // first); same-block order is just index
                        // order.
                        const bool defFirst =
                            c.defBlock == b
                                ? c.defIdx < bi
                                : ai.doms_.dominates(c.defBlock, b);
                        std::uint64_t trips;
                        if (tripFromRel(rel, c.step, pre.regs[r],
                                        pre.regs[q], defFirst,
                                        trips) &&
                            trips < l.tripBound) {
                            l.tripBound = trips;
                            l.boundExit = bi;
                        }
                    }
                };
                tryOrder(binst.rs1, binst.rs2, false);
                tryOrder(binst.rs2, binst.rs1, true);
            }
        }
    };

    auto computeClamps = [&]() {
        std::vector<ClampList> cl(ai.loops_.size());
        for (std::size_t li = 0; li < ai.loops_.size(); ++li) {
            const Loop &l = ai.loops_[li];
            if (!l.bounded())
                continue;
            const RegState pre = preheaderState(l);
            if (!pre.feasible)
                continue;
            const I128 steps = I128(l.tripBound) - 1;
            for (const Cand &c : inductionCands(l)) {
                const Interval &iv = pre.regs[c.reg];
                if (iv.isBottom())
                    continue;
                // At a back edge r has stepped at most tripBound - 1
                // times past its entry box, and never backwards.
                I128 lo = iv.lo, hi = iv.hi;
                if (c.step > 0)
                    hi += I128(c.step) * steps;
                else
                    lo += I128(c.step) * steps;
                const Interval clamp{
                    lo < I128(kMin) ? kMin : std::int64_t(lo),
                    hi > I128(kMax) ? kMax : std::int64_t(hi)};
                if (!clamp.isTop())
                    cl[li].push_back({c.reg, clamp});
            }
        }
        return cl;
    };

    runFixpoint();
    if (ai.reducible_) {
        for (int round = 0; round < 2; ++round) {
            inferTrips();
            auto next = computeClamps();
            if (next == clamps)
                break;
            clamps = std::move(next);
            runFixpoint();
        }
        inferTrips();
    }
    return ai;
}

} // namespace analysis
} // namespace paradox
