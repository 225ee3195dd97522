/**
 * @file
 * Register dataflow: forward may/must-initialized analysis and
 * backward liveness, both as iterative bitmask fixpoints over the
 * CFG (64 register slots fit one std::uint64_t per set).
 *
 * Conservative choices keep the pass quiet on correct code: blocks
 * entered through a statically-unknown edge (call-return points) are
 * assumed fully initialized, and a block ending in an indirect jump
 * is assumed to leak every register (all live), so neither can
 * produce false def-before-use or dead-store reports.
 */

#include <cstdint>
#include <vector>

#include "analysis/passes.hh"
#include "analysis/regmodel.hh"

namespace paradox
{
namespace analysis
{

namespace
{

constexpr std::uint64_t allRegs = ~std::uint64_t(0);
constexpr std::uint64_t zeroReg = slotBit(0);  // x0, always initialized

struct InitState
{
    std::uint64_t may = 0;
    std::uint64_t must = 0;
};

/** Apply one instruction's def to an init state. */
void
applyDef(const UseDef &ud, InitState &s)
{
    if (ud.def >= 0) {
        s.may |= slotBit(unsigned(ud.def));
        s.must |= slotBit(unsigned(ud.def));
    }
}

void
checkInitialized(const Context &ctx, std::vector<Diagnostic> &diags)
{
    const auto &blocks = ctx.cfg.blocks();
    const auto &code = ctx.prog.code();
    const std::size_t nb = blocks.size();

    std::vector<InitState> in(nb), out(nb);
    for (auto &s : out) {
        s.may = 0;
        s.must = allRegs;  // top, refined by iteration
    }

    auto joinIn = [&](std::size_t b) {
        InitState s;
        bool external = b == ctx.cfg.entry() || blocks[b].callReturnPoint;
        if (external) {
            // Entry: only x0 holds a defined value.  Call-return
            // points arrive through a statically-unknown edge;
            // assume everything initialized to stay quiet.
            s.may = b == ctx.cfg.entry() ? zeroReg : allRegs;
            s.must = s.may;
        } else {
            s.must = allRegs;
        }
        for (std::size_t p : blocks[b].preds) {
            if (!ctx.reachable[p])
                continue;
            s.may |= out[p].may;
            s.must &= out[p].must;
        }
        s.may |= zeroReg;
        s.must &= s.may;  // must ⊆ may
        s.must |= zeroReg;
        return s;
    };

    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t b = 0; b < nb; ++b) {
            if (!ctx.reachable[b])
                continue;
            InitState s = joinIn(b);
            in[b] = s;
            for (std::size_t i = blocks[b].first; i <= blocks[b].last;
                 ++i)
                applyDef(useDef(code[i]), s);
            if (s.may != out[b].may || s.must != out[b].must) {
                out[b] = s;
                changed = true;
            }
        }
    }

    for (std::size_t b = 0; b < nb; ++b) {
        if (!ctx.reachable[b])
            continue;
        InitState s = in[b];
        for (std::size_t i = blocks[b].first; i <= blocks[b].last;
             ++i) {
            const UseDef ud = useDef(code[i]);
            std::uint64_t reported = 0;  // one report per slot per inst
            for (unsigned u = 0; u < ud.nUses; ++u) {
                const unsigned slot = ud.uses[u];
                if (slot == 0 || (reported & slotBit(slot)))
                    continue;
                reported |= slotBit(slot);
                if (!(s.may & slotBit(slot))) {
                    diags.push_back(
                        {Severity::Error, "dataflow", "def-before-use",
                         i, "", "",
                         "reads " + slotName(slot) +
                             ", which is never written on any path "
                             "to this instruction"});
                } else if (!(s.must & slotBit(slot))) {
                    diags.push_back(
                        {Severity::Warning, "dataflow", "maybe-uninit",
                         i, "", "",
                         "reads " + slotName(slot) +
                             ", which is uninitialized on some "
                             "paths to this instruction"});
                }
            }
            applyDef(ud, s);
        }
    }
}

void
checkDeadStores(const Context &ctx, std::vector<Diagnostic> &diags)
{
    const auto &blocks = ctx.cfg.blocks();
    const auto &code = ctx.prog.code();
    const std::size_t nb = blocks.size();

    std::vector<std::uint64_t> liveIn(nb, 0), liveOut(nb, 0);

    auto blockOut = [&](std::size_t b) {
        if (blocks[b].indirect)
            return allRegs;  // continuation unknown: everything live
        std::uint64_t live = 0;
        for (std::size_t s : blocks[b].succs)
            live |= liveIn[s];
        return live;
    };
    auto transfer = [&](std::size_t b, std::uint64_t live) {
        for (std::size_t i = blocks[b].last + 1; i-- > blocks[b].first;) {
            const UseDef ud = useDef(code[i]);
            if (ud.def >= 0)
                live &= ~slotBit(unsigned(ud.def));
            live |= ud.useMask();
        }
        return live;
    };

    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t b = nb; b-- > 0;) {
            liveOut[b] = blockOut(b);
            std::uint64_t live = transfer(b, liveOut[b]);
            if (live != liveIn[b]) {
                liveIn[b] = live;
                changed = true;
            }
        }
    }

    for (std::size_t b = 0; b < nb; ++b) {
        if (!ctx.reachable[b])
            continue;
        // Walk backward so each instruction sees liveness just after
        // itself.
        std::uint64_t live = liveOut[b];
        std::vector<std::pair<std::size_t, unsigned>> dead;
        for (std::size_t i = blocks[b].last + 1; i-- > blocks[b].first;) {
            const UseDef ud = useDef(code[i]);
            if (ud.def >= 0 && !(live & slotBit(unsigned(ud.def))))
                dead.push_back({i, unsigned(ud.def)});
            if (ud.def >= 0)
                live &= ~slotBit(unsigned(ud.def));
            live |= ud.useMask();
        }
        for (auto it = dead.rbegin(); it != dead.rend(); ++it)
            diags.push_back(
                {Severity::Warning, "dataflow", "dead-store",
                 it->first, "", "",
                 "value written to " + slotName(it->second) +
                     " is never read"});
    }
}

} // namespace

void
checkDataflow(const Context &ctx, std::vector<Diagnostic> &diags)
{
    if (ctx.cfg.empty())
        return;
    checkInitialized(ctx, diags);
    checkDeadStores(ctx, diags);
}

} // namespace analysis
} // namespace paradox
