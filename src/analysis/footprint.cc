/**
 * @file
 * Static memory-footprint and range checks over the interval facts.
 *
 * checkRanges walks every reachable block with the interval state
 * IntervalAnalysis computed for its entry.  Each load/store address
 * interval is checked against the program's footprint: regions
 * declared via ProgramBuilder::footprint(), regions derived from the
 * initial data image, and caller-supplied extras (e.g. the ABI
 * result cell).  An access entirely outside it is an
 * out-of-footprint error (store) or warning (load); a finite range
 * that straddles a region edge is a possible-out-of-footprint
 * warning; a constant address that is not naturally aligned is a
 * misaligned-access warning.  Unbounded addresses (loaded pointers,
 * unclamped induction) are left alone.  The same walk reports
 * provably dead branches, divisors whose range includes zero and
 * shift amounts outside [0, 63].
 */

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <vector>

#include "analysis/ai.hh"
#include "analysis/interval.hh"
#include "analysis/passes.hh"

namespace paradox
{
namespace analysis
{

namespace
{

using I128 = __int128;

std::string
hex(std::uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
}

/** "[0x100000, 0x10ffff]" (hex when non-negative), or one value. */
std::string
ivStr(const Interval &iv)
{
    auto one = [](std::int64_t v) {
        return v >= 0 ? hex(std::uint64_t(v)) : std::to_string(v);
    };
    if (iv.isConstant())
        return one(iv.lo);
    // Appended piecewise, as in Interval::toString().
    std::string s = "[";
    s += one(iv.lo);
    s += ", ";
    s += one(iv.hi);
    s += ']';
    return s;
}

} // namespace

std::vector<isa::MemRegion>
footprintRegions(const isa::Program &prog,
                 const std::vector<isa::MemRegion> &extras)
{
    std::vector<isa::MemRegion> regions = prog.regions();
    for (const auto &r : extras)
        regions.push_back(r);

    // Merge the 8-byte initial-data cells into contiguous runs.
    auto cells = prog.data();
    std::sort(cells.begin(), cells.end(),
              [](const isa::DataInit &a, const isa::DataInit &b) {
                  return a.addr < b.addr;
              });
    for (std::size_t i = 0; i < cells.size();) {
        Addr base = cells[i].addr;
        Addr end = base + 8;
        std::size_t j = i + 1;
        while (j < cells.size() && cells[j].addr <= end) {
            end = std::max(end, cells[j].addr + 8);
            ++j;
        }
        regions.push_back({base, end - base, "data@" + hex(base)});
        i = j;
    }
    return regions;
}

std::vector<isa::MemRegion>
mergeRegions(std::vector<isa::MemRegion> regions)
{
    regions.erase(std::remove_if(regions.begin(), regions.end(),
                                 [](const isa::MemRegion &r) {
                                     return r.size == 0;
                                 }),
                  regions.end());
    std::sort(regions.begin(), regions.end(),
              [](const isa::MemRegion &a, const isa::MemRegion &b) {
                  return a.base < b.base;
              });
    std::vector<isa::MemRegion> runs;
    for (const auto &r : regions) {
        if (!runs.empty() &&
            r.base <= runs.back().base + runs.back().size) {
            auto &prev = runs.back();
            const Addr end =
                std::max(prev.base + prev.size, r.base + r.size);
            if (r.base + r.size > prev.base + prev.size)
                prev.name += "+" + r.name;
            prev.size = end - prev.base;
        } else {
            runs.push_back(r);
        }
    }
    return runs;
}

void
checkRanges(const Context &ctx, const IntervalAnalysis &ai,
            std::vector<Diagnostic> &diags)
{
    using isa::Opcode;
    const auto &blocks = ctx.cfg.blocks();
    const auto &code = ctx.prog.code();
    const std::size_t nb = blocks.size();
    if (nb == 0)
        return;

    const auto runs = mergeRegions(
        footprintRegions(ctx.prog, ctx.opts.extraRegions));
    if (runs.empty())
        diags.push_back({Severity::Info, "footprint", "no-footprint",
                         Diagnostic::noIndex, "", "",
                         "program declares no footprint and has no "
                         "initial data; bounds were not checked"});
    // Negative "addresses" are huge unsigned values; they can only
    // hit the footprint if some run reaches the upper half.
    bool runsHigh = false;
    for (const auto &r : runs)
        if (I128(r.base) + r.size > I128(1) << 63)
            runsHigh = true;

    // Does [lo, hi] (signed, inclusive) touch any run at all?
    auto overlapsAny = [&](I128 lo, I128 hi) {
        if (lo < 0 && runsHigh)
            return true;
        for (const auto &r : runs)
            if (hi >= I128(r.base) && lo < I128(r.base) + r.size)
                return true;
        return false;
    };
    // Is [lo, hi] entirely inside one merged run?  (Runs are maximal
    // and disjoint, so gap-free coverage means a single run.)
    auto containedInRun = [&](I128 lo, I128 hi) {
        if (lo < 0)
            return false;
        for (const auto &r : runs)
            if (lo >= I128(r.base) && hi < I128(r.base) + r.size)
                return true;
        return false;
    };

    for (std::size_t b = 0; b < nb; ++b) {
        if (!ctx.reachable[b])
            continue;
        RegState s = ai.blockIn(b);
        if (!s.feasible)
            continue;
        for (std::size_t i = blocks[b].first; i <= blocks[b].last;
             ++i) {
            const auto &inst = code[i];
            const auto &ii = inst.info();

            if (ii.memSize != 0) {
                const Interval addr = intervalAdd(
                    s.regs[inst.rs1], Interval::constant(inst.imm));
                const unsigned size = ii.memSize;
                const bool store = ii.isStore;
                if (!addr.isBottom() && !runs.empty()) {
                    const I128 first = addr.lo;
                    const I128 last = I128(addr.hi) + size - 1;
                    if (!overlapsAny(first, last)) {
                        diags.push_back(
                            {store ? Severity::Error
                                   : Severity::Warning,
                             "footprint",
                             store ? "out-of-footprint-store"
                                   : "out-of-footprint-load",
                             i, "", "",
                             std::string(store ? "store to "
                                               : "load from ") +
                                 ivStr(addr) + " (" +
                                 std::to_string(size) +
                                 " bytes) is entirely outside every "
                                 "declared or data-derived region"});
                    } else if (addr.isBounded() &&
                               !containedInRun(first, last)) {
                        diags.push_back(
                            {Severity::Warning, "ranges",
                             store ? "possible-out-of-footprint-store"
                                   : "possible-out-of-footprint-load",
                             i, "", "",
                             std::string(store ? "store to "
                                               : "load from ") +
                                 ivStr(addr) + " (" +
                                 std::to_string(size) +
                                 " bytes) may fall outside the "
                                 "declared footprint"});
                    }
                }
                if (addr.isConstant() &&
                    std::uint64_t(addr.lo) % size != 0)
                    diags.push_back(
                        {Severity::Warning, "footprint",
                         "misaligned-access", i, "", "",
                         std::to_string(size) + "-byte access at " +
                             hex(std::uint64_t(addr.lo)) +
                             " is not naturally aligned"});
            }

            switch (inst.op) {
            case Opcode::DIV:
            case Opcode::DIVU:
            case Opcode::REM:
            case Opcode::REMU: {
                const Interval &d = s.regs[inst.rs2];
                if (!d.isBottom() && !d.isTop() && d.contains(0))
                    diags.push_back(
                        {Severity::Warning, "ranges",
                         "possible-div-by-zero", i, "", "",
                         std::string(d.isConstant()
                                         ? "divisor is always zero"
                                         : "divisor range " +
                                               ivStr(d) +
                                               " includes zero") +
                             " (defined but almost surely a bug)"});
                break;
            }
            case Opcode::SLL:
            case Opcode::SRL:
            case Opcode::SRA: {
                const Interval &amt = s.regs[inst.rs2];
                if (!amt.isBottom() && !amt.isTop() &&
                    !Interval{0, 63}.containsInterval(amt))
                    diags.push_back(
                        {Severity::Warning, "ranges", "shift-range",
                         i, "", "",
                         "shift amount range " + ivStr(amt) +
                             " exceeds [0, 63]; hardware masks it "
                             "to 6 bits"});
                break;
            }
            case Opcode::SLLI:
            case Opcode::SRLI:
            case Opcode::SRAI:
                if (inst.imm < 0 || inst.imm > 63)
                    diags.push_back(
                        {Severity::Warning, "ranges", "shift-range",
                         i, "", "",
                         "immediate shift amount " +
                             std::to_string(inst.imm) +
                             " is masked to " +
                             std::to_string(inst.imm & 63)});
                break;
            default:
                break;
            }

            if (i == blocks[b].last) {
                Cmp cmp;
                if (branchCmp(inst, cmp)) {
                    const Tri v = evalCmp(cmp, s.regs[inst.rs1],
                                          s.regs[inst.rs2]);
                    if (v != Tri::Unknown &&
                        blocks[b].succs.size() > 1)
                        diags.push_back(
                            {Severity::Warning, "ranges",
                             "dead-branch", i, "", "",
                             std::string("branch is ") +
                                 (v == Tri::True ? "always"
                                                 : "never") +
                                 " taken; one successor is "
                                 "statically dead"});
                }
            }

            IntervalAnalysis::transfer(inst, i, s);
        }
    }
}

} // namespace analysis
} // namespace paradox
