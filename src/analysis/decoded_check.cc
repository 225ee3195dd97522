/**
 * @file
 * Decoded-image consistency pass ("decoded").
 *
 * The production engine executes the pre-decoded micro-op image
 * (isa::DecodedProgram), while the static analyses (the memdep
 * effect summaries the commit gate admits batches under) reason over
 * the CFG of the same program.  Superblock execution retires
 * straight-line runs without re-checking control flow, so the two
 * representations must agree: the image must hold one micro-op per
 * instruction, every run length has to stop at the next control
 * transfer, and every resolved branch target has to land on a CFG
 * block leader along a CFG edge.  This pass re-derives all three from
 * isa::InstInfo and the CFG and reports any drift as an error, so a
 * decode bug fails `isa_lint --all --Werror` instead of silently
 * breaking superblock execution.
 */

#include "analysis/passes.hh"

#include <algorithm>

#include "isa/decoded.hh"
#include "isa/instruction.hh"

namespace paradox
{
namespace analysis
{

void
checkDecoded(const Context &ctx, std::vector<Diagnostic> &diags)
{
    const isa::Program &prog = ctx.prog;
    const auto dp = isa::DecodedProgram::get(prog);
    const std::vector<isa::Instruction> &code = prog.code();
    const std::size_t n = code.size();

    if (dp->size() != n) {
        diags.push_back({Severity::Error, "decoded", "decoded-size",
                         Diagnostic::noIndex, "", "",
                         "decoded image has " +
                             std::to_string(dp->size()) +
                             " micro-ops for " + std::to_string(n) +
                             " instructions"});
        return;
    }
    if (n == 0)
        return;

    // Expected superblock run lengths, re-derived backward from the
    // instruction words (the decoder must stop every run at the next
    // control transfer, HALT, or image end).
    std::vector<std::uint32_t> runLen(n, 1);
    for (std::size_t i = n; i-- > 0;) {
        const isa::InstInfo &ii = code[i].info();
        const bool ends = ii.isBranch || ii.isJump ||
                          code[i].op == isa::Opcode::HALT;
        if (!ends && i + 1 < n)
            runLen[i] = runLen[i + 1] + 1;
    }

    for (std::size_t i = 0; i < n; ++i) {
        const isa::MicroOp &u = dp->at(i);

        if (u.runLen != runLen[i])
            diags.push_back(
                {Severity::Error, "decoded", "decoded-runlen", i, "",
                 "",
                 "superblock run length " + std::to_string(u.runLen) +
                     " does not stop at the next control transfer "
                     "(expected " +
                     std::to_string(runLen[i]) + ")"});

        // Resolved taken targets must be CFG block leaders reached
        // along a CFG edge from this instruction's block.
        if (u.target == isa::DecodedProgram::badTarget)
            continue;
        const std::size_t target = u.target;
        bool consistent = target < n;
        if (consistent) {
            const std::size_t sb = ctx.cfg.blockOf(i);
            const std::size_t tb = ctx.cfg.blockOf(target);
            const auto &succs = ctx.cfg.blocks()[sb].succs;
            consistent =
                ctx.cfg.blocks()[tb].first == target &&
                std::find(succs.begin(), succs.end(), tb) !=
                    succs.end();
        }
        if (!consistent)
            diags.push_back(
                {Severity::Error, "decoded", "decoded-target", i, "",
                 "",
                 "resolved branch target " + std::to_string(target) +
                     " is not a CFG successor block leader"});
    }
}

} // namespace analysis
} // namespace paradox
