/**
 * @file
 * Register use/def model of every PDX64 opcode, shared by the
 * dataflow passes.
 *
 * The 32 integer and 32 FP registers are flattened into 64 "slots"
 * (0..31 = x0..x31, 32..63 = f0..f31) so a whole register file state
 * fits one std::uint64_t bitmask.  x0 occupies slot 0 but is never a
 * def (writes are discarded) and is always considered initialized.
 */

#ifndef PARADOX_ANALYSIS_REGMODEL_HH
#define PARADOX_ANALYSIS_REGMODEL_HH

#include <cstdint>
#include <string>

#include "isa/instruction.hh"

namespace paradox
{
namespace analysis
{

/** Total register slots: integer file then FP file. */
constexpr unsigned numRegSlots = isa::numIntRegs + isa::numFpRegs;

/** Slot of integer register @p r. */
constexpr unsigned xslot(unsigned r) { return r; }

/** Slot of FP register @p r. */
constexpr unsigned fslot(unsigned r) { return isa::numIntRegs + r; }

/** Slot of register operand @p r. */
constexpr unsigned regSlot(isa::RegOperand r)
{ return r.file == isa::Operand::Fp ? fslot(r.idx) : xslot(r.idx); }

/** Bit for slot @p s in a register-set mask. */
constexpr std::uint64_t slotBit(unsigned s)
{ return std::uint64_t(1) << s; }

/** "x12" / "f3" for diagnostics. */
std::string slotName(unsigned slot);

/**
 * The registers one instruction reads (its opcode row's source roles,
 * in field order) and writes.  @c def is -1 for instructions with no
 * register destination and for writes to x0.
 */
struct UseDef
{
    std::uint8_t uses[3] = {0, 0, 0};
    unsigned nUses = 0;
    int def = -1;

    /** Register-set mask of all used slots. */
    std::uint64_t
    useMask() const
    {
        std::uint64_t m = 0;
        for (unsigned i = 0; i < nUses; ++i)
            m |= slotBit(uses[i]);
        return m;
    }
};

/** Classify @p inst's register accesses. */
UseDef useDef(const isa::Instruction &inst);

} // namespace analysis
} // namespace paradox

#endif // PARADOX_ANALYSIS_REGMODEL_HH
