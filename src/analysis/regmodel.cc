#include "analysis/regmodel.hh"

namespace paradox
{
namespace analysis
{

std::string
slotName(unsigned slot)
{
    // Appended, not "x" + std::to_string(...): that temporary trips
    // GCC 12's -Wrestrict false positive.
    std::string s(1, slot < isa::numIntRegs ? 'x' : 'f');
    s += std::to_string(slot < isa::numIntRegs ? slot
                                               : slot - isa::numIntRegs);
    return s;
}

UseDef
useDef(const isa::Instruction &inst)
{
    UseDef ud;
    for (const isa::RegOperand &src : inst.sources())
        if (src.file != isa::Operand::None)
            ud.uses[ud.nUses++] = std::uint8_t(regSlot(src));
    const isa::RegOperand dst = inst.dest();
    if (dst.file != isa::Operand::None && regSlot(dst) != 0)
        ud.def = int(regSlot(dst));  // x0 writes are discarded
    return ud;
}

} // namespace analysis
} // namespace paradox
