#include "isa/instruction.hh"

#include <sstream>

namespace paradox
{
namespace isa
{

std::string
Instruction::toString() const
{
    const InstInfo &ii = info();
    std::ostringstream os;
    os << ii.mnemonic;
    const char *sep = " ";
    auto reg = [&](Operand file, unsigned idx) {
        if (file == Operand::None)
            return;
        os << sep << (file == Operand::Fp ? 'f' : 'x') << idx;
        sep = ", ";
    };
    if (ii.memSize) {
        // The data register, then the address: "sd x2, 8(x1)".
        if (ii.isStore)
            reg(ii.rs2, rs2);
        else
            reg(ii.rd, rd);
        os << sep << imm << "(x" << unsigned(rs1) << ")";
        return os.str();
    }
    reg(ii.rd, rd);
    reg(ii.rs1, rs1);
    reg(ii.rs2, rs2);
    if (ii.isBranch || (ii.isJump && ii.rs1 == Operand::None))
        os << sep << '@' << imm;  // absolute target
    else if (ii.rs2 == Operand::None &&
             (ii.cls == InstClass::IntAlu || ii.isJump))
        os << sep << imm;  // ALU immediate, JALR offset
    return os.str();
}

} // namespace isa
} // namespace paradox
