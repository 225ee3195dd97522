/**
 * @file
 * The PDX64 instruction word and typed register handles.
 */

#ifndef PARADOX_ISA_INSTRUCTION_HH
#define PARADOX_ISA_INSTRUCTION_HH

#include <array>
#include <cstdint>
#include <string>

#include "isa/opcode.hh"

namespace paradox
{
namespace isa
{

/** Number of integer registers (x0 is hard-wired to zero). */
constexpr unsigned numIntRegs = 32;

/** Number of double-precision FP registers. */
constexpr unsigned numFpRegs = 32;

/** Bytes occupied by one encoded instruction (for I-cache modelling). */
constexpr unsigned instBytes = 4;

/** Typed handle for an integer register, for builder type safety. */
struct XReg
{
    std::uint8_t idx;
    constexpr explicit XReg(unsigned i = 0) : idx(std::uint8_t(i)) {}
    constexpr bool operator==(const XReg &) const = default;
};

/** Typed handle for a floating-point register. */
struct FReg
{
    std::uint8_t idx;
    constexpr explicit FReg(unsigned i = 0) : idx(std::uint8_t(i)) {}
    constexpr bool operator==(const FReg &) const = default;
};

/** The always-zero integer register. */
constexpr XReg xzero{0};

/** One register operand of an instruction: its file and index. */
struct RegOperand
{
    Operand file = Operand::None;  //!< None: no register
    std::uint8_t idx = 0;
};

/**
 * One decoded instruction.
 *
 * Register fields index either the integer or the FP file depending
 * on the opcode's semantics; @c imm carries immediates, shift
 * amounts, and branch displacements (in instructions).
 */
struct Instruction
{
    Opcode op = Opcode::NOP;
    std::uint8_t rd = 0;
    std::uint8_t rs1 = 0;
    std::uint8_t rs2 = 0;
    std::int64_t imm = 0;

    /** Static properties of this instruction's opcode. */
    const InstInfo &info() const { return instInfo(op); }

    /**
     * The registers this instruction reads, by field: rs1, rs2, then
     * rd when its opcode row marks rd a source.  Unused fields have
     * file None.
     */
    std::array<RegOperand, 3>
    sources() const
    {
        const InstInfo &ii = info();
        return {{{ii.rs1, rs1},
                 {ii.rs2, rs2},
                 {ii.rdIsSource ? ii.rd : Operand::None, rd}}};
    }

    /** The register this instruction writes (file None if none). */
    RegOperand dest() const { return {info().rd, rd}; }

    /**
     * Render for diagnostics, e.g. "add x3, x1, x2", "ld x2, 8(x1)",
     * "beq x1, x2, @64": the registers the opcode row names, then the
     * immediate where the opcode reads one.
     */
    std::string toString() const;
};

} // namespace isa
} // namespace paradox

#endif // PARADOX_ISA_INSTRUCTION_HH
