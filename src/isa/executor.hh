/**
 * @file
 * The functional outcome of one executed PDX64 instruction, and the
 * program load that every run starts from.
 *
 * Both core types execute the same decoded image (decoded_run.hh):
 * the main core against real memory, the checker cores against a
 * load-store-log replay adapter.  One functional-semantics
 * implementation differing only in the MemIf mirrors ParaMedic's
 * property that the two cores re-execute the same committed
 * instruction stream along different data paths.
 */

#ifndef PARADOX_ISA_EXECUTOR_HH
#define PARADOX_ISA_EXECUTOR_HH

#include <cstdint>

#include "isa/arch_state.hh"
#include "isa/instruction.hh"
#include "isa/mem_if.hh"
#include "isa/program.hh"

namespace paradox
{
namespace isa
{

/** Everything observable about one executed instruction. */
struct ExecResult
{
    bool valid = false;      //!< fetch succeeded (pc inside image)
    bool halted = false;     //!< HALT executed
    Opcode op = Opcode::NOP;
    InstClass cls = InstClass::Other;
    Addr pc = 0;             //!< pc of the executed instruction
    Addr nextPc = 0;         //!< pc after execution

    bool isLoad = false;
    bool isStore = false;
    Addr memAddr = 0;
    unsigned memSize = 0;
    std::uint64_t loadValue = 0;   //!< value a load observed
    std::uint64_t storeValue = 0;  //!< value a store wrote
    std::uint64_t storeOld = 0;    //!< value a store overwrote

    bool isBranch = false;
    bool isJump = false;
    bool taken = false;

    bool wroteInt = false;
    bool wroteFp = false;
    std::uint8_t rd = 0;           //!< destination register index
    std::uint64_t destValue = 0;   //!< raw value written to rd
};

/**
 * Apply @p prog's initial data image to @p mem, and zero-initialize
 * @p state with the program entry point.
 */
inline void
loadProgram(const Program &prog, ArchState &state, MemIf &mem)
{
    state.reset(0);
    for (const auto &cell : prog.data())
        mem.write(cell.addr, 8, cell.value);
}

} // namespace isa
} // namespace paradox

#endif // PARADOX_ISA_EXECUTOR_HH
