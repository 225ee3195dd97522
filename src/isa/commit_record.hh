/**
 * @file
 * The one record of a committed instruction that every consumer
 * shares: runDecoded() (decoded_run.hh) delivers a CommitRecord per
 * retired micro-op, and the main-core timing model, the load-store
 * log, checker replay and the System's commit pipeline all read its
 * operand roles from it instead of re-deriving them from the opcode.
 * The main core and the checkers execute the same committed
 * instruction stream, as in ParaMedic, and this is its one format.
 */

#ifndef PARADOX_ISA_COMMIT_RECORD_HH
#define PARADOX_ISA_COMMIT_RECORD_HH

#include "isa/executor.hh"

namespace paradox
{
namespace isa
{

/**
 * @{
 * Encoded source-register operands.
 *
 * One byte per source: srcNone when the operand slot is unused,
 * otherwise the register index with srcFpBit set when the index
 * names the FP file.  The encoding is produced once at decode time
 * (decodeSources) so timing models can walk a commit record's
 * sources with a uniform loop instead of re-deriving per-opcode
 * operand roles (the logic previously duplicated across
 * main_core.cc and checker_replay.cc).
 */
constexpr std::uint8_t srcNone = 0xff;
constexpr std::uint8_t srcFpBit = 0x80;
constexpr std::uint8_t srcIdxMask = 0x7f;

constexpr bool srcIsFp(std::uint8_t s) { return (s & srcFpBit) != 0; }
constexpr unsigned srcIdx(std::uint8_t s) { return s & srcIdxMask; }
/** @} */

/** The three encoded source operands of one instruction. */
struct SourceRegs
{
    std::uint8_t a = srcNone;  //!< rs1
    std::uint8_t b = srcNone;  //!< rs2
    std::uint8_t c = srcNone;  //!< rd as a source (FMADD accumulator)
};

/**
 * The source operands of @p inst (Instruction::sources: rs1, rs2, the
 * FMADD accumulator), encoded for the register-dependency scoreboard.
 * This is decode-time metadata: DecodedProgram bakes it into its
 * micro-ops.
 */
SourceRegs decodeSources(const Instruction &inst);

/**
 * One committed instruction.
 *
 * The functional-outcome fields are inherited from ExecResult, the
 * shape the test-only reference executor also reports, so the two are
 * comparable field-for-field; the extensions carry decode-time
 * metadata that timing models previously re-derived from the raw
 * instruction.
 */
struct CommitRecord : ExecResult
{
    const Instruction *inst = nullptr;  //!< fetched word; null if !valid

    /** Encoded source registers (see decodeSources). */
    std::uint8_t srcA = srcNone;
    std::uint8_t srcB = srcNone;
    std::uint8_t srcC = srcNone;

    /** Field-wise equality of the functional outcome + metadata. */
    bool
    sameAs(const CommitRecord &o) const
    {
        return valid == o.valid && halted == o.halted && op == o.op &&
               cls == o.cls && pc == o.pc && nextPc == o.nextPc &&
               isLoad == o.isLoad && isStore == o.isStore &&
               memAddr == o.memAddr && memSize == o.memSize &&
               loadValue == o.loadValue && storeValue == o.storeValue &&
               storeOld == o.storeOld && isBranch == o.isBranch &&
               isJump == o.isJump && taken == o.taken &&
               wroteInt == o.wroteInt && wroteFp == o.wroteFp &&
               rd == o.rd && destValue == o.destValue &&
               srcA == o.srcA && srcB == o.srcB && srcC == o.srcC;
    }
};

} // namespace isa
} // namespace paradox

#endif // PARADOX_ISA_COMMIT_RECORD_HH
