/**
 * @file
 * Pre-decoded micro-op image of a Program: what every instruction the
 * simulator runs executes from.
 *
 * Decode happens once, at DecodedProgram construction: every
 * Instruction becomes one flat MicroOp with its encoded sources,
 * load/store/branch classification and memory width pre-extracted, branch/jump targets resolved to
 * micro-op *indices*, and a superblock run length (the number of
 * guaranteed straight-line micro-ops from each point to the next
 * control transfer or HALT).  The inner loop (decoded_run.hh) then
 * dispatches on the pre-classified opcode -- computed-goto threaded
 * dispatch where the compiler supports it -- without touching the
 * instruction word, the InstInfo table, or the fetch bounds check on
 * straight-line paths.
 *
 * Superblock run lengths are derived from the same control-transfer
 * boundaries the CFG in src/analysis/ computes; isa_lint
 * cross-checks the two so decoded execution cannot drift from the
 * static paradox-cost/1 bounds.
 */

#ifndef PARADOX_ISA_DECODED_HH
#define PARADOX_ISA_DECODED_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "isa/arch_state.hh"
#include "isa/commit_record.hh"

namespace paradox
{
namespace isa
{

/** One pre-decoded instruction. */
struct MicroOp
{
    Opcode op = Opcode::NOP;
    std::uint8_t rd = 0;
    std::uint8_t rs1 = 0;
    std::uint8_t rs2 = 0;
    InstClass cls = InstClass::Other;
    std::uint8_t memSize = 0;    //!< access bytes (0 if not memory)

    /** Encoded sources (commit_record.hh), as the scoreboard reads them. */
    std::uint8_t srcA = srcNone;
    std::uint8_t srcB = srcNone;
    std::uint8_t srcC = srcNone;

    /** @{ Pre-classified behaviour flags (from InstInfo). */
    bool isLoad = false;
    bool isStore = false;
    bool isBranch = false;
    bool isJump = false;
    /** @} */

    /**
     * Resolved control-transfer target as a micro-op index: the
     * branch/JAL destination when taken.  badTarget when the encoded
     * destination is misaligned or outside the image (a wild jump
     * surfacing as a failed fetch on the next step), or when the
     * target is dynamic (JALR) or the op transfers no control.
     */
    std::uint32_t target = 0;

    /**
     * Superblock run length: the number of micro-ops from this one
     * (inclusive) through the next control transfer, HALT, or image
     * end.  Straight-line execution can retire runLen - 1 micro-ops
     * with nothing but an index increment.
     */
    std::uint32_t runLen = 1;

    std::int64_t imm = 0;
    const Instruction *inst = nullptr;  //!< backing instruction word
};

/**
 * The flat, dense decoded image of one Program.
 *
 * Micro-op i corresponds 1:1 to prog.code()[i] (byte address
 * i * instBytes).  Instances are immutable and shared: get() memoizes
 * the decode per Program so the commit loop, the checker replay and
 * the analysis tooling decode each image once.
 */
class DecodedProgram
{
  public:
    /** Sentinel index for "no / wild / dynamic target". */
    static constexpr std::uint32_t badTarget = 0xffffffffu;

    explicit DecodedProgram(const Program &prog);

    /**
     * The shared decode of @p prog.  Thread-safe; entries are keyed
     * by program identity and verified against a content hash so a
     * rebuilt Program at a recycled address re-decodes.
     */
    static std::shared_ptr<const DecodedProgram> get(const Program &prog);

    const Program &program() const { return prog_; }

    std::size_t size() const { return uops_.size(); }
    const std::vector<MicroOp> &uops() const { return uops_; }
    const MicroOp &at(std::size_t idx) const { return uops_[idx]; }

    /** FNV-1a hash of the instruction words (cache validation). */
    std::uint64_t contentHash() const { return hash_; }

    /** Dynamic instruction classes, counted over the decoded image. */
    std::vector<std::uint64_t> classCounts() const;

  private:
    const Program &prog_;
    std::vector<MicroOp> uops_;
    std::uint64_t hash_ = 0;
};

/**
 * The address memory micro-op @p u accesses when it executes next
 * from @p state (rs1 + imm), known before it runs.  The System's
 * commit gate derives an op's exact log bytes from it.
 */
inline Addr
effectiveAddr(const MicroOp &u, const ArchState &state)
{
    return state.readX(u.rs1) + std::uint64_t(u.imm);
}

} // namespace isa
} // namespace paradox

#endif // PARADOX_ISA_DECODED_HH
