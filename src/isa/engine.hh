/**
 * @file
 * The redesigned execution API: an Engine owns decode, fetch and
 * single-instruction step for one Program, and returns a compact
 * CommitRecord that every consumer (out-of-order main-core timing,
 * checker replay, the system commit loop) interprets through one
 * shared vocabulary instead of re-deriving operand roles from raw
 * opcodes.
 *
 * Two engines implement the interface:
 *
 *  - ReferenceEngine wraps the legacy single-step isa::step().  It
 *    re-decodes every instruction on every step and exists as the
 *    semantic oracle for differential testing.
 *  - DecodedEngine (decoded.hh) executes a pre-decoded micro-op
 *    image with a threaded-dispatch inner loop.  It is the default
 *    production engine.
 *
 * Both are parameterized only by MemIf, mirroring how ParaMedic's
 * main and checker cores execute the same committed instruction
 * stream along different data paths.
 */

#ifndef PARADOX_ISA_ENGINE_HH
#define PARADOX_ISA_ENGINE_HH

#include <memory>
#include <string>

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
 * This is decode-time metadata: the DecodedEngine bakes it into its
 * micro-ops, the ReferenceEngine computes it per step.
 */
SourceRegs decodeSources(const Instruction &inst);

/**
 * One committed instruction, as reported by an Engine.
 *
 * The functional-outcome fields are inherited from ExecResult (the
 * reference executor's output) so the two engines are comparable
 * field-for-field; the extensions carry decode-time metadata that
 * timing models previously re-derived from the raw instruction.
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

/**
 * Wrap a legacy (instruction, ExecResult) pair as a CommitRecord,
 * deriving the decode-time metadata.  Bridge for callers that build
 * results by hand (unit tests, microbenchmarks).
 */
CommitRecord makeCommitRecord(const Instruction &inst,
                              const ExecResult &r);

/**
 * What the *next* step would do to memory, computed without
 * executing it.  The commit loop uses this to decide segment cuts
 * (would the load-store log overflow?) before execution, replacing
 * the old execute/undo/re-execute dance.
 */
struct MemPeek
{
    bool valid = false;    //!< fetch at state.pc() would succeed
    bool isLoad = false;
    bool isStore = false;
    Addr addr = 0;         //!< effective address (when isLoad/isStore)
    unsigned size = 0;     //!< access bytes (when isLoad/isStore)
};

/** Which execution engine implementation to use. */
enum class EngineKind : std::uint8_t
{
    Reference,  //!< legacy per-step decode (semantic oracle)
    Decoded,    //!< pre-decoded micro-ops, threaded dispatch (default)
};

/** Stable name of @p kind ("reference" / "decoded"). */
const char *engineKindName(EngineKind kind);

/** Parse an engine name; returns false on unknown names. */
bool parseEngineKind(const std::string &name, EngineKind &out);

/**
 * Execution engine for one Program.
 *
 * The engine owns fetch and decode; callers own the architectural
 * state and the memory, so one engine can serve several state/memory
 * pairs (the commit loop and the differential tests both rely on
 * this).  step() executes the instruction at state.pc() and returns
 * the commit record; a wild fetch returns valid == false with the
 * state unchanged.
 */
class Engine
{
  public:
    virtual ~Engine() = default;

    virtual EngineKind kind() const = 0;

    /** The program this engine executes. */
    const Program &program() const { return prog_; }

    /**
     * Apply the program's initial data image to @p mem and
     * zero-initialize @p state at the entry point.
     */
    void reset(ArchState &state, MemIf &mem) const;

    /** Memory behaviour of the instruction at state.pc(). */
    virtual MemPeek peekMem(const ArchState &state) const = 0;

    /** Execute one instruction, updating @p state (including pc). */
    virtual CommitRecord step(ArchState &state, MemIf &mem) = 0;

  protected:
    explicit Engine(const Program &prog) : prog_(prog) {}

    const Program &prog_;
};

/** Construct an engine of @p kind over @p prog. */
std::unique_ptr<Engine> makeEngine(EngineKind kind, const Program &prog);

/**
 * The legacy single-step executor behind the Engine interface.
 * Re-decodes on every step; kept as the reference semantics for
 * differential testing against DecodedEngine.
 */
class ReferenceEngine final : public Engine
{
  public:
    explicit ReferenceEngine(const Program &prog) : Engine(prog) {}

    EngineKind kind() const override { return EngineKind::Reference; }
    MemPeek peekMem(const ArchState &state) const override;
    CommitRecord step(ArchState &state, MemIf &mem) override;
};

} // namespace isa
} // namespace paradox

#endif // PARADOX_ISA_ENGINE_HH
