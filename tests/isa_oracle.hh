/**
 * @file
 * The test-only ISA oracle.
 *
 * step() is the reference single-step executor: it re-decodes every
 * instruction from its word and is written independently of the
 * decoded dispatch loop (src/isa/decoded_run.hh) that the simulator
 * runs.  The ISA differentials hold the two to bit-identical commit
 * records and architectural state.
 *
 * Engine is the lockstep interface those differentials drive: two
 * engines over one Program, stepped one instruction at a time, with a
 * pre-execution peek at each instruction's memory access.
 * ReferenceEngine wraps step(); DecodedEngine runs runDecoded() with a
 * budget of one and peeks through isa::effectiveAddr, the address the
 * System's commit gate computes its exact log bytes from.
 */

#ifndef PARADOX_TESTS_ISA_ORACLE_HH
#define PARADOX_TESTS_ISA_ORACLE_HH

#include <memory>

#include "isa/commit_record.hh"
#include "isa/decoded.hh"
#include "isa/executor.hh"

namespace paradox
{
namespace isa
{

/**
 * Execute one instruction at @p state.pc() of @p prog against @p mem,
 * updating @p state (including its pc).  A fetch outside the code
 * image returns ExecResult::valid == false with the state unchanged.
 */
ExecResult step(const Program &prog, ArchState &state, MemIf &mem);

/**
 * Wrap an (instruction, ExecResult) pair as a CommitRecord, deriving
 * the decode-time metadata, for records built by hand.
 */
CommitRecord makeCommitRecord(const Instruction &inst,
                              const ExecResult &r);

/** What the *next* step would do to memory, without executing it. */
struct MemPeek
{
    bool valid = false;    //!< fetch at state.pc() would succeed
    bool isLoad = false;
    bool isStore = false;
    Addr addr = 0;         //!< effective address (when isLoad/isStore)
    unsigned size = 0;     //!< access bytes (when isLoad/isStore)
};

/** Which engine makeEngine() builds. */
enum class EngineKind : std::uint8_t
{
    Reference,  //!< step(): per-step decode
    Decoded,    //!< runDecoded() over the decoded image
};

/**
 * One Program's executor for lockstep tests.  Callers own the
 * architectural state and the memory; step() executes the instruction
 * at state.pc() and returns its record (valid == false with the state
 * unchanged on a wild fetch).
 */
class Engine
{
  public:
    virtual ~Engine() = default;

    virtual EngineKind kind() const = 0;

    /** loadProgram() of this engine's program. */
    void reset(ArchState &state, MemIf &mem) const
    {
        loadProgram(prog_, state, mem);
    }

    /** Memory behaviour of the instruction at state.pc(). */
    virtual MemPeek peekMem(const ArchState &state) const = 0;

    /** Execute one instruction, updating @p state (including pc). */
    virtual CommitRecord step(ArchState &state, MemIf &mem) = 0;

  protected:
    explicit Engine(const Program &prog) : prog_(prog) {}

    const Program &prog_;
};

/** step() behind the Engine interface. */
class ReferenceEngine final : public Engine
{
  public:
    explicit ReferenceEngine(const Program &prog) : Engine(prog) {}

    EngineKind kind() const override { return EngineKind::Reference; }
    MemPeek peekMem(const ArchState &state) const override;
    CommitRecord step(ArchState &state, MemIf &mem) override;
};

/** runDecoded() with a budget of one behind the Engine interface. */
class DecodedEngine final : public Engine
{
  public:
    explicit DecodedEngine(const Program &prog)
        : Engine(prog), dp_(DecodedProgram::get(prog))
    {}

    EngineKind kind() const override { return EngineKind::Decoded; }
    MemPeek peekMem(const ArchState &state) const override;
    CommitRecord step(ArchState &state, MemIf &mem) override;

  private:
    std::shared_ptr<const DecodedProgram> dp_;
};

/** Construct an engine of @p kind over @p prog. */
std::unique_ptr<Engine> makeEngine(EngineKind kind, const Program &prog);

} // namespace isa
} // namespace paradox

#endif // PARADOX_TESTS_ISA_ORACLE_HH
