/**
 * @file
 * Opcodes and instruction classes for the PDX64 ISA.
 *
 * PDX64 is a 64-bit RISC-style ISA, deliberately close to a subset of
 * ARMv8/RISC-V in spirit: 31 general integer registers plus a
 * hard-wired zero, 32 double-precision FP registers, byte-addressed
 * loads/stores of 1/2/4/8 bytes, and compare-and-branch control flow.
 * The paper's evaluation ran ARMv8 binaries under gem5; PDX64 plays
 * the same role here as the architectural substrate that workloads
 * are written in and that both main and checker cores execute.
 *
 * Every static per-opcode fact lives in one table, PARADOX_OPCODES
 * below, and every per-class fact in PARADOX_INST_CLASSES.  The enums,
 * InstInfo, mnemonics, the decoded engine's dispatch table, operand
 * roles (decodeSources, analysis::useDef) and checker latencies are
 * all generated from them.
 */

#ifndef PARADOX_ISA_OPCODE_HH
#define PARADOX_ISA_OPCODE_HH

#include <cstdint>

/**
 * The instruction classes: one row per functional-unit / timing
 * class.  Columns: name, checker-core execute cycles.
 *
 * The main core maps classes to its FU pool (3 int ALUs, 2 FP ALUs,
 * 1 mult/div, Table I); the fault injector uses them to target
 * specific units (section V-A, combinational faults).  The checker
 * cycles are what one instruction costs the 4-stage in-order checker
 * pipe beyond fetch: long ops stall it for their full latency (the
 * narrow divider especially, section IV-C); FP add is pipelined and
 * stalls only on use; loads and stores are one load-store-log SRAM
 * access; branches and jumps pay 1 cycle plus a 2-cycle refetch
 * bubble, since the pipe has no branch predictor.  This sizes
 * per-checker throughput so that, as in ParaMedic, on the order of a
 * dozen checkers are needed to match the main core.
 */
#define PARADOX_INST_CLASSES(X)                                         \
    X(IntAlu, 1)                                                        \
    X(IntMult, 4)                                                       \
    X(IntDiv, 24)                                                       \
    X(FpAlu, 2)                                                         \
    X(FpMult, 3)                                                        \
    X(FpDiv, 32)                                                        \
    X(Load, 1)                                                          \
    X(Store, 1)                                                         \
    X(Branch, 3)                                                        \
    X(Jump, 3)                                                          \
    X(Other, 1)

/**
 * The opcode table: one row per PDX64 operation.  Columns:
 *
 *  - name: the Opcode enumerator and decoded-engine handler label;
 *  - mnemonic;
 *  - class (PARADOX_INST_CLASSES);
 *  - rd, rs1, rs2: what each register field names -- None (unused,
 *    the builder zeroes it), Int or Fp;
 *  - acc: 1 when rd is also read as a source (FMADD's accumulator);
 *  - mem: load/store access width in bytes (0 if not memory);
 *  - sext: 1 when a load sign-extends.
 *
 * Adding an opcode takes a row here, a handler in each of the two
 * execution semantics (executor.cc, decoded_run.hh), and a look at the
 * per-opcode transfer functions of the analyses (vuln.cc, ai.cc,
 * footprint.cc).
 */
#define PARADOX_OPCODES(X)                                              \
    /* Integer register-register. */                                    \
    X(ADD,      "add",      IntAlu,  Int,  Int,  Int,  0, 0, 0)         \
    X(SUB,      "sub",      IntAlu,  Int,  Int,  Int,  0, 0, 0)         \
    X(AND_,     "and",      IntAlu,  Int,  Int,  Int,  0, 0, 0)         \
    X(OR_,      "or",       IntAlu,  Int,  Int,  Int,  0, 0, 0)         \
    X(XOR_,     "xor",      IntAlu,  Int,  Int,  Int,  0, 0, 0)         \
    X(SLL,      "sll",      IntAlu,  Int,  Int,  Int,  0, 0, 0)         \
    X(SRL,      "srl",      IntAlu,  Int,  Int,  Int,  0, 0, 0)         \
    X(SRA,      "sra",      IntAlu,  Int,  Int,  Int,  0, 0, 0)         \
    X(SLT,      "slt",      IntAlu,  Int,  Int,  Int,  0, 0, 0)         \
    X(SLTU,     "sltu",     IntAlu,  Int,  Int,  Int,  0, 0, 0)         \
    X(MUL,      "mul",      IntMult, Int,  Int,  Int,  0, 0, 0)         \
    X(MULH,     "mulh",     IntMult, Int,  Int,  Int,  0, 0, 0)         \
    X(DIV,      "div",      IntDiv,  Int,  Int,  Int,  0, 0, 0)         \
    X(DIVU,     "divu",     IntDiv,  Int,  Int,  Int,  0, 0, 0)         \
    X(REM,      "rem",      IntDiv,  Int,  Int,  Int,  0, 0, 0)         \
    X(REMU,     "remu",     IntDiv,  Int,  Int,  Int,  0, 0, 0)         \
    /* Integer register-immediate. */                                   \
    X(ADDI,     "addi",     IntAlu,  Int,  Int,  None, 0, 0, 0)         \
    X(ANDI,     "andi",     IntAlu,  Int,  Int,  None, 0, 0, 0)         \
    X(ORI,      "ori",      IntAlu,  Int,  Int,  None, 0, 0, 0)         \
    X(XORI,     "xori",     IntAlu,  Int,  Int,  None, 0, 0, 0)         \
    X(SLLI,     "slli",     IntAlu,  Int,  Int,  None, 0, 0, 0)         \
    X(SRLI,     "srli",     IntAlu,  Int,  Int,  None, 0, 0, 0)         \
    X(SRAI,     "srai",     IntAlu,  Int,  Int,  None, 0, 0, 0)         \
    X(SLTI,     "slti",     IntAlu,  Int,  Int,  None, 0, 0, 0)         \
    /* 64-bit immediate load (simulator-level pseudo-op). */            \
    X(LDI,      "ldi",      IntAlu,  Int,  None, None, 0, 0, 0)         \
    /* Loads (sign- and zero-extending) and stores. */                  \
    X(LB,       "lb",       Load,    Int,  Int,  None, 0, 1, 1)         \
    X(LBU,      "lbu",      Load,    Int,  Int,  None, 0, 1, 0)         \
    X(LH,       "lh",       Load,    Int,  Int,  None, 0, 2, 1)         \
    X(LHU,      "lhu",      Load,    Int,  Int,  None, 0, 2, 0)         \
    X(LW,       "lw",       Load,    Int,  Int,  None, 0, 4, 1)         \
    X(LWU,      "lwu",      Load,    Int,  Int,  None, 0, 4, 0)         \
    X(LD,       "ld",       Load,    Int,  Int,  None, 0, 8, 0)         \
    X(SB,       "sb",       Store,   None, Int,  Int,  0, 1, 0)         \
    X(SH,       "sh",       Store,   None, Int,  Int,  0, 2, 0)         \
    X(SW,       "sw",       Store,   None, Int,  Int,  0, 4, 0)         \
    X(SD,       "sd",       Store,   None, Int,  Int,  0, 8, 0)         \
    X(FLD,      "fld",      Load,    Fp,   Int,  None, 0, 8, 0)         \
    X(FSD,      "fsd",      Store,   None, Int,  Fp,   0, 8, 0)         \
    /* Control flow. */                                                 \
    X(BEQ,      "beq",      Branch,  None, Int,  Int,  0, 0, 0)         \
    X(BNE,      "bne",      Branch,  None, Int,  Int,  0, 0, 0)         \
    X(BLT,      "blt",      Branch,  None, Int,  Int,  0, 0, 0)         \
    X(BGE,      "bge",      Branch,  None, Int,  Int,  0, 0, 0)         \
    X(BLTU,     "bltu",     Branch,  None, Int,  Int,  0, 0, 0)         \
    X(BGEU,     "bgeu",     Branch,  None, Int,  Int,  0, 0, 0)         \
    X(JAL,      "jal",      Jump,    Int,  None, None, 0, 0, 0)         \
    X(JALR,     "jalr",     Jump,    Int,  Int,  None, 0, 0, 0)         \
    /* Double-precision floating point. */                              \
    X(FADD,     "fadd",     FpAlu,   Fp,   Fp,   Fp,   0, 0, 0)         \
    X(FSUB,     "fsub",     FpAlu,   Fp,   Fp,   Fp,   0, 0, 0)         \
    X(FMUL,     "fmul",     FpMult,  Fp,   Fp,   Fp,   0, 0, 0)         \
    X(FDIV,     "fdiv",     FpDiv,   Fp,   Fp,   Fp,   0, 0, 0)         \
    X(FSQRT,    "fsqrt",    FpDiv,   Fp,   Fp,   None, 0, 0, 0)         \
    X(FMIN,     "fmin",     FpAlu,   Fp,   Fp,   Fp,   0, 0, 0)         \
    X(FMAX,     "fmax",     FpAlu,   Fp,   Fp,   Fp,   0, 0, 0)         \
    X(FNEG,     "fneg",     FpAlu,   Fp,   Fp,   None, 0, 0, 0)         \
    X(FABS,     "fabs",     FpAlu,   Fp,   Fp,   None, 0, 0, 0)         \
    X(FMADD,    "fmadd",    FpMult,  Fp,   Fp,   Fp,   1, 0, 0)         \
    /* int64 -> double; double -> int64 (truncating). */                \
    X(FCVT_D_L, "fcvt.d.l", FpAlu,   Fp,   Int,  None, 0, 0, 0)         \
    X(FCVT_L_D, "fcvt.l.d", FpAlu,   Int,  Fp,   None, 0, 0, 0)         \
    /* Raw bit moves fp -> int and int -> fp. */                        \
    X(FMV_X_D,  "fmv.x.d",  FpAlu,   Int,  Fp,   None, 0, 0, 0)         \
    X(FMV_D_X,  "fmv.d.x",  FpAlu,   Fp,   Int,  None, 0, 0, 0)         \
    /* FP compares writing an integer register. */                      \
    X(FEQ,      "feq",      FpAlu,   Int,  Fp,   Fp,   0, 0, 0)         \
    X(FLT_,     "flt",      FpAlu,   Int,  Fp,   Fp,   0, 0, 0)         \
    X(FLE,      "fle",      FpAlu,   Int,  Fp,   Fp,   0, 0, 0)         \
    /* Miscellaneous; SYSCALL is a rollback-able internal operation. */ \
    X(NOP,      "nop",      Other,   None, None, None, 0, 0, 0)         \
    X(SYSCALL,  "syscall",  Other,   Int,  Int,  None, 0, 0, 0)         \
    X(HALT,     "halt",     Other,   None, None, None, 0, 0, 0)

namespace paradox
{
namespace isa
{

/** Every PDX64 operation (PARADOX_OPCODES). */
enum class Opcode : std::uint8_t
{
#define PARADOX_X(name, ...) name,
    PARADOX_OPCODES(PARADOX_X)
#undef PARADOX_X
    NumOpcodes
};

/** Functional-unit / timing class of an instruction. */
enum class InstClass : std::uint8_t
{
#define PARADOX_X(name, cycles) name,
    PARADOX_INST_CLASSES(PARADOX_X)
#undef PARADOX_X
    NumClasses
};

/** What one register field of an instruction names. */
enum class Operand : std::uint8_t
{
    None,  //!< field unused
    Int,   //!< integer register file
    Fp,    //!< floating-point register file
};

/** Static properties of one opcode: its PARADOX_OPCODES row. */
struct InstInfo
{
    const char *mnemonic;
    InstClass cls;
    Operand rd;           //!< destination (None: writes no register)
    Operand rs1;
    Operand rs2;
    bool rdIsSource;      //!< rd is also read (FMADD accumulator)
    std::uint8_t memSize; //!< access width in bytes (0 if not memory)
    bool loadSignExtend;  //!< LB/LH/LW

    /** @{ Derived from the class. */
    bool isLoad;
    bool isStore;
    bool isBranch;        //!< conditional control flow
    bool isJump;          //!< unconditional control flow
    /** @} */
};

namespace detail
{

/** Abort on a corrupt opcode (out-of-line: keeps instInfo tiny). */
[[noreturn]] void instInfoOutOfRange();

constexpr InstInfo
infoRow(const char *mnem, InstClass cls, Operand rd, Operand rs1,
        Operand rs2, bool acc, std::uint8_t mem, bool sext)
{
    return InstInfo{mnem, cls, rd, rs1, rs2, acc, mem, sext,
                    cls == InstClass::Load, cls == InstClass::Store,
                    cls == InstClass::Branch, cls == InstClass::Jump};
}

inline constexpr InstInfo
    infoTable[static_cast<unsigned>(Opcode::NumOpcodes)] = {
#define PARADOX_X(name, mnem, cls, rd, rs1, rs2, acc, mem, sext)        \
    infoRow(mnem, InstClass::cls, Operand::rd, Operand::rs1,            \
            Operand::rs2, acc, mem, sext),
    PARADOX_OPCODES(PARADOX_X)
#undef PARADOX_X
};

inline constexpr unsigned
    checkerCycleTable[static_cast<unsigned>(InstClass::NumClasses)] = {
#define PARADOX_X(name, cycles) cycles,
    PARADOX_INST_CLASSES(PARADOX_X)
#undef PARADOX_X
};

} // namespace detail

/**
 * Look up the static properties of @p op.  Inline: this sits on the
 * per-instruction hot paths (decode, timing, replay).
 */
inline const InstInfo &
instInfo(Opcode op)
{
    const auto idx = static_cast<unsigned>(op);
    if (idx >= static_cast<unsigned>(Opcode::NumOpcodes))
        detail::instInfoOutOfRange();
    return detail::infoTable[idx];
}

/**
 * Checker-core execute cycles of one instruction of @p cls, as the
 * checker timing model (cpu::CheckerTiming) charges them.
 */
constexpr unsigned
checkerExecCycles(InstClass cls)
{
    return detail::checkerCycleTable[static_cast<unsigned>(cls)];
}

/** Human-readable mnemonic of @p op. */
const char *mnemonic(Opcode op);

/** Human-readable name of an instruction class. */
const char *className(InstClass cls);

} // namespace isa
} // namespace paradox

#endif // PARADOX_ISA_OPCODE_HH
