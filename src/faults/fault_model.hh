/**
 * @file
 * Error-injection framework (paper section V-A, figure 7).
 *
 * Faults are injected into checker cores only, as in the paper:
 * detection is symmetric (a mismatch never says which side erred), so
 * restricting injection to one side leaves recovery behaviour
 * unchanged while giving the simulation a trustworthy oracle.
 *
 * Three fault models approximate the variety of hardware faults:
 *
 *  - LogBitFlip: "memory faults" -- one bit of the data carried by a
 *    load-store-log entry flips; the geometric gap counts targeted
 *    memory operations (loads or stores).
 *
 *  - FunctionalUnit: "combinational faults from a defect in a
 *    particular functional unit" -- when an instruction of the
 *    targeted class writes a register, the written value is
 *    corrupted; instructions that touch no register are skipped.
 *
 *  - RegisterBitFlip: "combinational faults of unknown origin" --
 *    a single bit flips in a register chosen at random within a
 *    category (integer, float, flags, misc); the gap counts executed
 *    instructions.
 *
 * Orthogonally to *what* is corrupted, each injector has a temporal
 * *persistence* class (undervolted silicon exhibits all three;
 * Papadimitriou et al. report workload- and core-dependent clustered
 * rates, Soyturk et al. report faults recurring at fixed locations):
 *
 *  - Transient: independent errors, geometric inter-arrival gaps
 *    (the original model).
 *
 *  - Intermittent: the geometric gap opens a *burst* -- a marginal
 *    circuit goes bad for a while.  For the next burstLength targeted
 *    events the fault fires with probability burstBias, always at the
 *    same (per-burst) bit position, then the injector re-arms.
 *
 *  - Permanent: the first firing latches the fault.  From then on
 *    *every* targeted event fires at the same stuck location --
 *    a hard defect, recurring at a fixed site.
 *
 * An injector may additionally be pinned to a single checker core
 * (targetChecker >= 0): events observed while any other checker is
 * replaying do not touch it, modelling a physical defect in one
 * core rather than an ambient error process.
 */

#ifndef PARADOX_FAULTS_FAULT_MODEL_HH
#define PARADOX_FAULTS_FAULT_MODEL_HH

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "faults/chip_model.hh"
#include "isa/arch_state.hh"
#include "isa/instruction.hh"
#include "sim/rng.hh"

namespace paradox
{
namespace faults
{

/** The three injected fault families. */
enum class FaultKind : std::uint8_t
{
    LogBitFlip,
    FunctionalUnit,
    RegisterBitFlip,
};

/** Temporal behaviour of a fault source. */
enum class Persistence : std::uint8_t
{
    Transient,    //!< independent, geometric inter-arrival
    Intermittent, //!< bursty recurrence at a fixed per-burst site
    Permanent,    //!< sticky: first firing latches a stuck location
};

/** Human-readable fault-family name. */
const char *faultKindName(FaultKind kind);

/** Human-readable persistence name. */
const char *persistenceName(Persistence persistence);

/** Parse a persistence name; returns false on an unknown string. */
bool parsePersistence(const std::string &name, Persistence &out);

/** Configuration of one injector. */
struct FaultConfig
{
    FaultKind kind = FaultKind::RegisterBitFlip;
    /** Per-targeted-event probability (geometric gap parameter). */
    double rate = 0.0;
    /** LogBitFlip: target loads, stores, or both. */
    bool targetLoads = true;
    bool targetStores = true;
    /** FunctionalUnit: the defective unit. */
    isa::InstClass targetClass = isa::InstClass::IntAlu;
    /** RegisterBitFlip: the targeted register category. */
    isa::RegCategory targetCategory = isa::RegCategory::Integer;
    std::uint64_t seed = 1;

    /** Temporal class (see file comment). */
    Persistence persistence = Persistence::Transient;
    /** Intermittent: targeted events per burst window. */
    unsigned burstLength = 16;
    /** Intermittent: per-event firing probability inside a burst. */
    double burstBias = 0.5;
    /**
     * Pin the fault to one checker core (-1 = ambient, affects every
     * checker).  Pinned injectors ignore events replayed on other
     * checkers entirely: their gap does not advance.
     */
    int targetChecker = -1;

    /**
     * Reject malformed parameters (rate/burstBias outside [0,1],
     * zero burstLength, targetChecker below -1) with
     * std::invalid_argument.  The checker-count upper bound is
     * enforced later by FaultPlan::validate (the plan does not know
     * the pool size).  Called by the FaultInjector constructor.
     */
    void validate() const;
};

/** A decision returned by an injector when it fires. */
struct FaultHit
{
    bool fires = false;
    unsigned bit = 0;      //!< bit position to flip
    unsigned regIndex = 0; //!< target register (RegisterBitFlip)
    /** Chip mode: index of the weak cell in the chip map, else -1. */
    int site = -1;
    /** Chip mode: apply stuck-at @ref stuckValue, not an XOR. */
    bool hasStuck = false;
    bool stuckValue = false;
    /**
     * Static ACE verdict for the hit site, stamped by the consumer
     * when a vulnerability model (analysis::VulnAnalysis) is
     * installed: 0 = unknown/no model, 1 = live, 2 = provably dead
     * (raw so this layer stays analysis-free; values mirror
     * analysis::SiteVerdict).
     */
    std::uint8_t verdict = 0;
};

/**
 * One geometric-gap fault source.
 *
 * The owner calls the event hook matching the injector's kind; other
 * hooks return no-fire immediately.  Rates may be retuned at run time
 * (the dynamic-voltage path drives rate from the undervolt model);
 * retuning resamples the gap.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultConfig &config);

    /** Change the per-event probability (resamples the gap). */
    void setRate(double rate);

    double rate() const { return config_.rate; }
    FaultKind kind() const { return config_.kind; }
    const FaultConfig &config() const { return config_; }

    /**
     * Select which checker core subsequent events belong to (-1 =
     * unattributed, e.g. main-core events).  Pinned injectors skip
     * events from non-matching checkers.
     */
    void setActiveChecker(int id) { activeChecker_ = id; }

    /**
     * Switch to chip-map mode: instead of geometric gaps over
     * uniform-random sites, every targeted event consults @p chip's
     * weak cells for the active domain.  A matching cell fires with
     * its voltage-dependent probability and returns a stuck-at hit
     * (FaultHit::hasStuck).  Persistence applies per cell: a
     * Permanent source latches the first firing cell, an
     * Intermittent one bursts at it.  nullptr detaches.  @p chip
     * must outlive the injector.
     */
    void attachChip(const ChipModel *chip);

    /** Chip mode: supply voltage driving per-cell probabilities. */
    void setVoltage(double v);

    bool chipMode() const { return chip_ != nullptr; }

    /** A checker consumed a load-store-log data value.  Chip mode
     *  maps @p entry_index onto a physical log row. */
    FaultHit onLogEntry(bool is_load, std::uint64_t entry_index = 0);

    /**
     * A checker executed @p inst, writing a register iff @p wrote_reg.
     * Fires for FunctionalUnit (matching class, register written) and
     * RegisterBitFlip (any instruction).
     */
    FaultHit onInstruction(const isa::Instruction &inst, bool wrote_reg);

    /** quietEvents() of a source that can never fire. */
    static constexpr std::uint64_t unbounded =
        std::numeric_limits<std::uint64_t>::max();

    /**
     * How many upcoming targeted events provably neither fire nor
     * draw from the RNG: gap - 1 for a transient source, an
     * unlatched permanent one and an intermittent one outside a
     * burst; @ref unbounded at rate 0 and for a source pinned to
     * another checker than the active one; 0 in chip mode, once
     * latched and inside a burst.  A targeted event is what the
     * hooks above consume: every instruction (RegisterBitFlip), every
     * instruction of targetClass whether or not it writes a register
     * (FunctionalUnit), every targeted load/store entry (LogBitFlip).
     */
    std::uint64_t quietEvents() const;

    /**
     * Account @p n targeted events without calling the hooks, leaving
     * exactly the state @p n no-fire hook calls would leave.
     * Requires n <= quietEvents().
     */
    void skipEvents(std::uint64_t n);

    /**
     * Each coming event must go through the hooks, not just the next
     * one: chip mode, a latched source or an open burst (unless the
     * source is pinned to another checker).  Replay steps the rest of
     * the segment event by event then.
     */
    bool stepsEveryEvent() const;

    /** Total number of faults this injector has fired. */
    std::uint64_t fired() const { return fired_; }

    /** Fires attributed to chip weak cells (== fired in chip mode). */
    std::uint64_t weakCellHits() const { return weakCellHits_; }

    /** A permanent fault has latched its stuck location. */
    bool latched() const { return latched_; }

    /** Restart the gap sequence (between independent runs). */
    void reset();

  private:
    /** Pinned to a checker other than the one replaying. */
    bool pinnedElsewhere() const
    {
        return config_.targetChecker >= 0 &&
               activeChecker_ != config_.targetChecker;
    }
    bool consumeEvent();
    void resample();
    /** Choose (or reuse) the fault site for a firing event. */
    void chooseSite(unsigned reg_bound);
    /** Chip mode: one targeted event against the weak-cell map. */
    FaultHit chipEvent(SiteKind kind, unsigned match, bool constrained);
    /** Build the firing hit for weak cell @p cell_index. */
    FaultHit chipHit(std::uint32_t cell_index);

    FaultConfig config_;
    Rng rng_;
    std::uint64_t gap_ = 0;
    std::uint64_t fired_ = 0;
    int activeChecker_ = -1;

    // Persistence state: the latched/stuck site (Permanent) or the
    // current burst's site and remaining budget (Intermittent).
    bool latched_ = false;
    unsigned burstLeft_ = 0;
    bool siteChosen_ = false;
    unsigned siteBit_ = 0;
    unsigned siteReg_ = 0;

    // Chip-map mode (attachChip): per-cell probabilities cached at
    // the current voltage; chipCell_ is the latched/bursting cell.
    const ChipModel *chip_ = nullptr;
    double voltage_ = 0.0;
    std::vector<double> cellProb_;
    std::uint32_t chipCell_ = 0;
    std::uint64_t weakCellHits_ = 0;
};

/** A set of concurrently active injectors. */
class FaultPlan
{
  public:
    FaultPlan() = default;

    /** Add an injector; returns its index. */
    std::size_t add(const FaultConfig &config);

    /** Retune every injector to @p rate (voltage-driven operation). */
    void setAllRates(double rate);

    /** Attach the chip fault map to every injector (nullptr off). */
    void attachChip(const ChipModel *chip);

    /** Chip mode: propagate the supply voltage to every injector. */
    void setVoltage(double v);

    /** Attribute subsequent events to checker @p id (-1 = none). */
    void setActiveChecker(int id);

    /**
     * Enforce the bounds FaultConfig::validate cannot: every pinned
     * injector must target a checker below @p checker_count.  Throws
     * std::invalid_argument.
     */
    void validate(unsigned checker_count) const;

    std::vector<FaultInjector> &injectors() { return injectors_; }
    const std::vector<FaultInjector> &injectors() const
    {
        return injectors_;
    }

    bool empty() const { return injectors_.empty(); }

    std::uint64_t totalFired() const;

    /** Sum of per-injector weak-cell fires (0 outside chip mode). */
    std::uint64_t totalWeakCellHits() const;

    void reset();

  private:
    std::vector<FaultInjector> injectors_;
};

/**
 * Convenience: the "uniform" plan used for the figure 8/9 sweeps --
 * one RegisterBitFlip source over all instructions and one LogBitFlip
 * source over all memory operations, both at @p rate.
 */
FaultPlan uniformPlan(double rate, std::uint64_t seed);

/**
 * The uniform pair with an explicit temporal class, optionally pinned
 * to checker @p target_checker (campaign sweeps, robustness tests).
 */
FaultPlan uniformPlan(double rate, std::uint64_t seed,
                      Persistence persistence, int target_checker);

/**
 * The chip-mode plan: one injector per site class (register file,
 * load-store log, functional units) so every weak cell in an
 * attached ChipModel is reachable.  Rates are zero -- chip mode
 * fires from per-cell probabilities, not geometric gaps.
 */
FaultPlan chipPlan(std::uint64_t seed, Persistence persistence,
                   int target_checker);

} // namespace faults
} // namespace paradox

#endif // PARADOX_FAULTS_FAULT_MODEL_HH
