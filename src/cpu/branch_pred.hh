/**
 * @file
 * Tournament branch predictor (Table I): 2048-entry local predictor,
 * 8192-entry global predictor, 2048-entry chooser, 2048-entry BTB and
 * a 16-entry return-address stack.
 */

#ifndef PARADOX_CPU_BRANCH_PRED_HH
#define PARADOX_CPU_BRANCH_PRED_HH

#include <cstdint>
#include <vector>

#include "isa/instruction.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace paradox
{
namespace cpu
{

/** Alpha-21264-style tournament predictor. */
class TournamentPredictor
{
  public:
    struct Params
    {
        unsigned localEntries = 2048;   //!< local history + counters
        unsigned globalEntries = 8192;  //!< global 2-bit counters
        unsigned chooserEntries = 2048; //!< 2-bit chooser counters
        unsigned btbEntries = 2048;
        unsigned rasEntries = 16;
        unsigned localHistoryBits = 11;
        unsigned globalHistoryBits = 13;
    };

    TournamentPredictor() : TournamentPredictor(Params{}) {}
    explicit TournamentPredictor(const Params &params);

    /** One direction/target prediction. */
    struct Prediction
    {
        bool taken = false;
        Addr target = 0;
        bool targetKnown = false;  //!< BTB or RAS supplied a target
    };

    /**
     * Predict the instruction at @p pc.  Jumps predict taken; their
     * targets come from the RAS (returns) or BTB (everything else).
     */
    [[gnu::always_inline]] Prediction predict(Addr pc,
                                              const isa::Instruction &inst);

    /**
     * Train with the resolved outcome and repair speculative state.
     * @return true if the prediction was wrong (direction or target).
     */
    [[gnu::always_inline]] bool update(Addr pc,
                                       const isa::Instruction &inst,
                                       bool taken, Addr target);

    /** @{ Statistics. */
    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t mispredicts() const { return mispredicts_; }
    /** @} */

    /** Publish the raw counters as Gauges in @p g. */
    void
    registerStats(stats::StatGroup &g) const
    {
        g.add<stats::Gauge>("lookups", "predictor lookups",
                            [this] { return double(lookups_); });
        g.add<stats::Gauge>("mispredicts", "mispredicted branches",
                            [this] { return double(mispredicts_); });
    }

    /** Drop all learned state. */
    void reset();

  private:
    static bool
    counterTaken(std::uint8_t c, std::uint8_t max)
    {
        return c > max / 2;
    }

    static void
    train(std::uint8_t &c, bool taken, std::uint8_t max)
    {
        if (taken) {
            if (c < max)
                ++c;
        } else {
            if (c > 0)
                --c;
        }
    }

    unsigned
    localIndex(Addr pc) const
    {
        return (pc / isa::instBytes) & localMask_;
    }

    unsigned globalIndex() const { return globalHistory_ & globalMask_; }

    unsigned
    chooserIndex(Addr pc) const
    {
        return (pc / isa::instBytes) & chooserMask_;
    }

    unsigned
    btbIndex(Addr pc) const
    {
        return (pc / isa::instBytes) & btbMask_;
    }

    /** A jump that records a return address is a call. */
    static bool
    isCall(const isa::Instruction &inst)
    {
        return (inst.op == isa::Opcode::JAL ||
                inst.op == isa::Opcode::JALR) && inst.rd != 0;
    }

    /** An indirect jump without a link register is a return. */
    static bool
    isReturn(const isa::Instruction &inst)
    {
        return inst.op == isa::Opcode::JALR && inst.rd == 0;
    }

    Params params_;
    /** Table sizes are power-of-two (checked in the ctor), so the
     *  per-lookup index math is a mask, not a runtime modulo. */
    unsigned localMask_ = 0;
    unsigned globalMask_ = 0;
    unsigned chooserMask_ = 0;
    unsigned btbMask_ = 0;
    unsigned rasMask_ = 0;
    std::vector<std::uint16_t> localHistory_;
    std::vector<std::uint8_t> localCounters_;   //!< 3-bit
    std::vector<std::uint8_t> globalCounters_;  //!< 2-bit
    std::vector<std::uint8_t> chooser_;         //!< 2-bit
    struct BtbEntry
    {
        bool valid = false;
        Addr pc = 0;
        Addr target = 0;
    };
    std::vector<BtbEntry> btb_;
    std::vector<Addr> ras_;
    std::size_t rasTop_ = 0;
    std::uint64_t globalHistory_ = 0;

    // Saved at predict() for the matching update().
    Prediction lastPrediction_;
    bool lastChoseGlobal_ = false;

    std::uint64_t lookups_ = 0;
    std::uint64_t mispredicts_ = 0;
};

inline TournamentPredictor::Prediction
TournamentPredictor::predict(Addr pc, const isa::Instruction &inst)
{
    ++lookups_;
    // Scalars, stored field by field: copying a just-built Prediction
    // into lastPrediction_ would reload it before its stores retire.
    bool taken = false;
    Addr target = 0;
    bool target_known = false;
    const isa::InstInfo &ii = inst.info();

    if (ii.isJump) {
        taken = true;
        if (isReturn(inst) && rasTop_ > 0) {
            target = ras_[(rasTop_ - 1) & rasMask_];
            target_known = true;
            --rasTop_;
        } else {
            const BtbEntry &entry = btb_[btbIndex(pc)];
            if (entry.valid && entry.pc == pc) {
                target = entry.target;
                target_known = true;
            }
        }
        if (isCall(inst)) {
            ras_[rasTop_ & rasMask_] = pc + isa::instBytes;
            ++rasTop_;
        }
    } else if (ii.isBranch) {
        const unsigned li = localIndex(pc);
        const std::uint16_t hist = localHistory_[li];
        const bool local_taken = counterTaken(
            localCounters_[hist & localMask_], 7);
        const bool global_taken =
            counterTaken(globalCounters_[globalIndex()], 3);
        lastChoseGlobal_ = counterTaken(chooser_[chooserIndex(pc)], 3);
        taken = lastChoseGlobal_ ? global_taken : local_taken;
        if (taken) {
            const BtbEntry &entry = btb_[btbIndex(pc)];
            if (entry.valid && entry.pc == pc) {
                target = entry.target;
                target_known = true;
            }
        }
    }

    lastPrediction_.taken = taken;
    lastPrediction_.target = target;
    lastPrediction_.targetKnown = target_known;
    return Prediction{taken, target, target_known};
}

inline bool
TournamentPredictor::update(Addr pc, const isa::Instruction &inst,
                            bool taken, Addr target)
{
    const isa::InstInfo &ii = inst.info();
    bool mispredicted = false;

    if (ii.isBranch) {
        const unsigned li = localIndex(pc);
        const std::uint16_t hist = localHistory_[li];
        std::uint8_t &local_ctr =
            localCounters_[hist & localMask_];
        std::uint8_t &global_ctr = globalCounters_[globalIndex()];
        const bool local_taken = counterTaken(local_ctr, 7);
        const bool global_taken = counterTaken(global_ctr, 3);

        // Chooser trains toward whichever component was right.
        if (local_taken != global_taken) {
            train(chooser_[chooserIndex(pc)], global_taken == taken, 3);
        }
        train(local_ctr, taken, 7);
        train(global_ctr, taken, 3);

        const std::uint16_t mask =
            (std::uint16_t(1) << params_.localHistoryBits) - 1;
        localHistory_[li] =
            std::uint16_t(((hist << 1) | (taken ? 1 : 0)) & mask);
        globalHistory_ = ((globalHistory_ << 1) | (taken ? 1 : 0)) &
                         ((std::uint64_t(1) << params_.globalHistoryBits)
                          - 1);

        mispredicted = lastPrediction_.taken != taken ||
                       (taken && (!lastPrediction_.targetKnown ||
                                  lastPrediction_.target != target));
    } else if (ii.isJump) {
        mispredicted = !lastPrediction_.targetKnown ||
                       lastPrediction_.target != target;
    }

    if ((ii.isBranch && taken) || ii.isJump) {
        BtbEntry &entry = btb_[btbIndex(pc)];
        entry.valid = true;
        entry.pc = pc;
        entry.target = target;
    }

    if (mispredicted)
        ++mispredicts_;
    return mispredicted;
}

} // namespace cpu
} // namespace paradox

#endif // PARADOX_CPU_BRANCH_PRED_HH
