#include "cpu/branch_pred.hh"

#include "sim/logging.hh"

namespace paradox
{
namespace cpu
{

namespace
{

unsigned
tableMask(unsigned entries, const char *what)
{
    if (entries == 0 || (entries & (entries - 1)) != 0)
        fatal(std::string("TournamentPredictor: ") + what +
              " must be a power of two");
    return entries - 1;
}

} // namespace

TournamentPredictor::TournamentPredictor(const Params &params)
    : params_(params)
{
    localMask_ = tableMask(params_.localEntries, "localEntries");
    globalMask_ = tableMask(params_.globalEntries, "globalEntries");
    chooserMask_ = tableMask(params_.chooserEntries, "chooserEntries");
    btbMask_ = tableMask(params_.btbEntries, "btbEntries");
    rasMask_ = tableMask(params_.rasEntries, "rasEntries");
    localHistory_.assign(params_.localEntries, 0);
    localCounters_.assign(params_.localEntries, 3);  // weakly not-taken
    globalCounters_.assign(params_.globalEntries, 1);
    chooser_.assign(params_.chooserEntries, 1);
    btb_.assign(params_.btbEntries, BtbEntry{});
    ras_.assign(params_.rasEntries, 0);
}

void
TournamentPredictor::reset()
{
    *this = TournamentPredictor(params_);
}

bool
TournamentPredictor::counterTaken(std::uint8_t c, std::uint8_t max)
{
    return c > max / 2;
}

void
TournamentPredictor::train(std::uint8_t &c, bool taken, std::uint8_t max)
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
TournamentPredictor::localIndex(Addr pc) const
{
    return (pc / isa::instBytes) & localMask_;
}

unsigned
TournamentPredictor::globalIndex() const
{
    return globalHistory_ & globalMask_;
}

unsigned
TournamentPredictor::chooserIndex(Addr pc) const
{
    return (pc / isa::instBytes) & chooserMask_;
}

unsigned
TournamentPredictor::btbIndex(Addr pc) const
{
    return (pc / isa::instBytes) & btbMask_;
}

bool
TournamentPredictor::isCall(const isa::Instruction &inst) const
{
    // A jump that records a return address is a call.
    return (inst.op == isa::Opcode::JAL ||
            inst.op == isa::Opcode::JALR) && inst.rd != 0;
}

bool
TournamentPredictor::isReturn(const isa::Instruction &inst) const
{
    // Indirect jump without a link register is a return.
    return inst.op == isa::Opcode::JALR && inst.rd == 0;
}

TournamentPredictor::Prediction
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

bool
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
