#include "cpu/main_core.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace paradox
{
namespace cpu
{

MainCore::MainCore(const MainCoreParams &params, ClockDomain &clock,
                   mem::CacheHierarchy &hierarchy)
    : params_(params), clock_(clock), hierarchy_(hierarchy),
      predictor_(params.predictor)
{
    robRing_.assign(params_.robEntries, 0);
    iqRing_.assign(params_.iqEntries, 0);
    lqRing_.assign(params_.lqEntries, 0);
    sqRing_.assign(params_.sqEntries, 0);
    fuBusy_.assign(params_.intAlus + params_.fpAlus + params_.multDivAlus,
                   0);

    const FuRoute int_alu{0, params_.intAlus, params_.intAluLat, true};
    const FuRoute fp_alu{params_.intAlus, params_.fpAlus,
                         params_.fpAluLat, true};
    const unsigned mult_div = params_.intAlus + params_.fpAlus;
    const auto route = [this](isa::InstClass cls) -> FuRoute & {
        return routes_[std::size_t(cls)];
    };
    // Every other class (loads and stores take the memory path) keeps
    // the no-FU route.
    route(isa::InstClass::IntAlu) = int_alu;
    route(isa::InstClass::IntMult) = {mult_div, params_.multDivAlus,
                                      params_.intMultLat, true};
    route(isa::InstClass::IntDiv) = {mult_div, params_.multDivAlus,
                                     params_.intDivLat, false};
    route(isa::InstClass::FpAlu) = fp_alu;
    route(isa::InstClass::FpMult) = {mult_div, params_.multDivAlus,
                                     params_.fpMultLat, true};
    route(isa::InstClass::FpDiv) = {mult_div, params_.multDivAlus,
                                    params_.fpDivLat, false};
    route(isa::InstClass::Branch) = int_alu;
    route(isa::InstClass::Jump) = int_alu;
}

mem::DataAccessResult
MainCore::loadAfterPinnedStall(Addr mem_addr, Addr pc, Tick issue,
                               std::uint64_t stamp)
{
    for (;;) {
        if (!resolver_)
            panic("MainCore: pinned stall without resolver");
        issue = resolver_(issue);
        const mem::DataAccessResult d = hierarchy_.dataAccess(
            mem_addr, pc, false, issue, mem::noPin, stamp);
        if (!d.blockedPinned)
            return d;
    }
}

mem::DataAccessResult
MainCore::storeAfterPinnedStall(Addr mem_addr, Addr pc, Tick &commit,
                                std::uint64_t pin_seg, std::uint64_t stamp)
{
    Tick at = commit;
    for (;;) {
        if (!resolver_)
            panic("MainCore: pinned stall without resolver");
        at = resolver_(at);
        // The stall delays this commit and everything younger.
        commit = std::max(commit, at);
        lastCommit_ = std::max(lastCommit_, commit);
        nextCommitSlot_ = std::max(nextCommitSlot_,
                                   commit + slotTicks(clock_.period()));
        const mem::DataAccessResult d = hierarchy_.dataAccess(
            mem_addr, pc, true, at, pin_seg, stamp);
        if (!d.blockedPinned)
            return d;
    }
}

void
MainCore::stallUntil(Tick t)
{
    if (t <= lastCommit_)
        return;
    lastCommit_ = t;
    nextCommitSlot_ = std::max(nextCommitSlot_, t);
    fetchReadyAt_ = std::max(fetchReadyAt_, t);
    nextFetchSlot_ = std::max(nextFetchSlot_, t);
}

void
MainCore::blockCommit(Cycles n)
{
    Tick block = cycles(unsigned(n));
    nextCommitSlot_ = std::max(nextCommitSlot_, lastCommit_) + block;
    lastCommit_ += block;
}

void
MainCore::resetPipeline(Tick at)
{
    fetchReadyAt_ = at;
    nextFetchSlot_ = at;
    nextCommitSlot_ = at;
    lastCommit_ = at;
    regReady_.fill(at);
    regReady_[isa::srcNone] = 0;
    std::fill(robRing_.begin(), robRing_.end(), at);
    std::fill(iqRing_.begin(), iqRing_.end(), at);
    std::fill(lqRing_.begin(), lqRing_.end(), at);
    std::fill(sqRing_.begin(), sqRing_.end(), at);
    std::fill(fuBusy_.begin(), fuBusy_.end(), at);
}

} // namespace cpu
} // namespace paradox
