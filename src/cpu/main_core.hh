/**
 * @file
 * Timing model of the out-of-order superscalar main core (Table I:
 * 3-wide, 40-entry ROB, 32-entry IQ, 16-entry LQ/SQ, 3 int ALUs,
 * 2 FP ALUs, 1 mult/div ALU, tournament predictor, 3.2 GHz).
 *
 * The model is an instruction-granularity out-of-order approximation:
 * each committed instruction flows through fetch (bandwidth-limited,
 * through the real L1I), a fixed-depth frontend, dispatch (bounded by
 * ROB/IQ/LQ/SQ occupancy rings), issue (operand ready-times + FU
 * availability), execution (class latencies; memory through the real
 * hierarchy), and in-order, width-limited commit.  Branches train the
 * real tournament predictor and redirect fetch on a mispredict.  This
 * captures the relative main-vs-checker throughput, cache, and stall
 * behaviour the ParaDox evaluation depends on, without simulating a
 * full wrong-path pipeline.
 */

#ifndef PARADOX_CPU_MAIN_CORE_HH
#define PARADOX_CPU_MAIN_CORE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "cpu/branch_pred.hh"
#include "isa/commit_record.hh"
#include "mem/hierarchy.hh"
#include "sim/clock.hh"
#include "sim/types.hh"

namespace paradox
{
namespace cpu
{

/** Structural and latency parameters of the main core. */
struct MainCoreParams
{
    unsigned width = 3;            //!< fetch/commit width
    unsigned robEntries = 40;
    unsigned iqEntries = 32;
    unsigned lqEntries = 16;
    unsigned sqEntries = 16;
    unsigned intAlus = 3;
    unsigned fpAlus = 2;
    unsigned multDivAlus = 1;      //!< shared int/FP mult+div unit
    unsigned frontendCycles = 6;   //!< decode/rename depth
    unsigned redirectCycles = 2;   //!< extra cycles on a mispredict

    unsigned intAluLat = 1;
    unsigned intMultLat = 3;
    unsigned intDivLat = 18;       //!< unpipelined
    unsigned fpAluLat = 4;
    unsigned fpMultLat = 5;
    unsigned fpDivLat = 18;        //!< unpipelined

    TournamentPredictor::Params predictor{};
};

/** Per-instruction timing outcome. */
struct CommitTiming
{
    Tick commitAt = 0;        //!< tick this instruction committed
    bool l1dHit = false;
    bool mispredicted = false;
    bool needsLineCopy = false; //!< first write to line this checkpoint
};

/**
 * The out-of-order main core timing model.
 *
 * The functional result of each instruction is computed first (by
 * core::System); advance() then accounts its timing.  When a memory
 * access cannot allocate in the L1D because every way of its set is
 * pinned by unchecked segments, the supplied pinned-stall resolver is
 * invoked: it must make progress (verify the oldest segment) and
 * return the tick at which the access may retry.
 */
class MainCore
{
  public:
    /** Resolver invoked on a pinned-set stall; returns retry tick. */
    using PinnedStallResolver = std::function<Tick(Tick)>;

    MainCore(const MainCoreParams &params, ClockDomain &clock,
             mem::CacheHierarchy &hierarchy);

    /**
     * Account timing for one committed instruction.
     * @param r commit record from the execution engine (functional
     *        outcome plus decode metadata: fetched instruction and
     *        encoded source registers)
     * @param pin_seg segment id to pin written lines under (mem::noPin
     *        to disable unchecked-store buffering)
     * @param stamp checkpoint id for line-granularity rollback copies
     */
    CommitTiming advance(const isa::CommitRecord &r,
                         std::uint64_t pin_seg, std::uint64_t stamp)
    {
        return advance(r, r.pc, r.memAddr, r.nextPc, pin_seg, stamp);
    }

    /**
     * As above, with the main core's redundantly translated physical
     * addresses passed alongside the (virtual-addressed) record: the
     * timing path -- fetch, data access, and predictor indexing --
     * runs on @p fetch_pc / @p mem_addr / @p next_pc so the commit
     * loop does not have to copy and patch the whole record.  With
     * @p fetch_line_hit the caller vouches that the fetch hits the L1I
     * line its previous fetch resolved: advance() charges the hit
     * latency without a lookup and records the fetch tick
     * (lineHitFetchAt()), and the caller accounts the hit later
     * (Cache::repeatReadHits).
     * Force-inlined (defined below): it is the per-commit kernel.
     */
    [[gnu::always_inline]] CommitTiming
    advance(const isa::CommitRecord &r, Addr fetch_pc, Addr mem_addr,
            Addr next_pc, std::uint64_t pin_seg, std::uint64_t stamp,
            bool fetch_line_hit = false);

    /** Fetch tick of the latest advance() with fetch_line_hit. */
    Tick lineHitFetchAt() const { return lineHitFetchAt_; }

    /** Set the handler for pinned-set stalls. */
    void setPinnedStallResolver(PinnedStallResolver resolver)
    {
        resolver_ = std::move(resolver);
    }

    /** Commit tick of the most recent instruction. */
    Tick now() const { return lastCommit_; }

    /** Stall the whole pipeline until @p t (checker-wait stalls). */
    void stallUntil(Tick t);

    /**
     * Block commit for @p n cycles (the 16-cycle register checkpoint
     * of Table I).
     */
    void blockCommit(Cycles n);

    /**
     * Squash and restart the pipeline at @p at (after rollback): all
     * in-flight state is discarded and fetch restarts cold.
     */
    void resetPipeline(Tick at);

    /** @{ Statistics. */
    std::uint64_t committed() const { return committed_; }
    std::uint64_t mispredicts() const { return mispredicts_; }
    const TournamentPredictor &predictor() const { return predictor_; }
    TournamentPredictor &predictor() { return predictor_; }
    /** @} */

    /** Publish the raw counters as Gauges in @p g. */
    void
    registerStats(stats::StatGroup &g) const
    {
        g.add<stats::Gauge>("committed", "instructions committed",
                            [this] { return double(committed_); });
        g.add<stats::Gauge>("mispredicts", "commit-time mispredicts",
                            [this] { return double(mispredicts_); });
    }

  private:
    /**
     * How a non-memory instruction class issues: @p units FUs from
     * fuBusy_[first], busy @p latency cycles; 0 units is no FU (done
     * one cycle after its operands are ready).  Built once from
     * MainCoreParams, so advance() indexes a table instead of
     * switching on the class.
     */
    struct FuRoute
    {
        unsigned first = 0;
        unsigned units = 0;
        unsigned latency = 1;
        bool pipelined = true;
    };

    Tick cycles(unsigned n) const { return clock_.cyclesToTicks(n); }

    /**
     * @p period / width, memoized: DVFS can retune the clock between
     * instructions, so the quotient is revalidated with a compare
     * rather than recomputed with a divide per fetch/commit slot.
     */
    Tick
    slotTicks(Tick period) const
    {
        if (period != slotPeriod_) {
            slotPeriod_ = period;
            slotTicks_ = period / params_.width;
        }
        return slotTicks_;
    }

    /** Ready tick of a record's encoded source registers: srcNone
     *  reads regReady_'s slot pinned at 0. */
    Tick
    sourceReady(const isa::CommitRecord &r) const
    {
        return std::max({regReady_[r.srcA], regReady_[r.srcB],
                         regReady_[r.srcC]});
    }

    /** Issue through @p fu at @p ready; returns the complete tick. */
    Tick
    useFu(const FuRoute &fu, Tick ready, Tick period)
    {
        if (fu.units == 0)
            return ready + period;
        // The first least-busy unit, as std::min_element picks it;
        // selects, not branches, on the busy times.
        Tick *const busy = fuBusy_.data() + fu.first;
        unsigned best = 0;
        Tick best_t = busy[0];
        for (unsigned i = 1; i < fu.units; ++i) {
            const bool less = busy[i] < best_t;
            best = less ? i : best;
            best_t = less ? busy[i] : best_t;
        }
        Tick *const slot = busy + best;
        const Tick start = std::max(ready, best_t);
        const Tick complete = start + fu.latency * period;
        // Pipelined units accept a new op next cycle; unpipelined ones
        // (dividers) block until completion.
        *slot = fu.pipelined ? start + period : complete;
        return complete;
    }

    /** @{ The pinned-set stall loops, after the first access at
     *  @p issue (load) or at @p commit (store) was BlockedPinned.  The
     *  resolver may close a segment and retune the clock; the store
     *  form also delays @p commit and the commit slots. */
    mem::DataAccessResult loadAfterPinnedStall(Addr mem_addr, Addr pc,
                                               Tick issue,
                                               std::uint64_t stamp);
    mem::DataAccessResult storeAfterPinnedStall(Addr mem_addr, Addr pc,
                                                Tick &commit,
                                                std::uint64_t pin_seg,
                                                std::uint64_t stamp);
    /** @} */

    MainCoreParams params_;
    ClockDomain &clock_;
    mem::CacheHierarchy &hierarchy_;
    TournamentPredictor predictor_;
    PinnedStallResolver resolver_;

    Tick fetchReadyAt_ = 0;
    Tick nextFetchSlot_ = 0;
    Tick lineHitFetchAt_ = 0;
    Tick nextCommitSlot_ = 0;
    Tick lastCommit_ = 0;

    /**
     * Register ready ticks, indexed by the encoded source byte: x<i>
     * at i, f<i> at srcFpBit | i.  Slot srcNone stays 0 (resetPipeline
     * re-zeroes it), so an unused operand needs no test.
     */
    std::array<Tick, 256> regReady_{};
    std::vector<Tick> robRing_;
    std::vector<Tick> iqRing_;
    std::vector<Tick> lqRing_;
    std::vector<Tick> sqRing_;
    std::size_t robHead_ = 0, iqHead_ = 0, lqHead_ = 0, sqHead_ = 0;

    /** Busy-until ticks of every FU: the int ALUs, then the FP ALUs,
     *  then the mult/div units. */
    std::vector<Tick> fuBusy_;
    std::array<FuRoute, std::size_t(isa::InstClass::NumClasses)>
        routes_{};

    mutable Tick slotPeriod_ = 0;  //!< clock period slotTicks_ is for
    mutable Tick slotTicks_ = 0;

    std::uint64_t committed_ = 0;
    std::uint64_t mispredicts_ = 0;
};

inline CommitTiming
MainCore::advance(const isa::CommitRecord &r, Addr fetch_pc,
                  Addr mem_addr, Addr next_pc, std::uint64_t pin_seg,
                  std::uint64_t stamp, bool fetch_line_hit)
{
    CommitTiming timing;
    // Every tick constant below derives from this period.  Only the
    // pinned-stall resolver can retune the clock mid-instruction
    // (closing a segment runs the DVFS step), so both are read again
    // after the load's stall loop; nothing after the store's uses
    // them.
    Tick period = clock_.period();
    Tick slot = slotTicks(period);

    // ---- Fetch ----------------------------------------------------
    const Tick fetch_start = std::max(fetchReadyAt_, nextFetchSlot_);
    Tick fetch_done;
    if (fetch_line_hit) {
        lineHitFetchAt_ = fetch_start;
        fetch_done = hierarchy_.instFetchHit(fetch_start);
    } else {
        fetch_done = hierarchy_.instFetch(fetch_pc, fetch_start);
    }
    // Bandwidth: 'width' sequential fetches per cycle; an I-cache
    // miss additionally holds the in-order frontend.
    nextFetchSlot_ = std::max(fetch_start + slot, fetch_done - period);

    // ---- Decode / rename ------------------------------------------
    Tick dispatch = fetch_done + params_.frontendCycles * period;

    // ---- Structural occupancy (ROB/IQ/LQ/SQ rings) -----------------
    dispatch = std::max(dispatch, robRing_[robHead_]);
    dispatch = std::max(dispatch, iqRing_[iqHead_]);
    if (r.isLoad)
        dispatch = std::max(dispatch, lqRing_[lqHead_]);
    if (r.isStore)
        dispatch = std::max(dispatch, sqRing_[sqHead_]);

    // ---- Operand readiness ----------------------------------------
    const Tick ready = std::max(dispatch, sourceReady(r));

    // ---- Issue + execute ------------------------------------------
    Tick complete;
    if (r.isLoad) {
        mem::DataAccessResult d = hierarchy_.dataAccess(
            mem_addr, fetch_pc, false, ready, mem::noPin, stamp);
        if (d.blockedPinned) {
            d = loadAfterPinnedStall(mem_addr, fetch_pc, ready, stamp);
            period = clock_.period();
            slot = slotTicks(period);
        }
        complete = d.completeAt;
        timing.l1dHit = d.l1Hit;
    } else if (r.isStore) {
        // Stores complete at issue (into the SQ) and access the
        // cache at commit time, below.
        complete = ready + period;
    } else {
        complete = useFu(routes_[std::size_t(r.cls)], ready, period);
    }

    // ---- Branch resolution ----------------------------------------
    if (r.isBranch || r.isJump) {
        predictor_.predict(fetch_pc, *r.inst);
        if (predictor_.update(fetch_pc, *r.inst, r.isJump || r.taken,
                              next_pc)) {
            timing.mispredicted = true;
            ++mispredicts_;
            const Tick redirect =
                complete + params_.redirectCycles * period;
            fetchReadyAt_ = std::max(fetchReadyAt_, redirect);
            nextFetchSlot_ = std::max(nextFetchSlot_, redirect);
        }
    }

    // ---- Commit (in order, width-limited) --------------------------
    Tick commit = std::max({complete, nextCommitSlot_, lastCommit_});
    nextCommitSlot_ = commit + slot;
    lastCommit_ = commit;
    ++committed_;

    // ---- Stores hit the cache at commit ----------------------------
    if (r.isStore) {
        mem::DataAccessResult d = hierarchy_.dataAccess(
            mem_addr, fetch_pc, true, commit, pin_seg, stamp);
        if (d.blockedPinned)
            d = storeAfterPinnedStall(mem_addr, fetch_pc, commit,
                                      pin_seg, stamp);
        timing.l1dHit = d.l1Hit;
        timing.needsLineCopy = d.needsLineCopy;
    }

    // ---- Scoreboard updates ----------------------------------------
    if (r.wroteInt)
        regReady_[r.rd] = complete;
    if (r.wroteFp)
        regReady_[r.rd | isa::srcFpBit] = complete;

    robRing_[robHead_] = commit;
    if (++robHead_ == params_.robEntries)
        robHead_ = 0;
    iqRing_[iqHead_] = complete;
    if (++iqHead_ == params_.iqEntries)
        iqHead_ = 0;
    if (r.isLoad) {
        lqRing_[lqHead_] = commit;
        if (++lqHead_ == params_.lqEntries)
            lqHead_ = 0;
    }
    if (r.isStore) {
        sqRing_[sqHead_] = commit;
        if (++sqHead_ == params_.sqEntries)
            sqHead_ = 0;
    }

    timing.commitAt = commit;
    return timing;
}

} // namespace cpu
} // namespace paradox

#endif // PARADOX_CPU_MAIN_CORE_HH
