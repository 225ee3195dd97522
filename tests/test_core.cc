/**
 * @file
 * Core-component unit tests: the load-store log, AIMD checkpoint
 * controller, voltage controller + regulator, checker scheduler and
 * segment replay.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/aimd.hh"
#include "core/checker_replay.hh"
#include "core/dvfs.hh"
#include "core/lslog.hh"
#include "core/scheduler.hh"
#include "core/system.hh"
#include "isa/builder.hh"
#include "isa_oracle.hh"
#include "mem/memory.hh"
#include "workloads/workload.hh"

namespace
{

using namespace paradox;
using namespace paradox::core;

TEST(LogSegment, TracksEntriesAndBytes)
{
    LogSegment seg;
    isa::ArchState start;
    seg.open(1, start, 0, 0);
    seg.appendLoad(0x100, 8, 42, 16);
    seg.appendStore(0x108, 8, 7, 3, 24);
    EXPECT_EQ(seg.entries().size(), 2u);
    EXPECT_EQ(seg.bytesUsed(), 40u);
    EXPECT_TRUE(seg.entries()[0].isLoad);
    EXPECT_FALSE(seg.entries()[1].isLoad);
    EXPECT_EQ(seg.entries()[1].oldValue, 3u);
    EXPECT_FALSE(seg.wouldOverflow(10, 64));
    EXPECT_TRUE(seg.wouldOverflow(30, 64));
}

TEST(LogSegment, LineCopiesCarryDecodableEcc)
{
    LogSegment seg;
    isa::ArchState start;
    seg.open(2, start, 0, 0);
    std::vector<std::uint8_t> bytes(64);
    for (unsigned i = 0; i < 64; ++i)
        bytes[i] = std::uint8_t(i ^ 0xa5);
    seg.appendLineCopy(0x1000, bytes, 80);
    ASSERT_EQ(seg.lineCopies().size(), 1u);
    EXPECT_TRUE(seg.hasLineCopy(0x1000));
    EXPECT_FALSE(seg.hasLineCopy(0x1040));
    const LineCopy &copy = seg.lineCopies()[0];
    ASSERT_EQ(copy.eccWordCount(), 8u);
    for (std::size_t i = 0; i < 8; ++i) {
        auto d = mem::Secded::decode(copy.eccWord(i));
        EXPECT_EQ(d.status, mem::EccStatus::Ok);
        std::uint64_t expect = 0;
        for (unsigned k = 0; k < 8; ++k)
            expect |= std::uint64_t(bytes[i * 8 + k]) << (8 * k);
        EXPECT_EQ(d.data, expect);
    }
}

/**
 * A reopened segment is indistinguishable from a fresh one: the
 * System recycles segments, so open() must reset every field a
 * previous use touched.
 */
TEST(LogSegment, ReopenClearsState)
{
    isa::ArchState used_start;
    used_start.writeX(5, 0xdead);
    used_start.setPc(0x400);
    isa::ArchState used_end = used_start;
    used_end.writeX(6, 0xbeef);

    LogSegment seg;
    seg.open(1, used_start, 7, 50);
    seg.appendLoad(0x100, 8, 1, 16);
    seg.appendStore(0x108, 4, 2, 3, 24);
    seg.appendLineCopy(0x1000, std::vector<std::uint8_t>(64, 0x5a), 80);
    seg.setNextCheckerId(9);
    seg.close(used_end, 42, 900);

    isa::ArchState start;
    start.writeX(1, 11);
    start.setPc(0x80);
    seg.open(2, start, 10, 100);
    LogSegment fresh;
    fresh.open(2, start, 10, 100);

    EXPECT_EQ(seg.id(), 2u);
    EXPECT_EQ(seg.startInstIndex(), 10u);
    EXPECT_EQ(seg.startTick(), 100u);
    EXPECT_TRUE(seg.startState() == start);
    EXPECT_EQ(seg.id(), fresh.id());
    EXPECT_TRUE(seg.entries().empty());
    EXPECT_EQ(seg.entries().size(), fresh.entries().size());
    EXPECT_TRUE(seg.lineCopies().empty());
    EXPECT_EQ(seg.lineCopies().size(), fresh.lineCopies().size());
    EXPECT_FALSE(seg.hasLineCopy(0x1000));
    EXPECT_EQ(seg.bytesUsed(), 0u);
    EXPECT_EQ(seg.bytesUsed(), fresh.bytesUsed());
    EXPECT_EQ(seg.instCount(), fresh.instCount());
    EXPECT_EQ(seg.nextCheckerId(), fresh.nextCheckerId());
    EXPECT_TRUE(seg.startState() == fresh.startState());
    EXPECT_TRUE(seg.endState() == fresh.endState());
    EXPECT_EQ(seg.startInstIndex(), fresh.startInstIndex());
    EXPECT_EQ(seg.startTick(), fresh.startTick());
    EXPECT_EQ(seg.closeTick(), fresh.closeTick());
    EXPECT_EQ(seg.wouldOverflow(64, 64), fresh.wouldOverflow(64, 64));
    EXPECT_FALSE(seg.wouldOverflow(64, 64));
}

/** A reopened segment holds only its new line copies. */
TEST(LogSegment, RecycledLineCopiesHoldTheNewBytes)
{
    LogSegment seg;
    isa::ArchState start;
    seg.open(1, start, 0, 0);
    seg.appendLineCopy(0x1000, std::vector<std::uint8_t>(64, 0x11), 80);
    seg.appendLineCopy(0x1040, std::vector<std::uint8_t>(64, 0x22), 80);
    seg.open(2, start, 0, 0);
    seg.appendLineCopy(0x2000, std::vector<std::uint8_t>(64, 0x33), 80);
    ASSERT_EQ(seg.lineCopies().size(), 1u);
    EXPECT_EQ(seg.lineCopies()[0].lineAddr, 0x2000u);
    EXPECT_EQ(seg.lineCopies()[0].bytes,
              std::vector<std::uint8_t>(64, 0x33));
    EXPECT_FALSE(seg.hasLineCopy(0x1040));
    EXPECT_EQ(seg.bytesUsed(), 80u);
}

TEST(CheckpointAimd, AdditiveIncreaseCapsAtMax)
{
    CheckpointAimdParams params;
    CheckpointLengthController ctrl(params, true);
    EXPECT_EQ(ctrl.target(), params.initial);
    for (int i = 0; i < 1000; ++i)
        ctrl.onCleanCheckpoint();
    EXPECT_EQ(ctrl.target(), params.maxLength);
}

TEST(CheckpointAimd, ReductionTakesMinOfHalfAndObserved)
{
    CheckpointAimdParams params;
    CheckpointLengthController ctrl(params, true);
    // target 1000 -> halving wins when observed is larger.
    ctrl.onReduction(5000);
    EXPECT_EQ(ctrl.target(), 500u);
    // Observed wins when smaller than half.
    ctrl.onReduction(80);
    EXPECT_EQ(ctrl.target(), 80u);
    // Never below the floor.
    for (int i = 0; i < 20; ++i)
        ctrl.onReduction(1);
    EXPECT_EQ(ctrl.target(), params.minLength);
}

TEST(CheckpointAimd, ParaMedicStaysFixed)
{
    CheckpointAimdParams params;
    CheckpointLengthController ctrl(params, false);
    EXPECT_EQ(ctrl.target(), params.maxLength);
    ctrl.onReduction(10);
    ctrl.onCleanCheckpoint();
    EXPECT_EQ(ctrl.target(), params.maxLength);
}

TEST(VoltageController, DecreasesWhenClean)
{
    VoltageAimdParams params;
    VoltageController ctrl(params);
    double v0 = ctrl.target();
    ctrl.onCleanCheckpoint();
    EXPECT_DOUBLE_EQ(ctrl.target(), v0 - params.decreaseStep);
}

TEST(VoltageController, ErrorShrinksGapByRecoveryFactor)
{
    VoltageAimdParams params;
    VoltageController ctrl(params);
    for (int i = 0; i < 100; ++i)
        ctrl.onCleanCheckpoint();
    double v = ctrl.target();
    double gap = params.vSafe - v;
    ctrl.onError(v);
    EXPECT_NEAR(params.vSafe - ctrl.target(),
                gap * params.recoveryFactor, 1e-12);
}

TEST(VoltageController, TideMarkSlowsDescent)
{
    VoltageAimdParams params;
    VoltageController ctrl(params);
    for (int i = 0; i < 40; ++i)
        ctrl.onCleanCheckpoint();
    double v_err = ctrl.target();
    ctrl.onError(v_err);
    EXPECT_DOUBLE_EQ(ctrl.tideMark(), v_err);
    // Descend back to the tide mark; below it the step shrinks 8x.
    while (ctrl.target() > v_err)
        ctrl.onCleanCheckpoint();
    double before = ctrl.target();
    ctrl.onCleanCheckpoint();
    EXPECT_NEAR(before - ctrl.target(),
                params.decreaseStep / params.tideSlowFactor, 1e-12);
}

TEST(VoltageController, ConstantModeIgnoresTideMark)
{
    VoltageAimdParams params;
    params.dynamicDecrease = false;
    VoltageController ctrl(params);
    ctrl.onError(ctrl.target());
    double before = ctrl.target();
    ctrl.onCleanCheckpoint();
    EXPECT_NEAR(before - ctrl.target(), params.decreaseStep, 1e-12);
}

TEST(VoltageController, TideResetsAfterConfiguredErrors)
{
    VoltageAimdParams params;
    params.tideResetErrors = 5;
    VoltageController ctrl(params);
    for (int i = 0; i < 4; ++i)
        ctrl.onError(0.9);
    EXPECT_GT(ctrl.tideMark(), 0.0);
    ctrl.onError(0.9);  // fifth error: reset
    EXPECT_EQ(ctrl.tideMark(), 0.0);
    EXPECT_EQ(ctrl.errorsSinceReset(), 0u);
    EXPECT_EQ(ctrl.totalErrors(), 5u);
}

TEST(VoltageController, NeverBelowFloor)
{
    VoltageAimdParams params;
    VoltageController ctrl(params);
    for (int i = 0; i < 100000; ++i)
        ctrl.onCleanCheckpoint();
    EXPECT_GE(ctrl.target(), params.vMinAllowed);
}

TEST(Regulator, SlewLimitsTracking)
{
    Regulator reg(1.0, /*slew V/us=*/0.01);
    reg.setTarget(0.9, 0);
    // After 1 us only 0.01 V of the 0.1 V step is covered.
    EXPECT_NEAR(reg.voltageAt(ticksPerUs), 0.99, 1e-9);
    // After 10 us the target is reached and holds.
    EXPECT_NEAR(reg.voltageAt(10 * ticksPerUs), 0.9, 1e-9);
    EXPECT_NEAR(reg.voltageAt(20 * ticksPerUs), 0.9, 1e-9);
}

TEST(Regulator, TracksUpward)
{
    Regulator reg(0.8, 0.01);
    reg.setTarget(0.95, 0);
    EXPECT_NEAR(reg.voltageAt(5 * ticksPerUs), 0.85, 1e-9);
    EXPECT_NEAR(reg.voltageAt(100 * ticksPerUs), 0.95, 1e-9);
}

TEST(Dvfs, CompensatedFrequencyScalesBelowTarget)
{
    // At target: nominal.  Below target: proportional to V - Vt.
    EXPECT_DOUBLE_EQ(
        compensatedFrequency(3.2e9, 0.9, 0.9, 0.45), 3.2e9);
    EXPECT_DOUBLE_EQ(
        compensatedFrequency(3.2e9, 0.95, 0.9, 0.45), 3.2e9);
    double f = compensatedFrequency(3.2e9, 0.675, 0.9, 0.45);
    EXPECT_NEAR(f, 3.2e9 * 0.5, 1e3);
}

TEST(Scheduler, LowestFreeIdConcentrates)
{
    CheckerScheduler sched(4, SchedPolicy::LowestFreeId, 0);
    EXPECT_EQ(sched.allocate(0), 0);
    EXPECT_EQ(sched.allocate(0), 1);
    sched.release(0, 10);
    EXPECT_EQ(sched.allocate(20), 0);  // reuses the lowest id
    EXPECT_EQ(sched.busyCount(), 2u);
}

TEST(Scheduler, RoundRobinWaitsForNextInOrder)
{
    CheckerScheduler sched(3, SchedPolicy::RoundRobin, 0);
    EXPECT_EQ(sched.allocate(0), 0);
    EXPECT_EQ(sched.allocate(0), 1);
    EXPECT_EQ(sched.allocate(0), 2);
    EXPECT_EQ(sched.allocate(0), -1);   // full
    sched.release(1, 5);
    // Round-robin wants index 0 next; only index 1 is free.
    EXPECT_EQ(sched.allocate(6), -1);
    sched.release(0, 7);
    EXPECT_EQ(sched.allocate(8), 0);
}

TEST(Scheduler, WakeRatesReflectBusyTime)
{
    CheckerScheduler sched(2, SchedPolicy::LowestFreeId, 0);
    sched.allocate(0);       // checker 0 from t=0
    sched.release(0, 500);
    auto rates = sched.wakeRates(1000);
    EXPECT_NEAR(rates[0], 0.5, 1e-9);
    EXPECT_NEAR(rates[1], 0.0, 1e-9);
    EXPECT_EQ(sched.wakeEvents()[0], 1u);
}

TEST(Scheduler, OpenIntervalCountsTowardWakeRate)
{
    CheckerScheduler sched(2, SchedPolicy::LowestFreeId, 0);
    sched.allocate(200);
    auto rates = sched.wakeRates(1000);
    EXPECT_NEAR(rates[0], 0.8, 1e-9);
}

TEST(Scheduler, BootRotationDerangesPhysicalIds)
{
    CheckerScheduler a(16, SchedPolicy::LowestFreeId, 0);
    CheckerScheduler b(16, SchedPolicy::LowestFreeId, 5);
    EXPECT_EQ(a.physicalId(0), 0u);
    EXPECT_EQ(b.physicalId(0), 5u);
    EXPECT_EQ(b.physicalId(15), 4u);
}

/** Build a tiny program + segment pair for replay tests. */
struct ReplayFixture
{
    isa::Program prog;
    LogSegment seg;
    cpu::CheckerTiming timing;
    faults::FaultPlan emptyPlan;

    ReplayFixture()
    {
        using namespace isa;
        ProgramBuilder b("replay");
        constexpr XReg r1{1}, r2{2};
        b.ldi(r1, 0x1000);
        b.ld(r2, r1, 0);
        b.addi(r2, r2, 5);
        b.sd(r2, r1, 8);
        b.halt();
        b.data64(0x1000, 37);
        prog = b.build();

        // Execute on the main side to fill the log + end state.
        mem::SimpleMemory memory;
        ArchState state;
        loadProgram(prog, state, memory);
        seg.open(1, state, 0, 0);
        unsigned count = 0;
        for (;;) {
            ExecResult r = step(prog, state, memory);
            ++count;
            if (r.isLoad)
                seg.appendLoad(r.memAddr, r.memSize, r.loadValue, 16);
            if (r.isStore)
                seg.appendStore(r.memAddr, r.memSize, r.storeValue,
                                r.storeOld, 24);
            if (r.halted)
                break;
        }
        seg.close(state, count, 100);
    }
};

TEST(Replay, CleanSegmentVerifies)
{
    ReplayFixture f;
    auto out = replaySegment(f.prog, f.seg, 0, f.timing, f.emptyPlan,
                             16);
    EXPECT_FALSE(out.detected);
    EXPECT_EQ(out.reason, DetectReason::None);
    EXPECT_EQ(out.instructionsExecuted, f.seg.instCount());
    EXPECT_GT(out.totalCycles, 0u);
}

TEST(Replay, CorruptedStoreEntryDetectsAtStore)
{
    ReplayFixture f;
    // Flip a bit in the logged store value.
    LogSegment bad;
    bad.open(f.seg.id(), f.seg.startState(), 0, 0);
    for (const LogEntry &e : f.seg.entries()) {
        if (e.isLoad)
            bad.appendLoad(e.addr, e.size, e.value, 16);
        else
            bad.appendStore(e.addr, e.size, e.value ^ 1, e.oldValue,
                            24);
    }
    bad.close(f.seg.endState(), f.seg.instCount(), 100);
    auto out = replaySegment(f.prog, bad, 0, f.timing, f.emptyPlan,
                             16);
    EXPECT_TRUE(out.detected);
    EXPECT_EQ(out.reason, DetectReason::StoreMismatch);
}

TEST(Replay, CorruptedStartStateDetects)
{
    ReplayFixture f;
    LogSegment bad;
    isa::ArchState start = f.seg.startState();
    // Flip x5: never rewritten by the program, so the corruption
    // survives to the final state comparison.  (A flip in a register
    // the program immediately overwrites is a *masked* fault and is
    // legitimately undetectable.)
    start.flipBit(isa::RegCategory::Integer, 4, 3);
    bad.open(f.seg.id(), start, 0, 0);
    for (const LogEntry &e : f.seg.entries()) {
        if (e.isLoad)
            bad.appendLoad(e.addr, e.size, e.value, 16);
        else
            bad.appendStore(e.addr, e.size, e.value, e.oldValue, 24);
    }
    bad.close(f.seg.endState(), f.seg.instCount(), 100);
    auto out = replaySegment(f.prog, bad, 0, f.timing, f.emptyPlan,
                             16);
    EXPECT_TRUE(out.detected);
}

TEST(Replay, CorruptedEndStateDetectsAtFinalCompare)
{
    ReplayFixture f;
    LogSegment bad;
    bad.open(f.seg.id(), f.seg.startState(), 0, 0);
    for (const LogEntry &e : f.seg.entries()) {
        if (e.isLoad)
            bad.appendLoad(e.addr, e.size, e.value, 16);
        else
            bad.appendStore(e.addr, e.size, e.value, e.oldValue, 24);
    }
    isa::ArchState end = f.seg.endState();
    end.flipBit(isa::RegCategory::Float, 0, 0);
    bad.close(end, f.seg.instCount(), 100);
    auto out = replaySegment(f.prog, bad, 0, f.timing, f.emptyPlan,
                             16);
    EXPECT_TRUE(out.detected);
    EXPECT_EQ(out.reason, DetectReason::FinalStateMismatch);
}

TEST(Replay, RegisterFaultInjectionIsDetected)
{
    ReplayFixture f;
    faults::FaultConfig fc;
    fc.kind = faults::FaultKind::RegisterBitFlip;
    fc.rate = 1.0;  // every instruction
    fc.targetCategory = isa::RegCategory::Integer;
    faults::FaultPlan plan;
    plan.add(fc);
    auto out = replaySegment(f.prog, f.seg, 0, f.timing, plan, 16);
    EXPECT_TRUE(out.detected);
    EXPECT_GT(out.faultsInjected, 0u);
}

TEST(Replay, EveryArchBitFlipInStartStateIsDetected)
{
    // Property: any single corruption of the checker's starting
    // integer register file that feeds the computation is caught.
    ReplayFixture f;
    for (unsigned bit = 0; bit < 16; ++bit) {
        LogSegment bad;
        isa::ArchState start = f.seg.startState();
        start.flipBit(isa::RegCategory::Misc, 0, bit + 2);
        bad.open(1, start, 0, 0);
        for (const LogEntry &e : f.seg.entries()) {
            if (e.isLoad)
                bad.appendLoad(e.addr, e.size, e.value, 16);
            else
                bad.appendStore(e.addr, e.size, e.value, e.oldValue,
                                24);
        }
        bad.close(f.seg.endState(), f.seg.instCount(), 100);
        auto out = replaySegment(f.prog, bad, 0, f.timing,
                                 f.emptyPlan, 16);
        EXPECT_TRUE(out.detected) << "pc bit " << bit;
    }
}

/**
 * The reference checker replay: a per-instruction isa::step loop over
 * a log-replay memory.  replaySegment runs the decoded engine
 * instead, with or without fault injectors; this loop is the oracle
 * it must match outcome for outcome.
 */
class OracleLog : public isa::MemIf
{
  public:
    OracleLog(const LogSegment &segment, faults::FaultPlan &plan,
              ReplayOutcome &outcome)
        : segment_(segment), plan_(plan), outcome_(outcome)
    {}

    std::uint64_t
    read(Addr addr, unsigned size) override
    {
        const LogEntry *e = next();
        if (!e || !e->isLoad || e->addr != addr || e->size != size) {
            reason = DetectReason::LoadEntryMismatch;
            return 0;
        }
        return corrupt(e->value, true);
    }

    std::uint64_t
    write(Addr addr, unsigned size, std::uint64_t value) override
    {
        const LogEntry *e = next();
        if (!e || e->isLoad || e->addr != addr || e->size != size ||
            corrupt(e->value, false) != value) {
            reason = DetectReason::StoreMismatch;
            return 0;
        }
        return e->oldValue;
    }

    std::size_t consumed() const { return index_; }

    DetectReason reason = DetectReason::None;

  private:
    const LogEntry *
    next()
    {
        return index_ < segment_.entries().size()
                   ? &segment_.entries()[index_++]
                   : nullptr;
    }

    std::uint64_t
    corrupt(std::uint64_t value, bool is_load)
    {
        for (auto &injector : plan_.injectors()) {
            const faults::FaultHit hit =
                injector.onLogEntry(is_load, index_ - 1);
            if (hit.fires) {
                const std::uint64_t mask = std::uint64_t(1) << hit.bit;
                value = !hit.hasStuck     ? value ^ mask
                        : hit.stuckValue ? value | mask
                                         : value & ~mask;
                ++outcome_.faultsInjected;
            }
        }
        return value;
    }

    const LogSegment &segment_;
    faults::FaultPlan &plan_;
    ReplayOutcome &outcome_;
    std::size_t index_ = 0;
};

ReplayOutcome
oracleReplay(const isa::Program &prog, const LogSegment &segment,
             unsigned checker_id, cpu::CheckerTiming &timing,
             faults::FaultPlan &plan, unsigned final_compare_cycles)
{
    ReplayOutcome outcome;
    isa::ArchState state = segment.startState();
    plan.setActiveChecker(int(checker_id));
    OracleLog log(segment, plan, outcome);
    const Cycles watchdog = Cycles(24) * (segment.instCount() + 16);
    const unsigned count = segment.instCount();
    Cycles cycles = 0;
    const auto detect = [&outcome](DetectReason reason) {
        outcome.detected = true;
        outcome.reason = reason;
    };
    for (unsigned i = 0; i < count; ++i) {
        if (cycles > watchdog) {
            detect(DetectReason::Timeout);
            break;
        }
        const isa::Instruction *inst = prog.fetch(state.pc());
        if (!inst) {
            detect(DetectReason::InvalidBehavior);
            break;
        }
        cycles += timing.instCycles(checker_id, state.pc(), *inst);
        const isa::ExecResult r = isa::step(prog, state, log);
        ++outcome.instructionsExecuted;
        if (log.reason != DetectReason::None) {
            detect(log.reason);
            break;
        }
        if (r.halted && i + 1 != count) {
            detect(DetectReason::InvalidBehavior);
            break;
        }
        outcome.faultsInjected +=
            applyInstructionFaults(plan, *inst, r, state,
                                   [](const faults::FaultHit &) {});
    }
    if (!outcome.detected) {
        cycles += final_compare_cycles;
        if (log.consumed() != segment.entries().size())
            detect(DetectReason::EntryCountMismatch);
        else if (!(state == segment.endState()))
            detect(DetectReason::FinalStateMismatch);
    }
    outcome.cyclesAtDetection = cycles;
    outcome.totalCycles = cycles;
    return outcome;
}

/** Fault-free main-side run of @p prog, cut into segments. */
std::vector<LogSegment>
recordSegments(const isa::Program &prog, unsigned seg_len,
               unsigned max_segs)
{
    std::vector<LogSegment> segs;
    mem::SimpleMemory memory;
    isa::ArchState state;
    isa::loadProgram(prog, state, memory);
    bool halted = false;
    while (!halted && segs.size() < max_segs) {
        LogSegment &seg = segs.emplace_back();
        seg.open(segs.size(), state, 0, 0);
        unsigned count = 0;
        while (!halted && count < seg_len) {
            const isa::ExecResult r = isa::step(prog, state, memory);
            ++count;
            if (r.isLoad)
                seg.appendLoad(r.memAddr, r.memSize, r.loadValue, 16);
            if (r.isStore)
                seg.appendStore(r.memAddr, r.memSize, r.storeValue,
                                r.storeOld, 24);
            halted = r.halted;
        }
        seg.close(state, count, 0);
    }
    return segs;
}

/**
 * Replay @p segs (segment i on checker i % @p checkers) under two
 * copies of the plan @p make builds, one through replaySegment and
 * one through the oracle, and require the same outcome and the same
 * per-plan fire count after every segment.  Returns the faults the
 * replays injected.
 */
template <typename MakePlan>
std::uint64_t
expectReplayMatchesOracle(const std::string &what,
                          const isa::Program &prog,
                          const std::vector<LogSegment> &segs,
                          MakePlan make, unsigned checkers = 16)
{
    faults::FaultPlan plan = make();
    faults::FaultPlan oracle_plan = make();
    cpu::CheckerTiming timing, oracle_timing;
    std::uint64_t fired = 0;
    for (std::size_t i = 0; i < segs.size(); ++i) {
        const unsigned id = unsigned(i % checkers);
        const ReplayOutcome got =
            replaySegment(prog, segs[i], id, timing, plan, 16);
        const ReplayOutcome want = oracleReplay(
            prog, segs[i], id, oracle_timing, oracle_plan, 16);
        const std::string where = what + " segment " + std::to_string(i);
        EXPECT_EQ(got.detected, want.detected) << where;
        EXPECT_EQ(got.reason, want.reason) << where;
        EXPECT_EQ(got.cyclesAtDetection, want.cyclesAtDetection)
            << where;
        EXPECT_EQ(got.totalCycles, want.totalCycles) << where;
        EXPECT_EQ(got.instructionsExecuted, want.instructionsExecuted)
            << where;
        EXPECT_EQ(got.faultsInjected, want.faultsInjected) << where;
        EXPECT_EQ(plan.totalFired(), oracle_plan.totalFired()) << where;
        fired += got.faultsInjected;
    }
    return fired;
}

TEST(Replay, InjectedFaultsMatchTheStepOracle)
{
    struct Kind
    {
        const char *name;
        faults::FaultKind kind;
        isa::RegCategory category;
        double rate;
    };
    using faults::FaultKind;
    using faults::Persistence;
    using isa::RegCategory;
    const Kind kinds[] = {
        {"fu", FaultKind::FunctionalUnit, RegCategory::Integer, 0.05},
        {"int-reg", FaultKind::RegisterBitFlip, RegCategory::Integer,
         0.002},
        {"fp-reg", FaultKind::RegisterBitFlip, RegCategory::Float, 0.002},
        {"flags", FaultKind::RegisterBitFlip, RegCategory::Flags, 0.002},
        {"pc", FaultKind::RegisterBitFlip, RegCategory::Misc, 0.002},
        {"log-entry", FaultKind::LogBitFlip, RegCategory::Integer, 0.05},
    };
    const std::pair<const char *, Persistence> persistences[] = {
        {"transient", Persistence::Transient},
        {"intermittent", Persistence::Intermittent},
        {"permanent", Persistence::Permanent},
    };
    for (const char *name : {"bitcount", "lbm"}) {
        const auto w = workloads::build(name, 1);
        const std::vector<LogSegment> segs =
            recordSegments(w.program, 300, 24);
        for (const Kind &k : kinds) {
            std::uint64_t pinned_fired = 0;
            for (const auto &[pname, persistence] : persistences) {
                for (std::uint64_t seed = 1; seed <= 3; ++seed) {
                    faults::FaultConfig fc;
                    fc.kind = k.kind;
                    fc.targetCategory = k.category;
                    fc.rate = k.rate;
                    fc.seed = seed;
                    fc.persistence = persistence;
                    const std::string what =
                        std::string(name) + " " + k.name + " " + pname +
                        " seed " + std::to_string(seed);
                    const auto make = [&fc] {
                        faults::FaultPlan plan;
                        plan.add(fc);
                        return plan;
                    };
                    EXPECT_GT(expectReplayMatchesOracle(what, w.program,
                                                        segs, make),
                              0u)
                        << what;
                    // Pinned to checker 1 of 4: replays on checkers
                    // 0, 2 and 3 neither fire nor advance it.
                    fc.targetChecker = 1;
                    pinned_fired += expectReplayMatchesOracle(
                        what + " pinned", w.program, segs, make, 4);
                }
            }
            EXPECT_GT(pinned_fired, 0u) << name << " " << k.name;
        }
        // The figure 8/9 pair (register + log), ambient and pinned.
        for (const auto &[pname, persistence] : persistences) {
            for (std::uint64_t seed = 1; seed <= 3; ++seed) {
                const std::string what = std::string(name) +
                                         " uniform " + pname + " seed " +
                                         std::to_string(seed);
                for (int pin : {-1, 2})
                    EXPECT_GT(expectReplayMatchesOracle(
                                  what + " pin " + std::to_string(pin),
                                  w.program, segs,
                                  [&] {
                                      return faults::uniformPlan(
                                          0.002, seed, persistence, pin);
                                  },
                                  4),
                              0u)
                        << what;
            }
        }
    }
}

TEST(Replay, SparseFaultsMatchTheStepOracleAcrossSegments)
{
    // At 1e-4 one geometric gap spans dozens of 300-instruction
    // segments, so the skip-ahead accounting carries across replays.
    const auto w = workloads::build("bitcount", 1);
    const std::vector<LogSegment> segs =
        recordSegments(w.program, 300, 240);
    ASSERT_EQ(segs.size(), 240u);
    std::uint64_t fired = 0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
        fired += expectReplayMatchesOracle(
            "bitcount uniform 1e-4 seed " + std::to_string(seed),
            w.program, segs,
            [seed] { return faults::uniformPlan(1e-4, seed); });
    EXPECT_GT(fired, 0u);
}

TEST(Replay, ChipFaultsMatchTheStepOracle)
{
    // Chip mode consults the weak-cell map on every event: the replay
    // must keep stepping each one.
    faults::ChipConfig cc;
    cc.chipSeed = 3;
    cc.weakCells = 256;
    const faults::ChipModel chip(cc);
    const auto w = workloads::build("bitcount", 1);
    const std::vector<LogSegment> segs =
        recordSegments(w.program, 300, 24);
    for (const faults::Persistence persistence :
         {faults::Persistence::Transient,
          faults::Persistence::Intermittent,
          faults::Persistence::Permanent}) {
        for (int pin : {-1, 1}) {
            const std::string what =
                std::string("chip ") +
                faults::persistenceName(persistence) + " pin " +
                std::to_string(pin);
            EXPECT_GT(expectReplayMatchesOracle(
                          what, w.program, segs,
                          [&] {
                              faults::FaultPlan plan = faults::chipPlan(
                                  7, persistence, pin);
                              plan.attachChip(&chip);
                              plan.setVoltage(0.80);
                              return plan;
                          },
                          4),
                      0u)
                << what;
        }
    }
}

} // namespace

namespace
{

using namespace paradox;
using namespace paradox::core;

TEST(LogSegment, ContinuityIdRecordsNextChecker)
{
    LogSegment seg;
    isa::ArchState start;
    seg.open(1, start, 0, 0);
    EXPECT_EQ(seg.nextCheckerId(), -1);
    seg.setNextCheckerId(5);
    EXPECT_EQ(seg.nextCheckerId(), 5);
}

TEST(SystemStatsDump, ContainsEveryRegisteredStat)
{
    auto w = paradox::workloads::build("bitcount", 1);
    SystemConfig config = SystemConfig::forMode(Mode::ParaDox);
    System system(config, w.program);
    system.setFaultPlan(paradox::faults::uniformPlan(1e-4, 3));
    RunLimits limits;
    limits.maxExecuted = 50'000'000;
    system.run(limits);
    std::ostringstream os;
    system.dumpStats(os);
    const std::string out = os.str();
    for (const char *key :
         {"system.rollbackNs", "system.wastedExecNs",
          "system.checkpointLength", "system.checkpointLengthHist",
          "system.evictionCuts", "system.capacityCuts",
          "system.targetCuts", "system.checkerWaitStalls",
          "system.voltage"}) {
        EXPECT_NE(out.find(key), std::string::npos) << key;
    }
}

TEST(SystemHistogram, CheckpointLengthsPopulated)
{
    auto w = paradox::workloads::build("stream", 1);
    SystemConfig config = SystemConfig::forMode(Mode::ParaDox);
    System system(config, w.program);
    system.run();
    const auto &hist = system.checkpointLengthHistogram();
    EXPECT_GT(hist.count(), 0u);
    // Stream's segments are log-capacity-bound: well under the cap.
    EXPECT_LT(hist.percentile(0.99), 5000.0);
}

} // namespace
