#include "layers.hh"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <unordered_set>

#include "analysis/effects.hh"
#include "core/aimd.hh"
#include "core/checker_replay.hh"
#include "core/config.hh"
#include "core/dvfs.hh"
#include "core/logbytes.hh"
#include "core/lslog.hh"
#include "cpu/branch_pred.hh"
#include "cpu/checker_timing.hh"
#include "cpu/main_core.hh"
#include "faults/fault_model.hh"
#include "isa/decoded.hh"
#include "isa/decoded_run.hh"
#include "isa/executor.hh"
#include "mem/hierarchy.hh"
#include "mem/memory.hh"
#include "mem/tlb.hh"

namespace perfbench
{

using namespace paradox;

namespace
{

/**
 * Instructions per chunk: one span per layer per chunk.  Small enough
 * that a chunk's recorded CommitRecords (~90 bytes each) stay in a
 * 2 MiB L2, so each layer loop reads its input from cache rather than
 * streaming it from memory, yet large enough that the two clock reads
 * per span are noise.
 */
constexpr std::uint64_t chunkInsts = 8192;

/** Frequency-compensation threshold voltage (System's fvModel_). */
constexpr double vThreshold = 0.45;

/**
 * Folds every CommitRecord field into a checksum.  Independent
 * add/xor accumulators keep the fold off the interpreter's critical
 * path, while still forcing the compiler to build every record field
 * (a counting sink lets it drop record construction entirely).
 */
struct RecordFold
{
    std::uintptr_t instBase = 0;
    std::uint64_t a = 0, b = 0, c = 0, d = 0, e = 0, n = 0;

    void
    add(const isa::CommitRecord &r)
    {
        a += r.pc ^ (r.nextPc << 1);
        b += r.memAddr + r.memSize;
        c ^= r.loadValue + r.storeValue;
        d ^= r.storeOld + r.destValue;
        const std::uint64_t flags =
            std::uint64_t(r.valid) | std::uint64_t(r.halted) << 1 |
            std::uint64_t(r.isLoad) << 2 | std::uint64_t(r.isStore) << 3 |
            std::uint64_t(r.isBranch) << 4 | std::uint64_t(r.isJump) << 5 |
            std::uint64_t(r.taken) << 6 | std::uint64_t(r.wroteInt) << 7 |
            std::uint64_t(r.wroteFp) << 8;
        e += flags ^ std::uint64_t(r.op) << 16 ^
             std::uint64_t(r.cls) << 24 ^ std::uint64_t(r.rd) << 32 ^
             std::uint64_t(r.srcA) << 40 ^ std::uint64_t(r.srcB) << 48 ^
             std::uint64_t(r.srcC) << 56 ^
             (reinterpret_cast<std::uintptr_t>(r.inst) - instBase);
        ++n;
    }

    std::uint64_t
    value() const
    {
        return a ^ std::rotl(b, 13) ^ std::rotl(c, 27) ^
               std::rotl(d, 41) ^ std::rotl(e, 53) ^ n;
    }
};

/** A segment cut from the stream: records [begin, end). */
struct Segment
{
    isa::ArchState start;
    isa::ArchState end;
    std::size_t begin = 0;
    std::size_t endRec = 0;
    std::uint64_t id = 0;
    std::uint64_t firstInst = 0;
    bool detected = false;
};

/** A pre-store line image, captured the way System captures it. */
struct LineImage
{
    std::size_t record = 0;
    Addr line = 0;
    std::vector<std::uint8_t> bytes;
};

std::uint64_t
bitsOf(double v)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof u);
    return u;
}

} // namespace

const char *
layerName(Layer layer)
{
    switch (layer) {
      case Isa:         return "isa";
      case MainTotal:   return "cpu.main+tlb";
      case Mem:         return "mem";
      case Tlb:         return "mem.tlb";
      case Bpred:       return "cpu.bpred";
      case Log:         return "core.lslog";
      case ReplayFast:  return "core.replay.fast";
      case ReplaySlow:  return "core.replay.slow";
      case CheckerTime: return "cpu.checker_timing";
      case Ctrl:        return "core.ctrl";
      default:          break;
    }
    return "unknown";
}

bool
SpanLog::writeJsonl(const std::string &path, const std::string &workload,
                    const std::vector<std::string> &programs) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    for (const Span &s : spans_)
        std::fprintf(f,
                     "{\"workload\":\"%s\",\"pass\":%u,\"program\":\"%s\","
                     "\"layer\":\"%s\",\"t0_ns\":%llu,\"t1_ns\":%llu}\n",
                     workload.c_str(), unsigned(s.pass),
                     s.program < programs.size()
                         ? programs[s.program].c_str()
                         : "?",
                     layerName(s.layer), (unsigned long long)s.t0Ns,
                     (unsigned long long)s.t1Ns);
    return std::fclose(f) == 0;
}

HarnessCounts
runHarness(const HarnessInput &in, unsigned program, SpanLog &log)
{
    const workloads::Workload &w = *in.workload;
    const isa::Program &prog = w.program;
    const std::shared_ptr<const isa::DecodedProgram> dp =
        isa::DecodedProgram::get(prog);
    const core::SystemConfig cfg =
        core::SystemConfig::forMode(core::Mode::ParaDox);
    const Addr off = cfg.physicalOffset;
    HarnessCounts counts;

    // ---- isa: the whole program through the interpreter alone. ----
    {
        mem::SimpleMemory memory;
        isa::ArchState state;
        isa::loadProgram(prog, state, memory);
        RecordFold fold;
        fold.instBase = reinterpret_cast<std::uintptr_t>(prog.code().data());
        isa::RunStop stop = isa::RunStop::MaxUops;
        while (stop == isa::RunStop::MaxUops) {
            log.span(Isa, program, [&] {
                stop = isa::runDecoded(*dp, state, memory, chunkInsts,
                                       [&](const isa::CommitRecord &r) {
                                           fold.add(r);
                                           return true;
                                       });
            });
        }
        if (stop != isa::RunStop::Halted)
            throw std::runtime_error(w.name + ": interpreter stopped "
                                              "before HALT");
        counts.isaInsts = fold.n;
        counts.fold[Isa] = fold.value();
        counts.resultOk =
            memory.read(workloads::resultAddr, 8) == w.expectedResult;
    }

    // ---- The stream pass: one chunk of segments at a time. ----------
    mem::SimpleMemory memory;
    isa::ArchState state;
    isa::loadProgram(prog, state, memory);

    ClockDomain clock(cfg.mainFreqHz);
    mem::CacheHierarchy coreHier(cfg.hierarchy, clock);
    mem::Tlb coreItlb(mem::TlbParams{}, off);
    mem::Tlb coreDtlb(mem::TlbParams{}, off);
    cpu::MainCore core(cfg.mainCore, clock, coreHier);

    mem::CacheHierarchy hier(cfg.hierarchy, clock);
    mem::Tlb itlb(mem::TlbParams{}, off);
    mem::Tlb dtlb(mem::TlbParams{}, off);
    cpu::TournamentPredictor bpred(cfg.mainCore.predictor);

    cpu::CheckerTiming fastTiming(cfg.checkers);
    cpu::CheckerTiming slowTiming(cfg.checkers);
    cpu::CheckerTiming checkerTiming(cfg.checkers);
    faults::FaultPlan noFaults;
    faults::FaultPlan faultPlan = faults::uniformPlan(in.faultRate, in.seed);
    const unsigned checkers = cfg.checkers.count;

    core::CheckpointLengthController ckptCtrl(cfg.checkpointAimd,
                                              cfg.adaptiveCheckpoints);
    core::VoltageController voltCtrl(cfg.voltage);
    core::Regulator regulator(cfg.voltage.startVoltage,
                              cfg.voltage.regulatorSlewVoltsPerUs);

    const unsigned lineBytes = hier.lineBytes();
    const analysis::EffectSummary effects = analysis::EffectSummary::build(
        *dp, core::logEffectParams(cfg, lineBytes));
    const core::LogParams &logp = cfg.log;

    std::vector<isa::CommitRecord> recs;
    recs.reserve(chunkInsts + 2 * cfg.checkpointAimd.maxLength);
    std::vector<Segment> segs;
    std::vector<LineImage> lines;
    std::vector<core::LogSegment> logs;
    std::unordered_set<Addr> copied;
    std::uint64_t segId = 1;
    Tick memNow = 0;
    Tick ctrlNow = 0;
    bool halted = false;

    while (!halted && counts.insts < in.maxInstructions) {
        // Cut the next chunk into segments (untimed): each ends at the
        // mean checkpoint length or where the log could overflow.
        recs.clear();
        segs.clear();
        lines.clear();
        while (!halted && recs.size() < chunkInsts &&
               counts.insts + recs.size() < in.maxInstructions) {
            Segment seg;
            seg.start = state;
            seg.begin = recs.size();
            seg.id = segId++;
            seg.firstInst = counts.insts + recs.size();
            copied.clear();
            std::uint64_t bytes = 0;
            const isa::RunStop stop = isa::runDecoded(
                *dp, state, memory, in.segmentLength,
                [&](const isa::CommitRecord &r) {
                    if (!r.valid)
                        return false;
                    recs.push_back(r);
                    if (!r.isStore)
                        return true;
                    // System::captureLineCopies: the pre-store image of
                    // each line first written in this checkpoint.
                    const Addr first = r.memAddr & ~Addr(lineBytes - 1);
                    const Addr last =
                        (r.memAddr + r.memSize - 1) & ~Addr(lineBytes - 1);
                    for (Addr line = first; line <= last; line += lineBytes) {
                        if (!copied.insert(line).second)
                            continue;
                        LineImage img{recs.size() - 1, line,
                                      std::vector<std::uint8_t>(lineBytes)};
                        memory.readBlock(line, img.bytes.data(), lineBytes);
                        for (unsigned i = 0; i < r.memSize; ++i) {
                            const Addr at = r.memAddr + i;
                            if (at >= line && at < line + lineBytes)
                                img.bytes[at - line] =
                                    std::uint8_t(r.storeOld >> (8 * i));
                        }
                        lines.push_back(std::move(img));
                    }
                    return true;
                },
                [&](std::uint64_t idx) {
                    const std::uint64_t need = effects.uopBound(idx);
                    if (bytes + need > logp.segmentBytes)
                        return false;
                    bytes += need;
                    return true;
                });
            if (stop == isa::RunStop::WildFetch ||
                stop == isa::RunStop::SinkStop)
                throw std::runtime_error(w.name + ": wild fetch in the "
                                                  "recorded stream");
            seg.end = state;
            seg.endRec = recs.size();
            if (seg.endRec == seg.begin)
                throw std::runtime_error(w.name + ": empty segment");
            halted = stop == isa::RunStop::Halted;
            segs.push_back(std::move(seg));
        }
        for (std::size_t i = 0; i < recs.size(); ++i) {
            const isa::CommitRecord &r = recs[i];
            const bool mem_op = r.isLoad || r.isStore;
            counts.memAccesses += 1 + mem_op;
            counts.translations += 1 + mem_op;
            counts.branches += r.isBranch || r.isJump;
            counts.logEntries += mem_op;
        }
        counts.logEntries += lines.size();
        counts.insts += recs.size();
        counts.segments += segs.size();
        if (logs.size() < segs.size())
            logs.resize(segs.size());

        log.span(MainTotal, program, [&] {
            std::uint64_t f = 0;
            for (const Segment &seg : segs)
                for (std::size_t i = seg.begin; i < seg.endRec; ++i) {
                    const isa::CommitRecord &r = recs[i];
                    const mem::Translation ifetch = coreItlb.translate(r.pc);
                    Addr mem_paddr = r.memAddr;
                    unsigned walk = ifetch.extraCycles;
                    if (r.isLoad || r.isStore) {
                        const mem::Translation data =
                            coreDtlb.translate(r.memAddr);
                        mem_paddr = data.paddr;
                        walk += data.extraCycles;
                    }
                    if (walk > 0)
                        core.stallUntil(core.now() +
                                        clock.cyclesToTicks(walk));
                    f += core.advance(r, ifetch.paddr, mem_paddr,
                                      r.nextPc + off, mem::noPin, seg.id)
                             .commitAt;
                }
            counts.fold[MainTotal] ^= f;
        });

        log.span(Mem, program, [&] {
            std::uint64_t f = 0;
            for (const Segment &seg : segs)
                for (std::size_t i = seg.begin; i < seg.endRec; ++i) {
                    const isa::CommitRecord &r = recs[i];
                    memNow += clock.period();
                    f += hier.instFetch(r.pc + off, memNow);
                    if (r.isLoad || r.isStore)
                        f += hier.dataAccess(r.memAddr + off, r.pc + off,
                                             r.isStore, memNow, mem::noPin,
                                             seg.id)
                                 .completeAt;
                }
            counts.fold[Mem] ^= f;
        });

        log.span(Tlb, program, [&] {
            std::uint64_t f = 0;
            for (const isa::CommitRecord &r : recs) {
                const mem::Translation t = itlb.translate(r.pc);
                f += t.paddr + t.extraCycles;
                if (r.isLoad || r.isStore) {
                    const mem::Translation d = dtlb.translate(r.memAddr);
                    f += d.paddr + d.extraCycles;
                }
            }
            counts.fold[Tlb] ^= f;
        });

        log.span(Bpred, program, [&] {
            std::uint64_t f = 0;
            for (const isa::CommitRecord &r : recs) {
                if (!r.isBranch && !r.isJump)
                    continue;
                const cpu::TournamentPredictor::Prediction p =
                    bpred.predict(r.pc + off, *r.inst);
                f += p.target + p.taken;
                f += bpred.update(r.pc + off, *r.inst,
                                  r.isJump ? true : r.taken,
                                  r.nextPc + off);
            }
            counts.fold[Bpred] ^= f;
        });

        log.span(Log, program, [&] {
            std::uint64_t f = 0;
            std::size_t lc = 0;
            for (std::size_t k = 0; k < segs.size(); ++k) {
                const Segment &seg = segs[k];
                core::LogSegment &ls = logs[k];
                ls.open(seg.id, seg.start, seg.firstInst, 0);
                for (std::size_t i = seg.begin; i < seg.endRec; ++i) {
                    const isa::CommitRecord &r = recs[i];
                    if (r.isLoad) {
                        ls.appendLoad(r.memAddr, r.memSize, r.loadValue,
                                      logp.loadEntryBytes);
                    } else if (r.isStore) {
                        for (; lc < lines.size() && lines[lc].record == i;
                             ++lc)
                            ls.appendLineCopy(lines[lc].line + off,
                                              lines[lc].bytes,
                                              logp.lineCopyBytes);
                        ls.appendStore(r.memAddr, r.memSize, r.storeValue,
                                       r.storeOld, logp.storeEntryBytes);
                    }
                }
                ls.close(seg.end, unsigned(seg.endRec - seg.begin), 0);
                f += ls.bytesUsed();
            }
            counts.logBytes += f;
            counts.fold[Log] ^= f;
        });

        const auto replay = [&](Layer layer, cpu::CheckerTiming &timing,
                                faults::FaultPlan &plan) {
            log.span(layer, program, [&] {
                std::uint64_t f = 0;
                for (std::size_t k = 0; k < segs.size(); ++k) {
                    const unsigned id = unsigned(k % checkers);
                    const core::ReplayOutcome out = core::replaySegment(
                        prog, logs[k], id, timing, plan,
                        cfg.rollback.finalCompareCycles,
                        cfg.checkerTimeoutFactor, off, dp.get(), nullptr);
                    timing.powerGated(id);
                    segs[k].detected = out.detected;
                    f += out.totalCycles + out.detected;
                }
                counts.fold[layer] ^= f;
            });
        };
        if (in.replayFast) {
            replay(ReplayFast, fastTiming, noFaults);
            for (const Segment &seg : segs)
                if (seg.detected)
                    throw std::runtime_error(
                        w.name + ": fault-free replay detected an error");
            counts.replayFastInsts += recs.size();
        }
        if (in.replaySlow) {
            replay(ReplaySlow, slowTiming, faultPlan);
            counts.replaySlowInsts += recs.size();
        }

        log.span(CheckerTime, program, [&] {
            Cycles cycles = 0;
            for (std::size_t k = 0; k < segs.size(); ++k) {
                const unsigned id = unsigned(k % checkers);
                for (std::size_t i = segs[k].begin; i < segs[k].endRec; ++i)
                    cycles += checkerTiming.instCycles(id, recs[i].pc + off,
                                                       *recs[i].inst);
                checkerTiming.powerGated(id);
            }
            counts.fold[CheckerTime] ^= cycles;
        });
        counts.checkerCalls += recs.size();

        log.span(Ctrl, program, [&] {
            std::uint64_t f = 0;
            for (const Segment &seg : segs) {
                ctrlNow += clock.cyclesToTicks(seg.endRec - seg.begin);
                if (seg.detected) {
                    ckptCtrl.onReduction(
                        std::max(unsigned(seg.endRec - seg.begin), 1u));
                    voltCtrl.onError(regulator.voltageAt(ctrlNow));
                } else {
                    ckptCtrl.onCleanCheckpoint();
                    voltCtrl.onCleanCheckpoint();
                }
                regulator.setTarget(voltCtrl.target(), ctrlNow);
                const double v = regulator.voltageAt(ctrlNow);
                const double freq = core::compensatedFrequency(
                    cfg.mainFreqHz, v, voltCtrl.target(), vThreshold);
                f += ckptCtrl.target() + bitsOf(v) + bitsOf(freq);
            }
            counts.fold[Ctrl] ^= f;
        });
    }
    counts.l0Misses = checkerTiming.l0Misses();
    return counts;
}

} // namespace perfbench
