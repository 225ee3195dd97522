#include "exp/spec.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "analysis/vuln.hh"
#include "obs/trace.hh"
#include "obs/trace_writer.hh"
#include "power/undervolt_data.hh"
#include "sim/logging.hh"

namespace paradox
{
namespace exp
{

namespace
{

DistSummary
summarize(const stats::Distribution &d)
{
    DistSummary s;
    s.mean = d.mean();
    s.min = d.min();
    s.max = d.max();
    s.count = d.count();
    return s;
}

} // namespace

core::SystemConfig
buildConfig(const ExperimentSpec &spec)
{
    core::SystemConfig config = core::SystemConfig::forMode(spec.mode);
    config.seed = spec.seed;
    if (spec.checkers)
        config.checkers.count = spec.checkers;
    if (spec.maxCheckpoint) {
        config.checkpointAimd.maxLength = spec.maxCheckpoint;
        config.checkpointAimd.initial = std::min(
            config.checkpointAimd.initial, spec.maxCheckpoint);
    }
    if (spec.timeoutFactor)
        config.checkerTimeoutFactor = spec.timeoutFactor;
    config.memoryEccFaultRate = spec.eccRate;
    if (spec.escalate)
        config.enableEscalation();
    if (spec.configure)
        spec.configure(config);

    if (spec.pinChecker >= int(config.checkers.count))
        throw std::invalid_argument(
            "pinned checker " + std::to_string(spec.pinChecker) +
            " out of range (only " +
            std::to_string(config.checkers.count) + " checkers)");
    return config;
}

void
armSystem(core::System &system, const ExperimentSpec &spec,
          const isa::Program &program)
{
    const core::SystemConfig &config = system.config();
    // Chip mode: sample this chip's persistent fault map.  The
    // voltage->probability shape is the workload's own undervolt
    // profile, so chip-mode and ambient-mode runs share calibration.
    std::shared_ptr<const faults::ChipModel> chip;
    if (spec.chipSeed != 0) {
        faults::ChipConfig cc;
        cc.chipSeed = spec.chipSeed;
        cc.weakCells = spec.weakCells;
        cc.checkerCount = config.checkers.count;
        cc.logRows = unsigned(config.log.segmentBytes /
                              config.log.loadEntryBytes);
        cc.vminSigma = spec.vminSigma;
        cc.shape = power::errorModelParams(spec.workload);
        chip = std::make_shared<faults::ChipModel>(cc);
    }
    if (spec.supplyVoltage > 0.0) {
        if (spec.dvfs)
            throw std::invalid_argument(
                "supplyVoltage conflicts with dvfs (the AIMD "
                "controller owns the rail)");
        if (!chip)
            throw std::invalid_argument(
                "supplyVoltage requires chip mode (chipSeed != 0)");
    }

    if (spec.dvfs) {
        system.enableDvfs(power::errorModelParams(spec.workload));
        if (chip)
            // Replace the uniform pair: chip mode needs an injector
            // per site class so every weak cell is reachable.
            system.setFaultPlan(faults::chipPlan(
                spec.seed, spec.persistence, spec.pinChecker));
    } else if (chip) {
        system.setFaultPlan(faults::chipPlan(
            spec.seed, spec.persistence, spec.pinChecker));
    } else if (spec.faultRate > 0.0) {
        system.setFaultPlan(faults::uniformPlan(
            spec.faultRate, spec.seed, spec.persistence,
            spec.pinChecker));
    }
    if (chip) {
        // Weak cells in the main-core domain flip its committed
        // state through the same plan machinery (ambient: the main
        // core is one physical domain, never pinned to a checker).
        system.setMainCoreFaultPlan(faults::chipPlan(
            spec.seed * 31 + 7, spec.persistence, -1));
    } else if (spec.mainCoreRate > 0.0) {
        faults::FaultConfig fc;
        fc.kind = faults::FaultKind::RegisterBitFlip;
        fc.rate = spec.mainCoreRate;
        fc.seed = spec.seed * 31 + 7;
        faults::FaultPlan plan;
        plan.add(fc);
        system.setMainCoreFaultPlan(std::move(plan));
    }
    if (chip) {
        system.setChipModel(chip);
        if (spec.supplyVoltage > 0.0)
            system.setSupplyVoltage(spec.supplyVoltage);
    }
    if (spec.vuln)
        // The result word is architectural output beyond the declared
        // footprint; everything else follows from the program.
        system.setVulnModel(analysis::VulnAnalysis::build(
            program, {{workloads::resultAddr, 8, "result"}}));
}

RunOutcome
summarizeRun(core::System &system, core::RunResult result,
             std::uint64_t expected)
{
    RunOutcome out;
    out.result = std::move(result);
    out.finalValue = system.memory().read(workloads::resultAddr, 8);
    out.expected = expected;
    out.correct = out.result.halted && out.finalValue == out.expected;
    out.eccCorrected = system.eccCorrected();
    out.rollbackNs = summarize(system.rollbackTimesNs());
    out.wastedNs = summarize(system.wastedExecNs());
    out.ckptLen = summarize(system.checkpointLengths());
    return out;
}

const WorkloadImage &
workloadImage(const std::string &name, unsigned scale)
{
    const auto &names = workloads::allNames();
    if (std::find(names.begin(), names.end(), name) == names.end())
        throw std::invalid_argument("unknown workload '" + name + "'");
    const std::pair<std::string, unsigned> key(name,
                                               std::max(scale, 1u));

    static std::mutex mu;
    static std::map<std::pair<std::string, unsigned>,
                    std::unique_ptr<const WorkloadImage>>
        images;
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = images.find(key);
        if (it != images.end())
            return *it->second;
    }
    // Built unlocked, so a fork (runIsolated) never inherits the
    // lock held across a build.  Threads racing on one key each
    // build; the first insert wins and the rest are dropped.
    auto image = std::make_unique<WorkloadImage>();
    image->workload = workloads::build(key.first, key.second);
    image->decoded = isa::DecodedProgram::get(image->workload.program);
    std::lock_guard<std::mutex> lock(mu);
    return *images.try_emplace(key, std::move(image)).first->second;
}

RunOutcome
runOne(const ExperimentSpec &spec)
{
    const workloads::Workload &w =
        workloadImage(spec.workload, spec.scale).workload;
    core::System system(buildConfig(spec), w.program);
    armSystem(system, spec, w.program);

    // Built only for a traced run: the sink reserves its whole event
    // buffer up front.
    std::optional<obs::TraceSink> trace;
    if (!spec.traceFile.empty()) {
        trace.emplace();
        system.setTracer(&*trace, Tick(spec.traceMetricsUs) * ticksPerUs);
    }

    core::RunResult result = system.run(spec.limits);
    RunOutcome out =
        summarizeRun(system, std::move(result), w.expectedResult);
    if (trace) {
        const std::string tool =
            spec.label.empty() ? spec.workload : spec.label;
        if (!obs::writeChromeJsonFile(*trace, spec.traceFile, tool))
            throw std::runtime_error("cannot write trace '" +
                                     spec.traceFile + "'");
        const std::string jsonl = obs::traceJsonlPath(spec.traceFile);
        if (!obs::writeTraceJsonlFile(*trace, jsonl, tool))
            throw std::runtime_error("cannot write trace '" + jsonl +
                                     "'");
        out.tracePath = spec.traceFile;
        if (trace->dropped())
            warn("trace '" + spec.traceFile + "' dropped " +
                 std::to_string(trace->dropped()) +
                 " events (buffer full)");
    }
    if (spec.observe)
        spec.observe(system, out);
    return out;
}

std::string
tracePathForJob(const std::string &dir, std::size_t index)
{
    char name[32];
    std::snprintf(name, sizeof name, "run-%04zu.json", index);
    if (dir.empty() || dir.back() == '/')
        return dir + name;
    return dir + "/" + name;
}

bool
parseMode(const std::string &name, core::Mode &out)
{
    if (name == "baseline")
        out = core::Mode::Baseline;
    else if (name == "detect")
        out = core::Mode::DetectionOnly;
    else if (name == "paramedic")
        out = core::Mode::ParaMedic;
    else if (name == "paradox")
        out = core::Mode::ParaDox;
    else
        return false;
    return true;
}

} // namespace exp
} // namespace paradox
