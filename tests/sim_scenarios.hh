/**
 * @file
 * The System-level scenario matrix shared by test_system_differential
 * (full-size batches vs batches of one) and test_sim_golden (a
 * checked-in digest table): every mode and fault mechanism the
 * simulator has, each applied on top of a default ExperimentSpec.
 */

#ifndef PARADOX_TESTS_SIM_SCENARIOS_HH
#define PARADOX_TESTS_SIM_SCENARIOS_HH

#include <functional>
#include <regex>
#include <string>
#include <vector>

#include "core/system.hh"
#include "exp/sink.hh"
#include "exp/spec.hh"

namespace paradox
{
namespace testing_support
{

struct Scenario
{
    const char *name;
    std::function<void(exp::ExperimentSpec &)> apply;
};

inline const std::vector<Scenario> &
scenarios()
{
    using core::Mode;
    static const std::vector<Scenario> all = {
        {"baseline", [](exp::ExperimentSpec &s) { s.mode = Mode::Baseline; }},
        {"detect",
         [](exp::ExperimentSpec &s) { s.mode = Mode::DetectionOnly; }},
        {"paramedic",
         [](exp::ExperimentSpec &s) { s.mode = Mode::ParaMedic; }},
        {"paradox", [](exp::ExperimentSpec &s) { s.mode = Mode::ParaDox; }},
        {"paradox_dvfs", [](exp::ExperimentSpec &s) { s.dvfs = true; }},
        {"rate_1e4", [](exp::ExperimentSpec &s) { s.faultRate = 1e-4; }},
        {"paramedic_rate_1e4",
         [](exp::ExperimentSpec &s) {
             s.mode = Mode::ParaMedic;
             s.faultRate = 1e-4;
         }},
        {"ecc",
         [](exp::ExperimentSpec &s) {
             s.eccRate = 1e-3;
             s.configure = [](core::SystemConfig &c) {
                 c.memoryEccDueRate = 1e-4;
             };
         }},
        // DUEs with no correctable upsets: only the DUE gap is armed.
        {"ecc_due_only",
         [](exp::ExperimentSpec &s) {
             s.configure = [](core::SystemConfig &c) {
                 c.memoryEccDueRate = 1e-4;
             };
         }},
        {"chip", [](exp::ExperimentSpec &s) { s.chipSeed = 202; }},
        {"main_rate", [](exp::ExperimentSpec &s) { s.mainCoreRate = 1e-4; }},
    };
    return all;
}

/**
 * Result record + stats registry of one run, minus the batching
 * counters: main.sb_* describe how the host batched commits, not
 * anything simulated.
 */
inline std::string
simDigest(const exp::ExperimentSpec &spec, const exp::RunOutcome &out,
          const std::string &registry)
{
    static const std::regex batching(",\"main\\.sb_[a-z_]+\":[^,}]*");
    return exp::recordJson(spec, out) + "\n" +
           std::regex_replace(registry, batching, "");
}

} // namespace testing_support
} // namespace paradox

#endif // PARADOX_TESTS_SIM_SCENARIOS_HH
