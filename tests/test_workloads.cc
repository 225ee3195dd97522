/**
 * @file
 * Workload functional correctness: every PDX64 kernel must reproduce
 * the checksum computed by its independent C++ golden reference, at
 * two scales, and must be deterministic across rebuilds.
 */

#include <gtest/gtest.h>

#include "isa_oracle.hh"
#include "mem/memory.hh"
#include "workloads/workload.hh"

namespace
{

using namespace paradox;

/** Run @p w functionally to completion; return the stored checksum. */
std::uint64_t
runFunctional(const workloads::Workload &w,
              std::uint64_t max_insts = 200'000'000)
{
    mem::SimpleMemory memory;
    isa::ArchState state;
    isa::loadProgram(w.program, state, memory);
    for (std::uint64_t i = 0; i < max_insts; ++i) {
        isa::ExecResult r = isa::step(w.program, state, memory);
        EXPECT_TRUE(r.valid) << w.name << ": wild fetch at pc "
                             << state.pc();
        if (!r.valid)
            return ~std::uint64_t(0);
        if (r.halted)
            return memory.read(workloads::resultAddr, 8);
    }
    ADD_FAILURE() << w.name << ": did not halt";
    return ~std::uint64_t(0);
}

class WorkloadCorrectness
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadCorrectness, MatchesGoldenReference)
{
    workloads::Workload w = workloads::build(GetParam(), 1);
    EXPECT_EQ(runFunctional(w), w.expectedResult) << w.name;
}

TEST_P(WorkloadCorrectness, MatchesGoldenReferenceAtLargerScale)
{
    workloads::Workload w = workloads::build(GetParam(), 2);
    EXPECT_EQ(runFunctional(w), w.expectedResult) << w.name;
}

TEST_P(WorkloadCorrectness, BuildIsDeterministic)
{
    workloads::Workload a = workloads::build(GetParam(), 1);
    workloads::Workload b = workloads::build(GetParam(), 1);
    EXPECT_EQ(a.expectedResult, b.expectedResult);
    ASSERT_EQ(a.program.size(), b.program.size());
    EXPECT_EQ(a.program.data().size(), b.program.data().size());
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadCorrectness,
    ::testing::ValuesIn(paradox::workloads::allNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(WorkloadRegistry, AllNamesBuild)
{
    EXPECT_EQ(workloads::allNames().size(), 21u);
    EXPECT_EQ(workloads::specNames().size(), 19u);
}

TEST(WorkloadRegistry, LargeCodeWorkloadsExceedCheckerL0)
{
    for (const auto &name : workloads::allNames()) {
        workloads::Workload w = workloads::build(name, 1);
        if (w.largeCode) {
            EXPECT_GT(w.program.codeBytes(), 8u * 1024)
                << name << " is marked largeCode";
        }
    }
}

} // namespace
