/**
 * @file
 * Substrate micro-benchmarks (google-benchmark): the hot primitives
 * of the simulator itself -- cache lookups, SECDED coding, branch prediction, DRAM timing, RNG, and the
 * experiment-runner fan-out overhead.
 */

#include <benchmark/benchmark.h>

#include "cpu/branch_pred.hh"
#include "exp/runner.hh"
#include "exp/sink.hh"
#include "isa/builder.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/memory.hh"
#include "mem/secded.hh"
#include "sim/rng.hh"

namespace
{

using namespace paradox;

void
BM_RngNext(benchmark::State &state)
{
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void
BM_RngGeometric(benchmark::State &state)
{
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.geometric(1e-4));
}
BENCHMARK(BM_RngGeometric);

void
BM_SecdedEncode(benchmark::State &state)
{
    std::uint64_t v = 0xdeadbeefcafef00dULL;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mem::Secded::encode(v));
        ++v;
    }
}
BENCHMARK(BM_SecdedEncode);

void
BM_SecdedDecodeClean(benchmark::State &state)
{
    auto w = mem::Secded::encode(0x123456789abcdef0ULL);
    for (auto _ : state)
        benchmark::DoNotOptimize(mem::Secded::decode(w));
}
BENCHMARK(BM_SecdedDecodeClean);

void
BM_CacheHit(benchmark::State &state)
{
    mem::CacheParams params;
    mem::Cache cache(params);
    cache.access(0x1000, false, 0);
    Tick now = 1;
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.access(0x1000, false, ++now));
}
BENCHMARK(BM_CacheHit);

void
BM_CacheMissStream(benchmark::State &state)
{
    mem::CacheParams params;
    mem::Cache cache(params);
    Addr addr = 0;
    Tick now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addr, false, ++now));
        addr += 64 * 1024;  // always a fresh set/tag
    }
}
BENCHMARK(BM_CacheMissStream);

void
BM_DramAccess(benchmark::State &state)
{
    mem::Dram dram;
    Addr addr = 0;
    Tick now = 0;
    for (auto _ : state) {
        now = dram.access(addr, false, now);
        addr += 4096;
        benchmark::DoNotOptimize(now);
    }
}
BENCHMARK(BM_DramAccess);

void
BM_PredictorLookup(benchmark::State &state)
{
    cpu::TournamentPredictor pred;
    isa::Instruction br;
    br.op = isa::Opcode::BNE;
    Addr pc = 0;
    for (auto _ : state) {
        pred.predict(pc, br);
        benchmark::DoNotOptimize(
            pred.update(pc, br, (pc & 4) != 0, pc + 16));
        pc = (pc + 4) & 0xffff;
    }
}
BENCHMARK(BM_PredictorLookup);

void
BM_MemoryWrite(benchmark::State &state)
{
    mem::SimpleMemory memory;
    Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(memory.write(addr, 8, addr));
        addr = (addr + 8) & 0xfffff;
    }
}
BENCHMARK(BM_MemoryWrite);

void
BM_RunnerFanout(benchmark::State &state)
{
    // Pool setup + ordered-result plumbing for trivial jobs: the
    // fixed overhead a sweep pays on top of its simulations.
    exp::RunnerOptions opt;
    opt.jobs = unsigned(state.range(0));
    exp::Runner runner(opt);
    for (auto _ : state) {
        std::vector<int> out = runner.map<int>(
            64, [](std::size_t i) { return int(i) * 3; });
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) * 64);
}
BENCHMARK(BM_RunnerFanout)->Arg(1)->Arg(4)->Arg(8);

void
BM_RunOneSmallest(benchmark::State &state)
{
    // A whole ExperimentSpec round trip on the smallest workload:
    // the per-job floor of any campaign.
    exp::ExperimentSpec spec;
    spec.workload = "bitcount";
    spec.scale = 1;
    for (auto _ : state) {
        exp::RunOutcome out = exp::runOne(spec);
        benchmark::DoNotOptimize(out.result.time);
    }
}
BENCHMARK(BM_RunOneSmallest);

void
BM_RecordJson(benchmark::State &state)
{
    exp::ExperimentSpec spec;
    exp::RunOutcome out = exp::runOne(spec);
    for (auto _ : state)
        benchmark::DoNotOptimize(exp::recordJson(spec, out));
}
BENCHMARK(BM_RecordJson);

} // namespace

BENCHMARK_MAIN();
