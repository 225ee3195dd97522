#include "analysis/costmodel.hh"

#include <algorithm>
#include <cstdio>
#include <queue>

#include "analysis/ai.hh"
#include "analysis/diagnostic.hh"
#include "analysis/passes.hh"
#include "isa/decoded.hh"

namespace paradox
{
namespace analysis
{

namespace
{

using I128 = __int128;

constexpr std::uint64_t kCycleCap = std::uint64_t(1) << 62;

std::uint64_t
satAdd(std::uint64_t a, std::uint64_t b)
{
    return a > kCycleCap - std::min(b, kCycleCap) ? kCycleCap : a + b;
}

std::uint64_t
satMul(std::uint64_t a, std::uint64_t b)
{
    const I128 p = I128(a) * b;
    return p > I128(kCycleCap) ? kCycleCap : std::uint64_t(p);
}

} // namespace

WorkloadCost
CostModel::compute(const isa::Program &prog, const CostParams &params)
{
    WorkloadCost c;
    c.program = prog.name();

    const Cfg cfg = Cfg::build(prog);
    const auto &blocks = cfg.blocks();
    const std::size_t nb = blocks.size();
    if (nb == 0)
        return c;
    const auto reachable = cfg.reachableBlocks();
    const auto ai = IntervalAnalysis::run(prog, cfg, reachable);

    c.converged = ai.converged();
    c.sweeps = ai.sweeps();
    c.loops = ai.loops().size();
    for (const auto &l : ai.loops())
        if (l.bounded())
            ++c.boundedLoops;

    for (const auto &r :
         mergeRegions(footprintRegions(prog, params.extraRegions)))
        c.footprintBytes = satAdd(c.footprintBytes, r.size);

    // An execution-count bound per block needs a reducible CFG with
    // every loop bounded and no statically-invisible control flow.
    c.bounded = ai.reducible() && c.converged;
    for (std::size_t b = 0; b < nb && c.bounded; ++b) {
        if (!reachable[b])
            continue;
        if (blocks[b].indirect || blocks[b].callReturnPoint ||
            blocks[b].fallsOffEnd ||
            ai.tripProduct(b) == unboundedTrips)
            c.bounded = false;
    }

    // Weighted instruction mix and the total-instruction bound.  The
    // per-instruction classes come from the decoded micro-op image --
    // the same pre-classified representation the production engine
    // executes -- so the cost bounds describe exactly what superblock
    // execution retires (the "decoded" lint pass cross-checks the
    // image against the instruction table and the CFG).
    const auto &code = prog.code();
    const auto dp = isa::DecodedProgram::get(prog);
    c.decodedUops = dp->size();
    c.decodedHash = dp->contentHash();
    for (std::size_t b = 0; b < nb; ++b) {
        if (!reachable[b])
            continue;
        const std::uint64_t weight =
            c.bounded ? ai.tripProduct(b) : 1;
        for (std::size_t i = blocks[b].first; i <= blocks[b].last;
             ++i)
            c.mix[std::size_t(dp->at(i).cls)] =
                satAdd(c.mix[std::size_t(dp->at(i).cls)], weight);
        if (c.bounded)
            c.maxDynInsts = satAdd(
                c.maxDynInsts, satMul(blocks[b].size(), weight));
    }

    std::uint64_t weightedCycles = 0;
    for (std::size_t k = 0; k < WorkloadCost::numClasses; ++k) {
        c.mixTotal = satAdd(c.mixTotal, c.mix[k]);
        weightedCycles = satAdd(
            weightedCycles,
            satMul(c.mix[k],
                   isa::checkerExecCycles(isa::InstClass(k))));
    }
    if (c.mixTotal)
        c.cyclesPerInst = double(weightedCycles) / double(c.mixTotal);
    c.segmentLength = params.segmentLength;
    c.checkerCyclesPerSegment = std::uint64_t(
        double(params.segmentLength) * c.cyclesPerInst + 0.5);
    if (c.bounded) {
        c.checkerCyclesTotal = weightedCycles;
        c.predictedSegments =
            params.segmentLength
                ? (c.maxDynInsts + params.segmentLength - 1) /
                      params.segmentLength
                : 0;
    }

    // Shortest committed-instruction path from the entry to a HALT
    // (or to an indirect jump / image end, past which no progress can
    // be claimed): Dijkstra over blocks, cost = instructions retired.
    {
        constexpr std::uint64_t inf = ~std::uint64_t(0);
        std::vector<std::uint64_t> dist(nb, inf);
        using QE = std::pair<std::uint64_t, std::size_t>;
        std::priority_queue<QE, std::vector<QE>, std::greater<QE>> q;
        dist[cfg.entry()] = 0;
        q.push({0, cfg.entry()});
        std::uint64_t best = inf;
        while (!q.empty()) {
            const auto [d, b] = q.top();
            q.pop();
            if (d != dist[b])
                continue;
            const bool terminal =
                code[blocks[b].last].op == isa::Opcode::HALT ||
                blocks[b].indirect || blocks[b].fallsOffEnd;
            if (terminal)
                best = std::min(best, d + blocks[b].size());
            for (std::size_t s : blocks[b].succs) {
                const std::uint64_t nd = d + blocks[b].size();
                if (nd < dist[s]) {
                    dist[s] = nd;
                    q.push({nd, s});
                }
            }
        }
        c.minDynInsts = best == inf ? 0 : best;
    }

    return c;
}

std::string
costJsonHeader()
{
    // Compact form (no space after ':' or ','): obs::jsonField only
    // recognizes keys immediately preceded by '{' or ','.
    return "{\"record\":\"header\",\"schema\":\"paradox-cost/1\"}";
}

std::string
costJsonLine(const WorkloadCost &c, unsigned scale)
{
    char cpi[32];
    std::snprintf(cpi, sizeof cpi, "%.4f", c.cyclesPerInst);
    std::string s = "{\"record\":\"cost\",\"program\":\"" +
                    jsonEscape(c.program) + "\"";
    auto num = [&](const char *key, std::uint64_t v) {
        s += ",\"" + std::string(key) +
             "\":" + std::to_string(v);
    };
    num("scale", scale);
    num("converged", c.converged ? 1 : 0);
    num("sweeps", c.sweeps);
    num("loops", c.loops);
    num("bounded_loops", c.boundedLoops);
    num("bounded", c.bounded ? 1 : 0);
    num("min_dyn_insts", c.minDynInsts);
    num("max_dyn_insts", c.maxDynInsts);
    num("footprint_bytes", c.footprintBytes);
    num("decoded_uops", c.decodedUops);
    num("decoded_hash", c.decodedHash);
    for (std::size_t k = 0; k < WorkloadCost::numClasses; ++k) {
        // "IntAlu" -> "mix_int_alu"
        std::string key = "mix_";
        for (const char *p = isa::className(isa::InstClass(k)); *p;
             ++p) {
            if (*p >= 'A' && *p <= 'Z') {
                if (key.back() != '_')
                    key += '_';
                key += char(*p - 'A' + 'a');
            } else {
                key += *p;
            }
        }
        num(key.c_str(), c.mix[k]);
    }
    num("mix_total", c.mixTotal);
    s += ",\"cycles_per_inst\":" + std::string(cpi);
    num("segment_length", c.segmentLength);
    num("checker_cycles_per_segment", c.checkerCyclesPerSegment);
    num("checker_cycles_total", c.checkerCyclesTotal);
    num("predicted_segments", c.predictedSegments);
    s += "}";
    return s;
}

} // namespace analysis
} // namespace paradox
