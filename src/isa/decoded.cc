#include "isa/decoded.hh"

#include <mutex>
#include <unordered_map>

#include "isa/decoded_run.hh"

namespace paradox
{
namespace isa
{

const CommitRecord rundetail::blankRecord{};

SourceRegs
decodeSources(const Instruction &inst)
{
    std::uint8_t enc[3];
    const auto srcs = inst.sources();
    for (unsigned i = 0; i < 3; ++i)
        enc[i] = srcs[i].file == Operand::None ? srcNone
                 : srcs[i].file == Operand::Fp
                     ? std::uint8_t(srcs[i].idx | srcFpBit)
                     : srcs[i].idx;
    return {enc[0], enc[1], enc[2]};
}

namespace
{

std::uint64_t
hashCode(const Program &prog)
{
    // FNV-1a over the instruction words.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (const Instruction &inst : prog.code()) {
        mix(std::uint64_t(std::uint8_t(inst.op)) |
            (std::uint64_t(inst.rd) << 8) |
            (std::uint64_t(inst.rs1) << 16) |
            (std::uint64_t(inst.rs2) << 24));
        mix(std::uint64_t(inst.imm));
    }
    mix(prog.code().size());
    return h;
}

} // namespace

DecodedProgram::DecodedProgram(const Program &prog)
    : prog_(prog), hash_(hashCode(prog))
{
    const std::vector<Instruction> &code = prog.code();
    uops_.resize(code.size());

    for (std::size_t i = 0; i < code.size(); ++i) {
        const Instruction &inst = code[i];
        const InstInfo &ii = instInfo(inst.op);
        MicroOp &u = uops_[i];

        u.op = inst.op;
        u.rd = inst.rd;
        u.rs1 = inst.rs1;
        u.rs2 = inst.rs2;
        u.cls = ii.cls;
        u.memSize = ii.memSize;
        u.isLoad = ii.isLoad;
        u.isStore = ii.isStore;
        u.isBranch = ii.isBranch;
        u.isJump = ii.isJump;
        u.imm = inst.imm;
        u.inst = &inst;

        const SourceRegs s = decodeSources(inst);
        u.srcA = s.a;
        u.srcB = s.b;
        u.srcC = s.c;

        // Resolve static control-transfer targets to micro-op
        // indices.  Branch/JAL destinations are absolute byte
        // addresses; anything misaligned or outside the image is a
        // wild jump and keeps the badTarget sentinel, surfacing as a
        // failed fetch on the following step exactly as the
        // reference executor behaves.  JALR targets are dynamic.
        u.target = badTarget;
        if (ii.isBranch || inst.op == Opcode::JAL) {
            const Addr t = static_cast<Addr>(inst.imm);
            if (t % instBytes == 0 && t / instBytes < code.size())
                u.target = std::uint32_t(t / instBytes);
        }
    }

    // Superblock run lengths: backward scan to the next control
    // transfer or HALT.  These boundaries are exactly where the CFG
    // in src/analysis/ ends a basic block on an outgoing transfer;
    // isa_lint cross-checks the two representations.
    for (std::size_t i = uops_.size(); i-- > 0;) {
        MicroOp &u = uops_[i];
        const bool ends_run =
            u.isBranch || u.isJump || u.op == Opcode::HALT;
        if (ends_run || i + 1 == uops_.size())
            u.runLen = 1;
        else
            u.runLen = uops_[i + 1].runLen + 1;
    }
}

std::vector<std::uint64_t>
DecodedProgram::classCounts() const
{
    std::vector<std::uint64_t> counts(
        unsigned(InstClass::NumClasses), 0);
    for (const MicroOp &u : uops_)
        ++counts[unsigned(u.cls)];
    return counts;
}

std::shared_ptr<const DecodedProgram>
DecodedProgram::get(const Program &prog)
{
    // Decode memo, keyed by program identity and validated by a
    // content hash so a different Program recycled at the same
    // address re-decodes.  Guarded for the parallel experiment
    // runner; entries are weak so the cache never outlives its
    // users.
    static std::mutex mu;
    static std::unordered_map<const Program *,
                              std::weak_ptr<const DecodedProgram>>
        cache;

    std::lock_guard<std::mutex> lock(mu);
    auto it = cache.find(&prog);
    if (it != cache.end()) {
        if (auto dp = it->second.lock()) {
            if (dp->contentHash() == hashCode(prog))
                return dp;
        }
    }
    auto dp = std::make_shared<const DecodedProgram>(prog);
    cache[&prog] = dp;
    // Opportunistically drop expired entries so the map stays small
    // across long campaign runs.
    if (cache.size() > 64) {
        for (auto e = cache.begin(); e != cache.end();) {
            if (e->second.expired())
                e = cache.erase(e);
            else
                ++e;
        }
    }
    return dp;
}

} // namespace isa
} // namespace paradox
