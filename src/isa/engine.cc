#include "isa/engine.hh"

#include "isa/decoded.hh"

namespace paradox
{
namespace isa
{

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

CommitRecord
makeCommitRecord(const Instruction &inst, const ExecResult &r)
{
    CommitRecord rec;
    static_cast<ExecResult &>(rec) = r;
    rec.inst = &inst;
    const SourceRegs s = decodeSources(inst);
    rec.srcA = s.a;
    rec.srcB = s.b;
    rec.srcC = s.c;
    return rec;
}

const char *
engineKindName(EngineKind kind)
{
    switch (kind) {
      case EngineKind::Reference: return "reference";
      case EngineKind::Decoded: return "decoded";
    }
    return "?";
}

bool
parseEngineKind(const std::string &name, EngineKind &out)
{
    if (name == "reference") {
        out = EngineKind::Reference;
    } else if (name == "decoded") {
        out = EngineKind::Decoded;
    } else {
        return false;
    }
    return true;
}

void
Engine::reset(ArchState &state, MemIf &mem) const
{
    loadProgram(prog_, state, mem);
}

MemPeek
ReferenceEngine::peekMem(const ArchState &state) const
{
    MemPeek p;
    const Instruction *inst = prog_.fetch(state.pc());
    if (!inst)
        return p;
    p.valid = true;
    const InstInfo &ii = inst->info();
    if (ii.isLoad || ii.isStore) {
        p.isLoad = ii.isLoad;
        p.isStore = ii.isStore;
        p.addr = state.readX(inst->rs1) + std::uint64_t(inst->imm);
        p.size = ii.memSize;
    }
    return p;
}

CommitRecord
ReferenceEngine::step(ArchState &state, MemIf &mem)
{
    const Addr pc = state.pc();
    CommitRecord r;
    static_cast<ExecResult &>(r) = isa::step(prog_, state, mem);
    if (!r.valid)
        return r;
    r.inst = prog_.fetch(pc);
    const SourceRegs s = decodeSources(*r.inst);
    r.srcA = s.a;
    r.srcB = s.b;
    r.srcC = s.c;
    return r;
}

std::unique_ptr<Engine>
makeEngine(EngineKind kind, const Program &prog)
{
    if (kind == EngineKind::Reference)
        return std::make_unique<ReferenceEngine>(prog);
    return std::make_unique<DecodedEngine>(prog);
}

} // namespace isa
} // namespace paradox
