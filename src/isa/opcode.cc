#include "isa/opcode.hh"

#include "sim/logging.hh"

namespace paradox
{
namespace isa
{

namespace detail
{

void
instInfoOutOfRange()
{
    panic("instInfo: opcode out of range");
}

} // namespace detail

const char *
mnemonic(Opcode op)
{
    return instInfo(op).mnemonic;
}

const char *
className(InstClass cls)
{
    static const char *const names[] = {
#define PARADOX_X(name, cycles) #name,
        PARADOX_INST_CLASSES(PARADOX_X)
#undef PARADOX_X
    };
    auto idx = static_cast<unsigned>(cls);
    if (idx >= static_cast<unsigned>(InstClass::NumClasses))
        panic("className: class out of range");
    return names[idx];
}

} // namespace isa
} // namespace paradox
