#include "isa/arch_state.hh"

namespace paradox
{
namespace isa
{

void
ArchState::reset(Addr entry_pc)
{
    x_.fill(0);
    f_.fill(0);
    pc_ = entry_pc;
    fflags_ = 0;
}

std::uint64_t
ArchState::fingerprint() const
{
    // FNV-1a over every component; collision resistance is ample for
    // test oracles (real detection compares full state).
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (auto v : x_)
        mix(v);
    for (auto v : f_)
        mix(v);
    mix(pc_);
    mix(fflags_);
    return h;
}

void
ArchState::flipBit(RegCategory cat, unsigned idx, unsigned bit)
{
    const std::uint64_t mask = std::uint64_t(1) << (bit & 63);
    switch (cat) {
      case RegCategory::Integer:
        // Never flip x0: it is hard-wired, not a latch.
        x_[1 + idx % (numIntRegs - 1)] ^= mask;
        break;
      case RegCategory::Float:
        f_[idx % numFpRegs] ^= mask;
        break;
      case RegCategory::Flags:
        fflags_ ^= mask & 0x7;  // only the three defined flag bits
        break;
      case RegCategory::Misc:
        // PC corruption: keep it word-aligned so the checker fetches
        // *some* instruction, as a wild-jump fault would.
        pc_ ^= mask & ~Addr(instBytes - 1);
        break;
      default:
        break;
    }
}

void
ArchState::writeBit(RegCategory cat, unsigned idx, unsigned bit,
                    bool value)
{
    const std::uint64_t mask = std::uint64_t(1) << (bit & 63);
    switch (cat) {
      case RegCategory::Integer: {
        // Same mapping as flipBit: x0 is hard-wired, not a latch.
        std::uint64_t &reg = x_[1 + idx % (numIntRegs - 1)];
        reg = value ? reg | mask : reg & ~mask;
        break;
      }
      case RegCategory::Float: {
        std::uint64_t &reg = f_[idx % numFpRegs];
        reg = value ? reg | mask : reg & ~mask;
        break;
      }
      case RegCategory::Flags: {
        const std::uint64_t m = mask & 0x7;
        fflags_ = value ? fflags_ | m : fflags_ & ~m;
        break;
      }
      case RegCategory::Misc: {
        const Addr m = mask & ~Addr(instBytes - 1);
        pc_ = value ? pc_ | m : pc_ & ~m;
        break;
      }
      default:
        break;
    }
}

} // namespace isa
} // namespace paradox
