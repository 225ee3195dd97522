/**
 * @file
 * The single home of the load-store-log byte arithmetic.
 *
 * Two consumers must agree byte-for-byte on how much log space a
 * memory access can take: the admission gate in System::commitBatch,
 * whose exact per-op bytes decide the capacity cut, and the static
 * effect summaries (analysis/effects.hh) whose per-run bounds the
 * gate tries first.  The worst-case math lives in
 * analysis::storeLogBound / uopLogBound (the analysis library cannot
 * see core headers); this header maps a SystemConfig onto those
 * analysis::EffectParams and adds the exact (line-copy-aware) cost
 * of the next access, so core code never re-derives an entry size by
 * hand.
 */

#ifndef PARADOX_CORE_LOGBYTES_HH
#define PARADOX_CORE_LOGBYTES_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "analysis/effects.hh"
#include "core/config.hh"

namespace paradox
{
namespace core
{

/**
 * The log byte geometry of @p cfg as analysis-side EffectParams
 * (@p lineBytes comes from the memory hierarchy, not the config).
 */
inline analysis::EffectParams
logEffectParams(const SystemConfig &cfg, unsigned lineBytes)
{
    analysis::EffectParams p;
    p.loadEntryBytes = cfg.log.loadEntryBytes;
    p.storeEntryBytes = cfg.log.storeEntryBytes;
    p.storeOldValueBytes = cfg.log.storeOldValueBytes;
    p.lineCopyBytes = cfg.log.lineCopyBytes;
    p.lineBytes = lineBytes;
    p.lineGranularityRollback = cfg.lineGranularityRollback;
    p.rollbackSupported = cfg.rollbackSupported;
    return p;
}

/**
 * Exact log bytes a store of @p size bytes at @p addr appends right
 * now: the entry plus, under line-granularity rollback, one line
 * copy per touched line for which @p isCopied(line) is still false.
 */
template <typename IsCopied>
std::size_t
storeLogBytes(const analysis::EffectParams &p, std::uint64_t addr,
              unsigned size, IsCopied &&isCopied)
{
    std::size_t bytes = p.storeEntryBytes;
    if (p.lineGranularityRollback) {
        const std::uint64_t lb = p.lineBytes;
        const std::uint64_t first = addr & ~(lb - 1);
        const std::uint64_t last = (addr + size - 1) & ~(lb - 1);
        for (std::uint64_t line = first; line <= last; line += lb)
            if (!isCopied(line))
                bytes += p.lineCopyBytes;
    } else if (p.rollbackSupported) {
        bytes += p.storeOldValueBytes;
    }
    return bytes;
}

/**
 * Exact log bytes micro-op @p u appends when it executes next from
 * @p state: a load entry, a store's storeLogBytes() at its effective
 * address, or nothing.
 */
template <typename IsCopied>
std::size_t
uopLogBytes(const analysis::EffectParams &p, const isa::MicroOp &u,
            const isa::ArchState &state, IsCopied &&isCopied)
{
    if (u.isLoad)
        return p.loadEntryBytes;
    if (u.isStore)
        return storeLogBytes(p, isa::effectiveAddr(u, state), u.memSize,
                             isCopied);
    return 0;
}

/**
 * Worst-case log bytes of any single memory micro-op up to
 * @p maxSize access bytes -- the bound the pre-effect-summary
 * superblock gate used for every op.
 */
inline std::size_t
worstUopLogBytes(const analysis::EffectParams &p, unsigned maxSize = 8)
{
    return std::max<std::size_t>(p.loadEntryBytes,
                                 analysis::storeLogBound(maxSize, p));
}

} // namespace core
} // namespace paradox

#endif // PARADOX_CORE_LOGBYTES_HH
