/**
 * @file
 * Static memory-dependence analysis over access addresses.
 *
 * On top of the interval fixpoint (ai.hh) this derives one
 * MemAccess descriptor per load/store: the syntactic base register
 * and immediate offset, a block-local symbolic epoch of the base
 * (so two accesses off the same unmodified register provably share
 * a base even when its interval is wide), and the value-set
 * interval of the effective address.  The descriptors feed
 *
 *  - an alias oracle (must / may / no) for access pairs,
 *  - the "memdep" lint pass: redundant-load, dead-memory-store and
 *    always-overlapping-access diagnostics, and
 *  - the `isa_lint --memdep` JSONL export, which pairs the oracle's
 *    pair census with the per-run effect summaries (effects.hh)
 *    consumed by System::commitBatch and trace_report --memdep.
 */

#ifndef PARADOX_ANALYSIS_MEMDEP_HH
#define PARADOX_ANALYSIS_MEMDEP_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/ai.hh"
#include "analysis/effects.hh"
#include "analysis/passes.hh"

namespace paradox
{
namespace analysis
{

/** Value-set descriptor of one static load or store. */
struct MemAccess
{
    std::size_t index = 0;    //!< instruction index
    std::size_t block = 0;    //!< owning CFG block id
    bool isStore = false;
    unsigned size = 0;        //!< access bytes
    std::uint8_t baseReg = 0; //!< syntactic base (rs1)
    /**
     * Block-local definition count of baseReg before this access.
     * Two accesses in the same block with equal (baseReg, baseEpoch)
     * compute their addresses from the very same base value, whatever
     * its interval; epochs are meaningless across blocks.
     */
    std::uint32_t baseEpoch = 0;
    std::int64_t offset = 0;  //!< immediate displacement
    Interval addr;            //!< interval of base + offset
};

/** Alias verdict for a pair of accesses. */
enum class AliasKind : std::uint8_t
{
    NoAlias,   //!< byte extents provably never overlap
    MayAlias,  //!< neither separation nor coincidence provable
    MustAlias, //!< byte extents overlap on every execution
};

const char *aliasKindName(AliasKind k);

/** The alias oracle: every reachable access, queryable pairwise. */
class MemDep
{
  public:
    static MemDep run(const Context &ctx, const IntervalAnalysis &ai);

    const std::vector<MemAccess> &accesses() const { return accesses_; }

    /** Classify the pair; symmetric. */
    AliasKind alias(const MemAccess &a, const MemAccess &b) const;

    struct PairCounts
    {
        std::uint64_t no = 0;
        std::uint64_t may = 0;
        std::uint64_t must = 0;
    };

    /** Census over all unordered access pairs. */
    PairCounts pairCounts() const;

  private:
    std::vector<MemAccess> accesses_;
};

/**
 * The "memdep" lint pass (requires a converged interval analysis):
 *
 *  - redundant-load (info): a load provably re-reads exactly the
 *    bytes an earlier load in the same block fetched, with no
 *    possibly-overlapping store in between.
 *  - dead-memory-store (warning): a store whose bytes are fully
 *    overwritten by a later store in the same block before any
 *    possibly-overlapping load.
 *  - always-overlapping-access (warning): two accesses that provably
 *    overlap on every execution but with different byte extents --
 *    mixed-granularity traffic to the same memory.
 */
void checkMemDep(const Context &ctx, const IntervalAnalysis &ai,
                 std::vector<Diagnostic> &diags);

/** @{ `paradox-memdep/1` JSONL model (isa_lint --memdep). */
std::string memdepJsonHeader();
std::string memdepJsonLine(const std::string &workload, unsigned scale,
                           const EffectSummary &es,
                           const MemDep::PairCounts &pairs,
                           std::size_t staticAccesses);
/** @} */

} // namespace analysis
} // namespace paradox

#endif // PARADOX_ANALYSIS_MEMDEP_HH
