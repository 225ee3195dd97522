/**
 * @file
 * Per-run memory effect summaries over a decoded micro-op image.
 *
 * A "run" is a superblock: the maximal straight-line micro-op
 * sequence from some index through the next control transfer or HALT
 * (isa::MicroOp::runLen).  For every run the summary records the
 * exact number of load and store micro-ops and a *sound* worst-case
 * bound on the log bytes executing the run once can append to the
 * open checkpoint segment; per-uop tail bounds (bytes from a given
 * index through the end of its run) let a consumer positioned
 * mid-run -- e.g. System::commitBatch resuming after a capacity
 * cut -- admit the rest of the run against the open segment's
 * headroom in one check.
 *
 * Log byte sizes are inputs (EffectParams), not core/ constants: the
 * analysis library deliberately links only paradox_isa, so the
 * shared core-side helper (core/logbytes.hh) mirrors the same
 * arithmetic and tests pin the two together.
 */

#ifndef PARADOX_ANALYSIS_EFFECTS_HH
#define PARADOX_ANALYSIS_EFFECTS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "isa/decoded.hh"

namespace paradox
{
namespace analysis
{

/** Log-geometry inputs (mirrors core::LogParams + rollback mode). */
struct EffectParams
{
    unsigned loadEntryBytes = 16;
    unsigned storeEntryBytes = 16;
    unsigned storeOldValueBytes = 8;
    unsigned lineCopyBytes = 80;
    unsigned lineBytes = 64;              //!< rollback copy granule
    bool lineGranularityRollback = true;  //!< ParaDox line copies
    bool rollbackSupported = true;        //!< false = DetectionOnly
};

/**
 * Most cache lines a @p memSize -byte access can span: misaligned
 * accesses straddle one boundary, so two lines for any multi-byte
 * access narrower than a line, one for a single byte.
 */
inline unsigned
worstLinesSpanned(unsigned memSize, unsigned lineBytes)
{
    if (memSize <= 1)
        return memSize;
    return (memSize - 2) / lineBytes + 2;
}

/**
 * Sound worst-case log bytes one store of @p memSize bytes appends:
 * the entry itself plus, under line-granularity rollback, one line
 * copy per spanned line (assuming no line was copied earlier in the
 * checkpoint), or the old-value word under word-granularity undo.
 */
inline std::size_t
storeLogBound(unsigned memSize, const EffectParams &p)
{
    std::size_t bytes = p.storeEntryBytes;
    if (p.lineGranularityRollback)
        bytes += std::size_t(worstLinesSpanned(memSize, p.lineBytes)) *
                 p.lineCopyBytes;
    else if (p.rollbackSupported)
        bytes += p.storeOldValueBytes;
    return bytes;
}

/** Sound worst-case log bytes one micro-op appends (0 if not memory). */
inline std::size_t
uopLogBound(const isa::MicroOp &u, const EffectParams &p)
{
    if (u.isLoad)
        return p.loadEntryBytes;
    if (u.isStore)
        return storeLogBound(u.memSize, p);
    return 0;
}

/** Static memory effects of one superblock run. */
struct RunSummary
{
    std::uint32_t start = 0;  //!< first micro-op index
    std::uint32_t len = 0;    //!< micro-ops in the run
    std::uint32_t loads = 0;  //!< exact load micro-op count
    std::uint32_t stores = 0; //!< exact store micro-op count
    std::uint64_t logBoundBytes = 0; //!< sound worst-case log bytes
};

/**
 * The per-run effect summaries of one decoded image, keyed to its
 * content hash so consumers (trace_report --memdep, the superblock
 * gate) can reject a stale model.
 */
class EffectSummary
{
  public:
    static EffectSummary build(const isa::DecodedProgram &dp,
                               const EffectParams &params);

    /** Runs in start order; every run start has exactly one entry. */
    const std::vector<RunSummary> &runs() const { return runs_; }

    /**
     * Sound worst-case log bytes from micro-op @p idx (inclusive)
     * through the end of its straight-line run.  For a run start
     * this equals the run's logBoundBytes.
     */
    std::uint64_t
    tailBound(std::size_t idx) const
    {
        return idx < tail_.size() ? tail_[idx] : 0;
    }

    /** Worst-case bytes of the single micro-op @p idx. */
    std::uint64_t
    uopBound(std::size_t idx) const
    {
        return idx < uop_.size() ? uop_[idx] : 0;
    }

    std::uint64_t maxRunBytes() const { return maxRunBytes_; }
    std::uint64_t maxUopBytes() const { return maxUopBytes_; }
    std::uint64_t staticLoads() const { return staticLoads_; }
    std::uint64_t staticStores() const { return staticStores_; }

    /** @{ Identity of the decoded image the summary was built over. */
    std::uint64_t decodedUops() const { return decodedUops_; }
    std::uint64_t decodedHash() const { return decodedHash_; }
    /** @} */

    const EffectParams &params() const { return params_; }

  private:
    std::vector<RunSummary> runs_;
    std::vector<std::uint64_t> tail_;
    std::vector<std::uint32_t> uop_;
    std::uint64_t maxRunBytes_ = 0;
    std::uint64_t maxUopBytes_ = 0;
    std::uint64_t staticLoads_ = 0;
    std::uint64_t staticStores_ = 0;
    std::uint64_t decodedUops_ = 0;
    std::uint64_t decodedHash_ = 0;
    EffectParams params_;
};

} // namespace analysis
} // namespace paradox

#endif // PARADOX_ANALYSIS_EFFECTS_HH
