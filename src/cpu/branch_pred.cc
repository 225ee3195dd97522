#include "cpu/branch_pred.hh"

#include "sim/logging.hh"

namespace paradox
{
namespace cpu
{

namespace
{

unsigned
tableMask(unsigned entries, const char *what)
{
    if (entries == 0 || (entries & (entries - 1)) != 0)
        fatal(std::string("TournamentPredictor: ") + what +
              " must be a power of two");
    return entries - 1;
}

} // namespace

TournamentPredictor::TournamentPredictor(const Params &params)
    : params_(params)
{
    localMask_ = tableMask(params_.localEntries, "localEntries");
    globalMask_ = tableMask(params_.globalEntries, "globalEntries");
    chooserMask_ = tableMask(params_.chooserEntries, "chooserEntries");
    btbMask_ = tableMask(params_.btbEntries, "btbEntries");
    rasMask_ = tableMask(params_.rasEntries, "rasEntries");
    localHistory_.assign(params_.localEntries, 0);
    localCounters_.assign(params_.localEntries, 3);  // weakly not-taken
    globalCounters_.assign(params_.globalEntries, 1);
    chooser_.assign(params_.chooserEntries, 1);
    btb_.assign(params_.btbEntries, BtbEntry{});
    ras_.assign(params_.rasEntries, 0);
}

void
TournamentPredictor::reset()
{
    *this = TournamentPredictor(params_);
}

} // namespace cpu
} // namespace paradox
