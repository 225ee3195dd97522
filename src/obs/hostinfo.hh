/**
 * @file
 * Host metadata for performance artifacts.
 *
 * Host-time numbers (perfbench's provenance line, BENCH_perfbench.json)
 * are only comparable within one box and build; stamping CPU model,
 * core count, compiler, flags and git SHA next to them makes
 * cross-box or cross-build re-measurements distinguishable instead of
 * silently misleading.
 */

#ifndef PARADOX_OBS_HOSTINFO_HH
#define PARADOX_OBS_HOSTINFO_HH

#include <string>

namespace paradox
{
namespace obs
{

/** Static facts about the executing host and this build. */
struct HostInfo
{
    std::string cpuModel;  //!< /proc/cpuinfo "model name" (or "unknown")
    unsigned cores = 0;    //!< hardware_concurrency
    std::string compiler;  //!< e.g. "g++ 13.2.0"
    std::string flags;     //!< build type + CXX flags (from CMake)
    std::string gitSha;    //!< short HEAD SHA at configure time
};

/** Gather once, cached for the process. */
const HostInfo &hostInfo();

/**
 * The host fields as a JSON fragment (no surrounding braces):
 * `"cpu":"...","cores":N,"compiler":"...","flags":"...","git":"..."`
 * -- spliced into perfbench's provenance line.
 */
std::string hostJsonFields();

} // namespace obs
} // namespace paradox

#endif // PARADOX_OBS_HOSTINFO_HH
