/**
 * @file
 * analysis::Linter — the static-analysis pass pipeline over
 * isa::Program, and its Report.
 *
 * The linter runs one fixed pipeline: CFG construction, reachability,
 * register dataflow, decoded-image consistency, the interval
 * abstract interpretation with its range and footprint checks,
 * memory dependence, termination and the vulnerability summary.  It
 * resolves every diagnostic to the nearest label plus the
 * disassembled instruction and returns a Report that renders either
 * as human-readable text or as a machine-readable JSON object
 * (schema "paradox-lint/1").
 *
 * A malformed workload therefore fails at lint time -- in
 * tests/test_analysis and in the `isa_lint --all --Werror` ctest
 * gates -- instead of silently corrupting fault-injection ground
 * truth.
 */

#ifndef PARADOX_ANALYSIS_LINTER_HH
#define PARADOX_ANALYSIS_LINTER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/diagnostic.hh"
#include "analysis/passes.hh"
#include "isa/program.hh"

namespace paradox
{
namespace analysis
{

/** Diagnostic count and wall-clock cost of one pass. */
struct PassStat
{
    std::string name;
    std::size_t diagnostics = 0;
    std::uint64_t micros = 0;
};

/** Everything one lint run found about one program. */
struct Report
{
    /** JSON schema identifier emitted in every report. */
    static constexpr const char *schema = "paradox-lint/1";

    std::string program;          //!< program name
    std::size_t instructions = 0; //!< code size in instructions
    std::size_t blocks = 0;       //!< CFG basic blocks
    std::vector<Diagnostic> diags;
    std::vector<PassStat> passes; //!< per-pass stats, pipeline order

    std::size_t errors() const
    { return countSeverity(diags, Severity::Error); }
    std::size_t warnings() const
    { return countSeverity(diags, Severity::Warning); }

    /** True when the program passes: no errors, and under
     *  @p warnAsError also no warnings. */
    bool
    clean(bool warnAsError = false) const
    {
        return errors() == 0 && (!warnAsError || warnings() == 0);
    }

    /** Multi-line human-readable rendering; @p withStats appends the
     *  per-pass table. */
    std::string toText(bool withStats = false) const;

    /** One JSON object (single line). */
    std::string toJson() const;
};

/** The pass pipeline.  Construct once, lint many programs. */
class Linter
{
  public:
    explicit Linter(Options opts = {}) : opts_(std::move(opts)) {}

    /** Run all passes over @p prog. */
    Report lint(const isa::Program &prog) const;

  private:
    Options opts_;
};

} // namespace analysis
} // namespace paradox

#endif // PARADOX_ANALYSIS_LINTER_HH
