#include "faults/fault_model.hh"

#include <sstream>
#include <stdexcept>

#include "sim/logging.hh"

namespace paradox
{
namespace faults
{

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::LogBitFlip:      return "log_bit_flip";
      case FaultKind::FunctionalUnit:  return "functional_unit";
      case FaultKind::RegisterBitFlip: return "register_bit_flip";
    }
    return "unknown";
}

const char *
persistenceName(Persistence persistence)
{
    switch (persistence) {
      case Persistence::Transient:    return "transient";
      case Persistence::Intermittent: return "intermittent";
      case Persistence::Permanent:    return "permanent";
    }
    return "unknown";
}

bool
parsePersistence(const std::string &name, Persistence &out)
{
    if (name == "transient") {
        out = Persistence::Transient;
    } else if (name == "intermittent") {
        out = Persistence::Intermittent;
    } else if (name == "permanent") {
        out = Persistence::Permanent;
    } else {
        return false;
    }
    return true;
}

void
FaultConfig::validate() const
{
    if (!(rate >= 0.0 && rate <= 1.0))
        throw std::invalid_argument(
            "FaultConfig: rate must be in [0, 1]");
    if (!(burstBias >= 0.0 && burstBias <= 1.0))
        throw std::invalid_argument(
            "FaultConfig: burstBias must be in [0, 1]");
    if (burstLength == 0)
        throw std::invalid_argument(
            "FaultConfig: burstLength must be >= 1");
    if (targetChecker < -1)
        throw std::invalid_argument(
            "FaultConfig: targetChecker must be -1 (ambient) or a "
            "checker index");
}

FaultInjector::FaultInjector(const FaultConfig &config)
    : config_(config), rng_(config.seed)
{
    config_.validate();
    resample();
}

void
FaultInjector::attachChip(const ChipModel *chip)
{
    chip_ = chip;
    latched_ = false;
    burstLeft_ = 0;
    chipCell_ = 0;
    if (chip_ == nullptr) {
        cellProb_.clear();
        return;
    }
    if (voltage_ <= 0.0)
        voltage_ = chip_->config().shape.vNominal;
    setVoltage(voltage_);
}

void
FaultInjector::setVoltage(double v)
{
    voltage_ = v;
    if (chip_ == nullptr)
        return;
    cellProb_.resize(chip_->cells().size());
    for (std::size_t i = 0; i < cellProb_.size(); ++i)
        cellProb_[i] =
            chip_->flipProbability(chip_->cells()[i], voltage_);
}

void
FaultInjector::resample()
{
    gap_ = rng_.geometric(config_.rate);
}

void
FaultInjector::setRate(double rate)
{
    if (rate == config_.rate)
        return;
    config_.rate = rate;
    resample();
}

void
FaultInjector::reset()
{
    rng_.seed(config_.seed);
    fired_ = 0;
    latched_ = false;
    burstLeft_ = 0;
    siteChosen_ = false;
    chipCell_ = 0;
    weakCellHits_ = 0;
    resample();
}

std::uint64_t
FaultInjector::quietEvents() const
{
    if (pinnedElsewhere())
        return unbounded;
    if (stepsEveryEvent())
        return 0;
    return gap_ == unbounded ? unbounded : gap_ - 1;
}

void
FaultInjector::skipEvents(std::uint64_t n)
{
    if (n == 0)
        return;
    const std::uint64_t quiet = quietEvents();
    if (quiet == unbounded)
        return;
    if (n > quiet)
        panic("FaultInjector::skipEvents: skipping a possible fire");
    gap_ -= n;
}

bool
FaultInjector::stepsEveryEvent() const
{
    return !pinnedElsewhere() &&
           (chip_ != nullptr || latched_ || burstLeft_ > 0);
}

bool
FaultInjector::consumeEvent()
{
    // A pinned fault is physical to one checker: events replayed on
    // any other core neither fire nor advance the temporal state.
    if (pinnedElsewhere())
        return false;

    if (config_.persistence == Persistence::Permanent && latched_) {
        ++fired_;
        return true;
    }
    if (config_.persistence == Persistence::Intermittent &&
        burstLeft_ > 0) {
        --burstLeft_;
        if (!rng_.chance(config_.burstBias))
            return false;
        ++fired_;
        return true;
    }

    if (gap_ == unbounded)
        return false;
    if (--gap_ > 0)
        return false;

    ++fired_;
    switch (config_.persistence) {
      case Persistence::Permanent:
        latched_ = true;  // stuck from here on; gap never re-arms
        break;
      case Persistence::Intermittent:
        // This event opens (and is part of) a burst at a fresh site.
        burstLeft_ = config_.burstLength;
        siteChosen_ = false;
        resample();
        break;
      case Persistence::Transient:
        resample();
        break;
    }
    return true;
}

void
FaultInjector::chooseSite(unsigned reg_bound)
{
    if (!siteChosen_) {
        siteBit_ = unsigned(rng_.nextBounded(64));
        siteReg_ = unsigned(rng_.nextBounded(reg_bound));
        siteChosen_ = true;
    }
}

FaultHit
FaultInjector::chipHit(std::uint32_t cell_index)
{
    const WeakCell &cell = chip_->cells()[cell_index];
    FaultHit hit;
    hit.fires = true;
    hit.bit = cell.bit;
    hit.regIndex = cell.index;
    hit.site = int(cell_index);
    hit.hasStuck = true;
    hit.stuckValue = cell.stuckValue;
    ++fired_;
    ++weakCellHits_;
    return hit;
}

FaultHit
FaultInjector::chipEvent(SiteKind kind, unsigned match,
                         bool constrained)
{
    FaultHit hit;
    // A pinned source still only speaks for one physical core.
    if (pinnedElsewhere())
        return hit;

    const auto siteMatches = [&](const WeakCell &cell) {
        return cell.core == activeChecker_ && cell.kind == kind &&
               (!constrained || cell.index == match);
    };

    // A latched permanent defect recurs at its fixed physical site,
    // but firing stays voltage-gated: chip-mode permanence is a
    // Vmin violation, not physical damage, so restoring the margin
    // (panic reset, AIMD backoff) quiets the cell.  Under deep
    // undervolt p(cell) ~= 1 and the site corrupts every touch.
    if (latched_) {
        if (siteMatches(chip_->cells()[chipCell_]) &&
            rng_.chance(cellProb_[chipCell_]))
            return chipHit(chipCell_);
        return hit;
    }
    // An open intermittent burst fires probabilistically, but only
    // when the marginal cell's own site is the one being exercised.
    if (burstLeft_ > 0) {
        if (siteMatches(chip_->cells()[chipCell_])) {
            --burstLeft_;
            if (rng_.chance(config_.burstBias))
                return chipHit(chipCell_);
        }
        return hit;
    }

    for (std::uint32_t ci : chip_->cellsFor(activeChecker_, kind)) {
        const WeakCell &cell = chip_->cells()[ci];
        if (constrained && cell.index != match)
            continue;
        if (!rng_.chance(cellProb_[ci]))
            continue;
        if (config_.persistence == Persistence::Permanent) {
            latched_ = true;
            chipCell_ = ci;
        } else if (config_.persistence == Persistence::Intermittent) {
            burstLeft_ = config_.burstLength;
            chipCell_ = ci;
        }
        return chipHit(ci);
    }
    return hit;
}

FaultHit
FaultInjector::onLogEntry(bool is_load, std::uint64_t entry_index)
{
    FaultHit hit;
    if (config_.kind != FaultKind::LogBitFlip)
        return hit;
    if (is_load ? !config_.targetLoads : !config_.targetStores)
        return hit;
    if (chip_ != nullptr) {
        // The log is a circular SRAM: successive entries walk the
        // physical rows, so a weak row is re-visited every logRows
        // entries.
        return chipEvent(
            SiteKind::LogRow,
            unsigned(entry_index % chip_->config().logRows), true);
    }
    if (!consumeEvent())
        return hit;
    hit.fires = true;
    if (config_.persistence == Persistence::Transient) {
        hit.bit = unsigned(rng_.nextBounded(64));
    } else {
        chooseSite(1);
        hit.bit = siteBit_;
    }
    return hit;
}

FaultHit
FaultInjector::onInstruction(const isa::Instruction &inst, bool wrote_reg)
{
    FaultHit hit;
    switch (config_.kind) {
      case FaultKind::FunctionalUnit:
        if (chip_ != nullptr) {
            // Chip mode: the defective unit is the weak cell's own
            // class, not the configured one; an instruction that
            // writes no register latches nothing.
            if (!wrote_reg)
                return hit;
            return chipEvent(SiteKind::FunctionalUnit,
                             unsigned(inst.info().cls), true);
        }
        if (inst.info().cls != config_.targetClass)
            return hit;
        if (!consumeEvent())
            return hit;
        // "An instruction that has no effect is indistinguishable
        // from a discarded instruction: no error is injected if no
        // register is touched."
        if (!wrote_reg)
            return hit;
        hit.fires = true;
        if (config_.persistence == Persistence::Transient) {
            hit.bit = unsigned(rng_.nextBounded(64));
        } else {
            chooseSite(1);
            hit.bit = siteBit_;
        }
        return hit;

      case FaultKind::RegisterBitFlip:
        if (chip_ != nullptr)
            return chipEvent(SiteKind::RegisterBit, 0, false);
        if (!consumeEvent())
            return hit;
        hit.fires = true;
        if (config_.persistence == Persistence::Transient) {
            hit.bit = unsigned(rng_.nextBounded(64));
            hit.regIndex = unsigned(rng_.nextBounded(isa::numIntRegs));
        } else {
            chooseSite(isa::numIntRegs);
            hit.bit = siteBit_;
            hit.regIndex = siteReg_;
        }
        return hit;

      default:
        return hit;
    }
}

std::size_t
FaultPlan::add(const FaultConfig &config)
{
    injectors_.emplace_back(config);
    return injectors_.size() - 1;
}

void
FaultPlan::setAllRates(double rate)
{
    for (auto &injector : injectors_)
        injector.setRate(rate);
}

void
FaultPlan::attachChip(const ChipModel *chip)
{
    for (auto &injector : injectors_)
        injector.attachChip(chip);
}

void
FaultPlan::setVoltage(double v)
{
    for (auto &injector : injectors_)
        injector.setVoltage(v);
}

void
FaultPlan::setActiveChecker(int id)
{
    for (auto &injector : injectors_)
        injector.setActiveChecker(id);
}

void
FaultPlan::validate(unsigned checker_count) const
{
    for (const auto &injector : injectors_) {
        const int target = injector.config().targetChecker;
        if (target >= int(checker_count)) {
            std::ostringstream os;
            os << "FaultConfig: targetChecker " << target
               << " out of range (" << checker_count << " checkers)";
            throw std::invalid_argument(os.str());
        }
    }
}

std::uint64_t
FaultPlan::totalFired() const
{
    std::uint64_t total = 0;
    for (const auto &injector : injectors_)
        total += injector.fired();
    return total;
}

std::uint64_t
FaultPlan::totalWeakCellHits() const
{
    std::uint64_t total = 0;
    for (const auto &injector : injectors_)
        total += injector.weakCellHits();
    return total;
}

void
FaultPlan::reset()
{
    for (auto &injector : injectors_)
        injector.reset();
}

FaultPlan
uniformPlan(double rate, std::uint64_t seed)
{
    return uniformPlan(rate, seed, Persistence::Transient, -1);
}

FaultPlan
uniformPlan(double rate, std::uint64_t seed, Persistence persistence,
            int target_checker)
{
    FaultPlan plan;
    FaultConfig reg;
    reg.kind = FaultKind::RegisterBitFlip;
    reg.rate = rate;
    reg.targetCategory = isa::RegCategory::Integer;
    reg.seed = seed;
    reg.persistence = persistence;
    reg.targetChecker = target_checker;
    plan.add(reg);

    FaultConfig log;
    log.kind = FaultKind::LogBitFlip;
    log.rate = rate;
    log.seed = seed ^ 0xabcdef0123456789ULL;
    log.persistence = persistence;
    log.targetChecker = target_checker;
    plan.add(log);
    return plan;
}

FaultPlan
chipPlan(std::uint64_t seed, Persistence persistence,
         int target_checker)
{
    FaultPlan plan;
    FaultConfig reg;
    reg.kind = FaultKind::RegisterBitFlip;
    reg.targetCategory = isa::RegCategory::Integer;
    reg.seed = seed;
    reg.persistence = persistence;
    reg.targetChecker = target_checker;
    plan.add(reg);

    FaultConfig log;
    log.kind = FaultKind::LogBitFlip;
    log.seed = seed ^ 0xabcdef0123456789ULL;
    log.persistence = persistence;
    log.targetChecker = target_checker;
    plan.add(log);

    FaultConfig unit;
    unit.kind = FaultKind::FunctionalUnit;
    unit.seed = seed ^ 0x5ca1ab1e0ddba11ULL;
    unit.persistence = persistence;
    unit.targetChecker = target_checker;
    plan.add(unit);
    return plan;
}

} // namespace faults
} // namespace paradox
