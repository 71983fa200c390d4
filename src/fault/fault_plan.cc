#include "fault/fault_plan.hh"

#include <ostream>

#include "sim/fnv.hh"
#include "sim/log.hh"

namespace dvfs::fault {

const char *
faultClassName(FaultClass c)
{
    switch (c) {
      case FaultClass::DramLatencySpike: return "dram-latency-spike";
      case FaultClass::DramBankStall: return "dram-bank-stall";
      case FaultClass::DvfsDelay: return "dvfs-delay";
      case FaultClass::DvfsReject: return "dvfs-reject";
      case FaultClass::SpuriousWake: return "spurious-wake";
      case FaultClass::PreemptJitter: return "preempt-jitter";
      case FaultClass::GcInflation: return "gc-inflation";
    }
    return "?";
}

FaultConfig
FaultConfig::only(FaultClass c, std::uint64_t seed)
{
    FaultConfig cfg;
    cfg.seed = seed;
    switch (c) {
      case FaultClass::DramLatencySpike:
        cfg.dramSpikeProb = 0.02;
        break;
      case FaultClass::DramBankStall:
        cfg.dramBankStallProb = 0.01;
        break;
      case FaultClass::DvfsDelay:
        cfg.dvfsDelayProb = 0.5;
        break;
      case FaultClass::DvfsReject:
        cfg.dvfsRejectProb = 0.6;
        break;
      case FaultClass::SpuriousWake:
        cfg.spuriousWakeMeanInterval = 10 * kTicksPerUs;
        break;
      case FaultClass::PreemptJitter:
        cfg.preemptProb = 0.05;
        break;
      case FaultClass::GcInflation:
        cfg.gcInflateProb = 1.0;
        break;
    }
    return cfg;
}

bool
FaultConfig::anyEnabled() const
{
    return dramSpikeProb > 0.0 || dramBankStallProb > 0.0 ||
           dvfsDelayProb > 0.0 || dvfsRejectProb > 0.0 ||
           spuriousWakeMeanInterval > 0 || preemptProb > 0.0 ||
           gcInflateProb > 0.0;
}

FaultPlan::FaultPlan(const FaultConfig &cfg)
    : _cfg(cfg)
{
    if (_cfg.dramSpikeProb < 0.0 || _cfg.dramSpikeProb > 1.0 ||
        _cfg.dramBankStallProb < 0.0 || _cfg.dramBankStallProb > 1.0 ||
        _cfg.dvfsDelayProb < 0.0 || _cfg.dvfsDelayProb > 1.0 ||
        _cfg.dvfsRejectProb < 0.0 || _cfg.dvfsRejectProb > 1.0 ||
        _cfg.preemptProb < 0.0 || _cfg.preemptProb > 1.0 ||
        _cfg.gcInflateProb < 0.0 || _cfg.gcInflateProb > 1.0) {
        fatal("fault probabilities must be in [0, 1]");
    }
    // One decorrelated stream per class: toggling a class cannot shift
    // the draws any other class sees.
    sim::Rng root(_cfg.seed);
    for (std::size_t i = 0; i < kNumFaultClasses; ++i)
        _rngs[i] = root.split(i + 1);
}

void
FaultPlan::record(Tick now, FaultClass c, std::uint64_t magnitude)
{
    _counts[static_cast<std::size_t>(c)] += 1;
    _trace.push_back(FaultEvent{now, c, magnitude});
}

Tick
FaultPlan::dramReadSpike(Tick now)
{
    if (_cfg.dramSpikeProb <= 0.0 ||
        !rng(FaultClass::DramLatencySpike).nextBool(_cfg.dramSpikeProb)) {
        return 0;
    }
    Tick extra = nsToTicks(
        rng(FaultClass::DramLatencySpike).nextExp(kDramSpikeNsMean));
    record(now, FaultClass::DramLatencySpike, extra);
    return extra;
}

Tick
FaultPlan::dramBankStall(Tick now)
{
    if (_cfg.dramBankStallProb <= 0.0 ||
        !rng(FaultClass::DramBankStall).nextBool(_cfg.dramBankStallProb)) {
        return 0;
    }
    Tick extra = nsToTicks(
        rng(FaultClass::DramBankStall).nextExp(kDramBankStallNsMean));
    record(now, FaultClass::DramBankStall, extra);
    return extra;
}

bool
FaultPlan::dvfsReject(Tick now)
{
    if (_cfg.dvfsRejectProb <= 0.0 ||
        !rng(FaultClass::DvfsReject).nextBool(_cfg.dvfsRejectProb)) {
        return false;
    }
    record(now, FaultClass::DvfsReject, 1);
    return true;
}

Tick
FaultPlan::dvfsExtraDelay(Tick now)
{
    if (_cfg.dvfsDelayProb <= 0.0 ||
        !rng(FaultClass::DvfsDelay).nextBool(_cfg.dvfsDelayProb)) {
        return 0;
    }
    Tick extra = nsToTicks(
        rng(FaultClass::DvfsDelay).nextExp(kDvfsDelayNsMean));
    record(now, FaultClass::DvfsDelay, extra);
    return extra;
}

bool
FaultPlan::preemptNow(Tick now)
{
    if (_cfg.preemptProb <= 0.0 || now < _nextPreemptAllowed)
        return false;
    if (!rng(FaultClass::PreemptJitter).nextBool(_cfg.preemptProb))
        return false;
    _nextPreemptAllowed = now + _cfg.preemptMinSpacing;
    record(now, FaultClass::PreemptJitter, 1);
    return true;
}

std::uint32_t
FaultPlan::gcExtraClusters(Tick now)
{
    if (_cfg.gcInflateProb <= 0.0 ||
        !rng(FaultClass::GcInflation).nextBool(_cfg.gcInflateProb)) {
        return 0;
    }
    record(now, FaultClass::GcInflation, kGcInflateExtraClusters);
    return kGcInflateExtraClusters;
}

Tick
FaultPlan::nextSpuriousWakeDelay()
{
    if (_cfg.spuriousWakeMeanInterval == 0)
        return 0;
    double mean = static_cast<double>(_cfg.spuriousWakeMeanInterval);
    auto d = static_cast<Tick>(rng(FaultClass::SpuriousWake).nextExp(mean));
    return d > 0 ? d : 1;
}

std::uint64_t
FaultPlan::pickVictim(std::uint64_t bound)
{
    DVFS_ASSERT(bound > 0, "victim pick from an empty candidate set");
    return rng(FaultClass::SpuriousWake).nextBounded(bound);
}

void
FaultPlan::recordSpuriousWake(Tick now)
{
    record(now, FaultClass::SpuriousWake, 1);
}

std::uint64_t
FaultPlan::totalInjected() const
{
    std::uint64_t n = 0;
    for (std::uint64_t c : _counts)
        n += c;
    return n;
}

std::uint64_t
FaultPlan::fingerprint() const
{
    sim::Fnv1a h;
    for (const FaultEvent &ev : _trace) {
        h.mix(ev.tick);
        h.mix(static_cast<std::uint64_t>(ev.cls));
        h.mix(ev.magnitude);
    }
    return h.digest();
}

void
FaultPlan::writeTrace(std::ostream &os) const
{
    for (const FaultEvent &ev : _trace) {
        os << ev.tick << " " << faultClassName(ev.cls) << " "
           << ev.magnitude << "\n";
    }
}

} // namespace dvfs::fault
