#include "fault/fault_plan.hh"

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
    cfg.classes.set(static_cast<std::size_t>(c));
    return cfg;
}

namespace {

constexpr bool
isProbability(double p)
{
    return p >= 0.0 && p <= 1.0;
}

} // namespace

static_assert(isProbability(FaultPlan::kDramSpikeProb) &&
              isProbability(FaultPlan::kDramBankStallProb) &&
              isProbability(FaultPlan::kDvfsDelayProb) &&
              isProbability(FaultPlan::kDvfsRejectProb) &&
              isProbability(FaultPlan::kPreemptProb) &&
              isProbability(FaultPlan::kGcInflateProb));
static_assert(FaultPlan::kSpuriousWakeMeanInterval > 0);

FaultPlan::FaultPlan(const FaultConfig &cfg)
    : _cfg(cfg)
{
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
    if (!_cfg.enabled(FaultClass::DramLatencySpike) ||
        !rng(FaultClass::DramLatencySpike).nextBool(kDramSpikeProb)) {
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
    if (!_cfg.enabled(FaultClass::DramBankStall) ||
        !rng(FaultClass::DramBankStall).nextBool(kDramBankStallProb)) {
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
    if (!_cfg.enabled(FaultClass::DvfsReject) ||
        !rng(FaultClass::DvfsReject).nextBool(kDvfsRejectProb)) {
        return false;
    }
    record(now, FaultClass::DvfsReject, 1);
    return true;
}

Tick
FaultPlan::dvfsExtraDelay(Tick now)
{
    if (!_cfg.enabled(FaultClass::DvfsDelay) ||
        !rng(FaultClass::DvfsDelay).nextBool(kDvfsDelayProb)) {
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
    if (!_cfg.enabled(FaultClass::PreemptJitter) ||
        now < _nextPreemptAllowed)
        return false;
    if (!rng(FaultClass::PreemptJitter).nextBool(kPreemptProb))
        return false;
    _nextPreemptAllowed = now + kPreemptMinSpacing;
    record(now, FaultClass::PreemptJitter, 1);
    return true;
}

std::uint32_t
FaultPlan::gcExtraClusters(Tick now)
{
    if (!_cfg.enabled(FaultClass::GcInflation) ||
        !rng(FaultClass::GcInflation).nextBool(kGcInflateProb)) {
        return 0;
    }
    record(now, FaultClass::GcInflation, kGcInflateExtraClusters);
    return kGcInflateExtraClusters;
}

Tick
FaultPlan::nextSpuriousWakeDelay()
{
    if (!_cfg.enabled(FaultClass::SpuriousWake))
        return 0;
    double mean = static_cast<double>(kSpuriousWakeMeanInterval);
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

} // namespace dvfs::fault
