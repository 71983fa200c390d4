/**
 * @file
 * The DVFS energy manager of Section VI.
 *
 * Every scheduling quantum the manager reads the DVFS counters and the
 * epoch stream accumulated during the quantum, estimates the quantum's
 * duration at every operating point (two-step: first re-normalize to
 * the highest frequency, then evaluate each candidate), and picks the
 * lowest frequency whose predicted slowdown relative to the highest
 * frequency stays within the user-specified Tolerable-Slowdown. If
 * each interval individually respects the bound, the whole run does —
 * the paper's key guarantee argument.
 *
 * The per-quantum estimation is the paper's: DEP+BURST with
 * across-epoch CTP. Each quantum becomes one PredictionTable over its
 * range of the recorder's live epochs, scanned like dvfsd's OptimalVf
 * query (Predictor::scanAscending): the highest point first, then the
 * ascending points one chunk at a time. A quantum that closed no epoch
 * is one zero-length epoch, in a small store of its own, whose rows
 * are the threads' quantum deltas, so its estimate is the slowest busy
 * thread's.
 *
 * The manager is hardened against a misbehaving predictor: any
 * non-finite, negative, or incredibly large predicted slowdown is
 * rejected and the quantum falls back to the highest operating point
 * (safe for the slowdown bound, merely wasteful for energy), recorded
 * as Decision::fallback. When decisions oscillate A->B->A the
 * effective hold-off doubles per flip (up to kMaxBackoff) so a noisy
 * prediction cannot thrash the voltage regulator.
 */

#ifndef DVFS_MGR_ENERGY_MANAGER_HH
#define DVFS_MGR_ENERGY_MANAGER_HH

#include <vector>

#include "os/system.hh"
#include "power/vf_table.hh"
#include "pred/predictors.hh"
#include "pred/record.hh"

namespace dvfs::mgr {

/** Manager parameters (Figure 5). */
struct ManagerConfig {
    /** Scheduling quantum. Paper: 5 ms; scaled default 50 us. */
    Tick quantum = 50 * kTicksPerUs;

    /** Intervals to wait after a change before changing again. */
    std::uint32_t holdOff = 1;

    /** Tolerable-Slowdown vs. always running at the highest point. */
    double tolerableSlowdown = 0.05;
};

/**
 * Quantum-driven DVFS governor.
 */
class EnergyManager
{
  public:
    /** One frequency decision, for timeline reports (Figure 5). */
    struct Decision {
        Tick tick = 0;                ///< decision time (quantum end)
        Frequency chosen;             ///< frequency for the next quantum
        double predictedSlowdown = 0; ///< at the chosen point
        bool usedEpochs = false;      ///< the quantum closed an epoch
        bool fallback = false;        ///< degraded mode: prediction rejected
    };

    /**
     * Predicted slowdowns above this are rejected as garbage (a sane
     * prediction is bounded by the frequency ratio of the table's
     * extreme points, nowhere near this) and trigger the
     * highest-frequency fallback.
     */
    static constexpr double kMaxCredibleSlowdown = 100.0;

    /**
     * Cap on the oscillation backoff multiplier: when decisions
     * flip A->B->A the effective hold-off doubles per flip, up to
     * holdOff * kMaxBackoff intervals.
     */
    static constexpr std::uint32_t kMaxBackoff = 8;

    /**
     * @param sys   The machine to govern.
     * @param rec   Live epoch recorder attached to the same machine.
     * @param table Available operating points.
     * @param cfg   Manager parameters.
     */
    EnergyManager(os::System &sys, pred::RunRecorder &rec,
                  const power::VfTable &table, const ManagerConfig &cfg);

    /**
     * Arm the manager: jumps to the highest operating point (the
     * paper's managers always start there) and schedules the first
     * quantum. Call before System::run().
     */
    void attach();

    /** Decision history. */
    const std::vector<Decision> &decisions() const { return _decisions; }

    /** Number of quanta evaluated. */
    std::uint64_t quanta() const { return _quanta; }

    /** Quanta that fell back to the highest point (degraded mode). */
    std::uint64_t fallbacks() const { return _fallbacks; }

    /** Current oscillation backoff multiplier (1 = none). */
    std::uint32_t backoff() const { return _backoff; }

    virtual ~EnergyManager() = default;

  protected:
    /**
     * Slowdown of the last quantum at a candidate point, where it is
     * predicted to take @p predicted, relative to @p t_ref (> 0), its
     * prediction at the highest point. Called once per scanned
     * candidate, lowest first. Virtual so tests can substitute a
     * broken predictor: any non-finite, clearly negative, or
     * incredibly large return value trips the degraded path instead
     * of steering the machine.
     */
    virtual double predictSlowdown(Tick predicted, Tick t_ref) const;

  private:
    void onQuantum();

    /** A prediction the manager is willing to act on. */
    bool credibleSlowdown(double slowdown) const;

    os::System &_sys;
    pred::RunRecorder &_rec;
    const power::VfTable &_table;
    ManagerConfig _cfg;
    pred::DepPredictor _dep;  ///< DEP+BURST, across-epoch CTP
    std::vector<Frequency> _freqs;  ///< the table's points, ascending

    std::size_t _epochCursor = 0;
    std::vector<uarch::PerfCounters> _lastCounters;
    /** A quantum that closed no epoch, as one zero-length epoch. */
    pred::EpochStore _wholeQuantum;
    std::uint32_t _sinceChange = 0;
    std::uint64_t _quanta = 0;
    std::uint64_t _fallbacks = 0;
    std::uint32_t _backoff = 1;
    Frequency _prevFreq;  ///< frequency before the last change
    std::vector<Decision> _decisions;
};

} // namespace dvfs::mgr

#endif // DVFS_MGR_ENERGY_MANAGER_HH
