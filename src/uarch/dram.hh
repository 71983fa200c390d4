/**
 * @file
 * Banked DRAM model with variable access latency.
 *
 * The model is deliberately richer than any of the predictors' views
 * of memory: accesses see row-buffer hits and misses, per-bank
 * serialization, data-bus occupancy, and a controller queue — so a
 * cluster of "long-latency load misses" genuinely has variable
 * per-miss latency. That variability is exactly what separates the
 * Leading Loads model from CRIT in the paper (Section II-A).
 *
 * Timing is wall-clock (nanosecond-specified) and therefore
 * independent of the core frequency — the "non-scaling" component of
 * execution time originates here.
 *
 * The model is analytic rather than event-driven: an access computes
 * its completion time immediately from the current bank/bus state and
 * mutates that state. Cross-core contention appears through the shared
 * state. See DESIGN.md section 5 ("atomic cluster issue").
 */

#ifndef DVFS_UARCH_DRAM_HH
#define DVFS_UARCH_DRAM_HH

#include <cstdint>
#include <vector>

#include "sim/time.hh"

namespace dvfs::fault {
class FaultPlan;
}

namespace dvfs::uarch {

/** Configuration of the DRAM subsystem. */
struct DramConfig {
    std::uint32_t channels = 2;        ///< independent channels
    std::uint32_t banksPerChannel = 16;///< banks per channel (dual rank)
    std::uint32_t rowBytes = 8192;     ///< row-buffer size
    std::uint32_t lineBytes = 64;      ///< transfer granule

    double tCasNs = 13.75;   ///< column access (row-buffer hit part)
    double tRcdNs = 13.75;   ///< RAS-to-CAS (activate)
    double tRpNs = 13.75;    ///< precharge
    double tBurstNs = 5.0;   ///< data transfer of one line on the bus
    double tCtrlNs = 10.0;   ///< controller + queueing fixed overhead
    double tWrNs = 10.0;     ///< write recovery after a write burst

    /** Max reads a channel can overlap; beyond this, queueing delay. */
    std::uint32_t channelQueueDepth = 32;
};

/**
 * The DRAM device + controller model shared by all cores.
 */
class Dram
{
  public:
    explicit Dram(const DramConfig &cfg = DramConfig());

    /**
     * Perform a read of one line.
     *
     * @param addr  Physical address (line-aligned internally).
     * @param issue Tick at which the request reaches the controller.
     * @return Tick at which the critical word is available to the core.
     */
    Tick read(std::uint64_t addr, Tick issue);

    /**
     * Perform a write (e.g. dirty writeback or store-burst drain) of
     * one line.
     *
     * @param addr  Physical address.
     * @param issue Tick at which the write is handed to the controller.
     * @return Tick at which the write has drained (bank free again);
     *         used to pace store-queue drain.
     */
    Tick write(std::uint64_t addr, Tick issue);

    /**
     * An idealized read latency with no contention, for configuration
     * reports: tCtrl + tRcd + tCas + tBurst.
     */
    Tick unloadedReadLatency() const;

    const DramConfig &config() const { return _cfg; }

    /** Reset all bank/bus state (between independent runs). */
    void reset();

    /**
     * Install a fault plan (nullable): reads may see injected latency
     * spikes, and banks may be stalled for maintenance blackouts.
     */
    void setFaultPlan(fault::FaultPlan *plan) { _faultPlan = plan; }

    /// @name Statistics
    /// @{
    std::uint64_t reads() const { return _reads; }
    std::uint64_t writes() const { return _writes; }
    std::uint64_t rowHits() const { return _rowHits; }
    std::uint64_t rowMisses() const { return _rowMisses; }
    /** Mean read latency (ns) since construction/reset. */
    double meanReadLatencyNs() const;
    /** Mean write-drain latency (ns) since construction/reset. */
    double meanWriteLatencyNs() const;
    /// @}

  private:
    /**
     * Bank state. Only reads manage the row buffer here: buffered
     * writes are drained row-batched by the controller (flat amortized
     * service in access()). Timing occupancy (freeAt) is shared — the
     * bank is one resource.
     */
    struct Bank {
        Tick freeAt = 0;               ///< bank busy until this tick
        std::uint64_t openRow = ~0ULL; ///< row open for reads
    };

    /**
     * Per-channel state. Reads and writes are tracked separately:
     * modern controllers buffer writes and drain them with read
     * priority, so a store stream consumes write bandwidth without
     * serializing demand loads behind it. Bank occupancy (including
     * write recovery) is shared — the physical resource conflicts
     * remain visible to reads.
     */
    struct Channel {
        std::vector<Bank> banks;
        Tick readBusFreeAt = 0;   ///< read data bus busy until
        Tick writeBusFreeAt = 0;  ///< write drain bandwidth budget
        /**
         * Completion times of recent reads (read queue depth), a ring
         * buffer: per-direction completion times never decrease (each
         * transfer starts no earlier than the previous one ends), so
         * the oldest entry is always the minimum and a head index
         * replaces a full scan.
         */
        std::vector<Tick> inflightReads;
        std::uint32_t readHead = 0;  ///< oldest slot in inflightReads
        /** Completion times of recent writes (write buffer depth). */
        std::vector<Tick> inflightWrites;
        std::uint32_t writeHead = 0; ///< oldest slot in inflightWrites
    };

    /** Map an address to (channel, bank, row). */
    void decode(std::uint64_t addr, std::uint32_t &channel,
                std::uint32_t &bank, std::uint64_t &row) const;

    /** Common access path for reads and writes. */
    Tick access(std::uint64_t addr, Tick issue, bool is_write);

    DramConfig _cfg;
    std::vector<Channel> _channels;
    fault::FaultPlan *_faultPlan = nullptr;

    Tick _tCas, _tRcd, _tRp, _tBurst, _tCtrl, _tWr;

    /**
     * Shift/mask form of decode(), valid when every geometry parameter
     * is a power of two (the default and every realistic config).
     * Falls back to the division form otherwise.
     */
    bool _pow2Decode = false;
    std::uint32_t _lineShift = 0, _chanShift = 0, _bankShift = 0,
                  _rowShift = 0;
    std::uint64_t _chanMask = 0, _bankMask = 0;

    std::uint64_t _reads = 0, _writes = 0, _rowHits = 0, _rowMisses = 0;
    Tick _readLatencySum = 0;
    Tick _writeLatencySum = 0;
};

} // namespace dvfs::uarch

#endif // DVFS_UARCH_DRAM_HH
