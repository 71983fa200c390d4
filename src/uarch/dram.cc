#include "uarch/dram.hh"

#include <algorithm>

#include "fault/fault_plan.hh"
#include "sim/log.hh"
#include "sim/profile.hh"

namespace dvfs::uarch {

Dram::Dram(const DramConfig &cfg)
    : _cfg(cfg)
{
    if (_cfg.channels == 0 || _cfg.banksPerChannel == 0)
        fatal("DRAM needs at least one channel and one bank");
    if (_cfg.rowBytes == 0 || _cfg.lineBytes == 0 ||
        _cfg.rowBytes % _cfg.lineBytes != 0) {
        fatal("DRAM row size must be a positive multiple of the line size");
    }

    _tCas = nsToTicks(_cfg.tCasNs);
    _tRcd = nsToTicks(_cfg.tRcdNs);
    _tRp = nsToTicks(_cfg.tRpNs);
    _tBurst = nsToTicks(_cfg.tBurstNs);
    _tCtrl = nsToTicks(_cfg.tCtrlNs);
    _tWr = nsToTicks(_cfg.tWrNs);

    auto pow2 = [](std::uint64_t v) { return (v & (v - 1)) == 0; };
    auto log2u = [](std::uint64_t v) {
        std::uint32_t s = 0;
        while (v > 1) { v >>= 1; ++s; }
        return s;
    };
    const std::uint64_t lines_per_row = _cfg.rowBytes / _cfg.lineBytes;
    _pow2Decode = pow2(_cfg.lineBytes) && pow2(_cfg.channels) &&
                  pow2(_cfg.banksPerChannel) && pow2(lines_per_row);
    if (_pow2Decode) {
        _lineShift = log2u(_cfg.lineBytes);
        _chanShift = log2u(_cfg.channels);
        _bankShift = log2u(_cfg.banksPerChannel);
        _rowShift = log2u(lines_per_row);
        _chanMask = _cfg.channels - 1;
        _bankMask = _cfg.banksPerChannel - 1;
    }

    reset();
}

void
Dram::reset()
{
    _channels.assign(_cfg.channels, Channel{});
    for (auto &ch : _channels) {
        ch.banks.assign(_cfg.banksPerChannel, Bank{});
        ch.readBusFreeAt = 0;
        ch.writeBusFreeAt = 0;
        ch.inflightReads.assign(_cfg.channelQueueDepth, 0);
        ch.inflightWrites.assign(_cfg.channelQueueDepth, 0);
        ch.readHead = 0;
        ch.writeHead = 0;
    }
    _reads = _writes = _rowHits = _rowMisses = 0;
    _readLatencySum = 0;
    _writeLatencySum = 0;
}

void
Dram::decode(std::uint64_t addr, std::uint32_t &channel,
             std::uint32_t &bank, std::uint64_t &row) const
{
    // Interleave channels then banks at line granularity so that
    // streaming accesses spread across the machine, as real
    // controllers do.
    if (_pow2Decode) {
        std::uint64_t line = addr >> _lineShift;
        channel = static_cast<std::uint32_t>(line & _chanMask);
        std::uint64_t in_channel = line >> _chanShift;
        bank = static_cast<std::uint32_t>(in_channel & _bankMask);
        row = (in_channel >> _bankShift) >> _rowShift;
        return;
    }
    std::uint64_t line = addr / _cfg.lineBytes;
    channel = static_cast<std::uint32_t>(line % _cfg.channels);
    std::uint64_t in_channel = line / _cfg.channels;
    bank = static_cast<std::uint32_t>(in_channel % _cfg.banksPerChannel);
    std::uint64_t in_bank = in_channel / _cfg.banksPerChannel;
    row = in_bank / (_cfg.rowBytes / _cfg.lineBytes);
}

Tick
Dram::access(std::uint64_t addr, Tick issue, bool is_write)
{
    DVFS_PROFILE_SCOPE(Dram);
    std::uint32_t ci, bi;
    std::uint64_t row;
    decode(addr, ci, bi, row);
    Channel &ch = _channels[ci];
    Bank &bank = ch.banks[bi];

    // The controller tracks channelQueueDepth outstanding requests per
    // direction; a new one must wait for the oldest to finish. The
    // oldest completion is the ring-buffer head (completions per
    // direction never decrease).
    auto &inflight = is_write ? ch.inflightWrites : ch.inflightReads;
    std::uint32_t &head = is_write ? ch.writeHead : ch.readHead;
    Tick &oldest = inflight[head];
    Tick t = issue + _tCtrl;
    if (oldest > t)
        t = oldest;

    // Injected maintenance blackout: the bank is unavailable for a
    // while, on top of whatever it was already doing.
    if (_faultPlan) {
        Tick stall = _faultPlan->dramBankStall(issue);
        if (stall > 0)
            bank.freeAt = std::max(bank.freeAt, t) + stall;
    }

    // Wait for the bank.
    t = std::max(t, bank.freeAt);

    // Row-buffer management. Reads see the open-page policy in full.
    // Writes are buffered and drained in row-batched order by the
    // FR-FCFS controller, so their activate/precharge cost is
    // amortized across each drained batch: they pay a flat CAS-level
    // service. (Victim writebacks have scattered addresses; without
    // batching they would thrash every row buffer, which no real
    // write-drain policy allows.)
    Tick ready;
    if (is_write) {
        ready = t + _tCas;
    } else if (bank.openRow == row) {
        ++_rowHits;
        ready = t + _tCas;
    } else if (bank.openRow == ~0ULL) {
        ++_rowMisses;
        ready = t + _tRcd + _tCas;
    } else {
        ++_rowMisses;
        ready = t + _tRp + _tRcd + _tCas;
    }
    if (!is_write)
        bank.openRow = row;

    // Injected latency spike on the read path (ECC retry, refresh
    // collision): delays the critical word and holds the bank through
    // the retry.
    if (_faultPlan && !is_write)
        ready += _faultPlan->dramReadSpike(issue);

    // Data transfer occupies the per-direction bandwidth budget
    // (read-priority controller: buffered writes drain in gaps).
    Tick &bus = is_write ? ch.writeBusFreeAt : ch.readBusFreeAt;
    Tick xfer_start = std::max(ready, bus);
    Tick done = xfer_start + _tBurst;
    bus = done;

    // The bank is occupied for its own service (activate + CAS +
    // transfer + write recovery), independent of how long the data
    // waited for the shared bus — charging bus queueing into bank
    // occupancy would compound delays for bursty streams.
    bank.freeAt = ready + _tBurst + (is_write ? _tWr : 0);

    // Record completion for queue modelling: overwrite the slot we
    // just waited on and advance the ring head.
    oldest = done;
    if (++head == inflight.size())
        head = 0;

    if (is_write) {
        ++_writes;
        _writeLatencySum += done - issue;
    } else {
        ++_reads;
        _readLatencySum += done - issue;
    }
    return done;
}

Tick
Dram::read(std::uint64_t addr, Tick issue)
{
    return access(addr, issue, false);
}

Tick
Dram::write(std::uint64_t addr, Tick issue)
{
    return access(addr, issue, true);
}

double
Dram::meanReadLatencyNs() const
{
    return _reads ? ticksToNs(_readLatencySum) / static_cast<double>(_reads)
                  : 0.0;
}

double
Dram::meanWriteLatencyNs() const
{
    return _writes ? ticksToNs(_writeLatencySum) /
                         static_cast<double>(_writes)
                   : 0.0;
}

Tick
Dram::unloadedReadLatency() const
{
    return _tCtrl + _tRcd + _tCas + _tBurst;
}

} // namespace dvfs::uarch
