/**
 * @file
 * EpochStore: the epoch decomposition of one run as one flat,
 * zero-elided row store.
 *
 * A recorded epoch holds, per active thread, the 15 counter deltas of
 * PerfCounters, and most of them are zero (a row of avrora, the
 * fine-grained-locking benchmark, has 4-5 nonzero fields). So the
 * store keeps three arrays and allocates nothing per epoch:
 *
 *  - headers: one 32-byte Header per epoch (start, end, boundary,
 *    stall thread, first row, first word). An epoch's rows run to the
 *    next header's first row, the last epoch's to the end of the rows;
 *  - rows: one 8-byte RowHead {tid, mask} per active thread per
 *    epoch. Bit i of the mask is set when PerfCounters field i, in
 *    declaration order, is nonzero;
 *  - words: the nonzero counter words of every row, row after row,
 *    each row's in field order.
 *
 * Reading expands a row back to an EpochThread (tid, PerfCounters):
 * the mask's set bits name the fields its words fill, the rest are
 * zero. Offsets are 32-bit; a store that would outgrow them is a
 * fatal(), never a silent wrap.
 *
 * An Epoch read from the store is a view: it points into the arrays,
 * so appending to the store invalidates it.
 */

#ifndef DVFS_PRED_EPOCH_STORE_HH
#define DVFS_PRED_EPOCH_STORE_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "os/action.hh"
#include "os/trace.hh"
#include "sim/time.hh"
#include "uarch/perf_counters.hh"

namespace dvfs::pred {

/** Counter deltas of one active thread within one epoch. */
struct EpochThread {
    os::ThreadId tid = os::kNoThread;
    uarch::PerfCounters delta;
};

/** The epochs of one run, their rows zero-elided (see the file comment). */
class EpochStore
{
  public:
    /** Bit i set: field i of the row is nonzero and has a word. */
    using Mask = std::uint16_t;
    static_assert(uarch::PerfCounters::kFields <= 8 * sizeof(Mask));

    /** One epoch as stored. */
    struct Header {
        Tick start = 0;
        Tick end = 0;
        std::uint32_t firstRow = 0;
        std::uint32_t firstWord = 0;
        os::ThreadId stallTid = os::kNoThread;
        std::uint8_t boundary = 0;  ///< an os::SyncEventKind

        bool operator==(const Header &) const = default;
    };
    static_assert(sizeof(Header) == 32);

    /** One active thread of one epoch as stored. */
    struct RowHead {
        os::ThreadId tid = os::kNoThread;
        Mask mask = 0;

        bool operator==(const RowHead &) const = default;
    };
    static_assert(sizeof(RowHead) == 8);

    /** The counters of a row with @p mask and nonzero @p words. */
    static uarch::PerfCounters
    expand(Mask mask, const std::uint64_t *words)
    {
        uarch::PerfCounters::Words w{};
        for (unsigned m = mask; m != 0; m &= m - 1)
            w[std::countr_zero(m)] = *words++;
        return uarch::PerfCounters::fromWords(w);
    }

    /**
     * Set bits of a mask, from a table: std::popcount is a library
     * call on x86-64 builds without -mpopcnt, and row walks count the
     * bits of every mask.
     */
    static unsigned
    countOf(unsigned mask)
    {
        return kBitsOfByte[mask & 0xffu] + kBitsOfByte[mask >> 8];
    }

    /** The index (declaration order) of PerfCounters field @p m. */
    static constexpr unsigned
    fieldIndex(std::uint64_t uarch::PerfCounters::*m)
    {
        uarch::PerfCounters c{};
        c.*m = 1;
        const auto w = c.words();
        unsigned i = 0;
        while (w[i] == 0)
            ++i;
        return i;
    }

    /** Walks the rows of one epoch, expanding each on dereference. */
    class RowIterator
    {
      public:
        RowIterator(const RowHead *head, const std::uint64_t *words)
            : _head(head), _words(words)
        {
        }

        EpochThread
        operator*() const
        {
            return {_head->tid, expand(_head->mask, _words)};
        }

        RowIterator &
        operator++()
        {
            _words += countOf(_head->mask);
            ++_head;
            return *this;
        }

        bool operator==(const RowIterator &o) const { return _head == o._head; }

        /** The row's thread, mask and nonzero words, unexpanded. */
        os::ThreadId tid() const { return _head->tid; }
        Mask mask() const { return _head->mask; }
        const std::uint64_t *words() const { return _words; }

        /** One counter of the row, without expanding the others. */
        template <std::uint64_t uarch::PerfCounters::*M>
        std::uint64_t
        field() const
        {
            constexpr unsigned i = fieldIndex(M);
            static constexpr std::uint64_t kZero = 0;
            const unsigned m = _head->mask;
            // A select of the source, not a branch on the data.
            const std::uint64_t *src =
                m >> i & 1u ? _words + countOf(m & ((1u << i) - 1)) : &kZero;
            return *src;
        }

      private:
        const RowHead *_head = nullptr;
        const std::uint64_t *_words = nullptr;
    };

    /** The rows of one epoch. */
    class Rows
    {
      public:
        Rows() = default;
        Rows(const RowHead *first, const RowHead *last,
             const std::uint64_t *words)
            : _first(first), _last(last), _words(words)
        {
        }

        RowIterator begin() const { return {_first, _words}; }
        RowIterator end() const { return {_last, nullptr}; }
        std::size_t size() const { return _last - _first; }
        bool empty() const { return _first == _last; }

      private:
        const RowHead *_first = nullptr;
        const RowHead *_last = nullptr;
        const std::uint64_t *_words = nullptr;
    };

    /** One epoch read back: a view into the store. */
    struct Epoch {
        Tick start = 0;
        Tick end = 0;

        /** Event kind that closed the epoch. */
        os::SyncEventKind boundary = os::SyncEventKind::RunEnd;

        /**
         * Thread that went to sleep at the closing boundary (Algorithm
         * 1's stall_tid), or kNoThread.
         */
        os::ThreadId stallTid = os::kNoThread;

        /** Threads scheduled on cores during the epoch, ascending tid. */
        Rows active;

        Tick duration() const { return end - start; }
    };

    /** Walks a store's epochs in tick order. */
    class EpochIterator
    {
      public:
        EpochIterator(const EpochStore *store, std::size_t i)
            : _store(store), _i(i)
        {
        }

        Epoch operator*() const { return (*_store)[_i]; }

        EpochIterator &
        operator++()
        {
            ++_i;
            return *this;
        }

        bool operator==(const EpochIterator &o) const { return _i == o._i; }

      private:
        const EpochStore *_store;
        std::size_t _i;
    };

    /// @name Reading.
    /// @{
    std::size_t size() const { return _headers.size(); }
    bool empty() const { return _headers.empty(); }
    EpochIterator begin() const { return {this, 0}; }
    EpochIterator end() const { return {this, size()}; }

    Epoch
    operator[](std::size_t i) const
    {
        const Header &h = _headers[i];
        return {h.start, h.end, static_cast<os::SyncEventKind>(h.boundary),
                h.stallTid, rows(i, i + 1)};
    }

    /** The rows of epochs [@p first, @p last), in order. */
    Rows
    rows(std::size_t first, std::size_t last) const
    {
        auto row_of = [&](std::size_t e) -> std::size_t {
            return e < size() ? _headers[e].firstRow : _rows.size();
        };
        const std::size_t word =
            first < size() ? _headers[first].firstWord : _words.size();
        return {_rows.data() + row_of(first), _rows.data() + row_of(last),
                _words.data() + word};
    }

    /** Rows and nonzero words held, over all epochs. */
    std::size_t rowCount() const { return _rows.size(); }
    std::size_t wordCount() const { return _words.size(); }
    /// @}

    /// @name Writing.
    /// @{
    /** Append an epoch with no rows yet; addRow() fills it. */
    void
    open(Tick start, Tick end, os::SyncEventKind boundary,
         os::ThreadId stall_tid)
    {
        Header h;
        h.start = start;
        h.end = end;
        h.firstRow = static_cast<std::uint32_t>(_rows.size());
        h.firstWord = static_cast<std::uint32_t>(_words.size());
        h.stallTid = stall_tid;
        h.boundary = static_cast<std::uint8_t>(boundary);
        _headers.push_back(h);
    }

    /** Append a row to the last open() epoch. */
    void
    addRow(os::ThreadId tid, const uarch::PerfCounters::Words &w)
    {
        Mask mask = 0;
        for (unsigned i = 0; i < uarch::PerfCounters::kFields; ++i) {
            if (w[i] != 0) {
                mask |= static_cast<Mask>(1u << i);
                _words.push_back(w[i]);
            }
        }
        _rows.push_back({tid, mask});
        if (_words.size() > kMaxOffset || _rows.size() > kMaxOffset)
            overflow();
    }

    void
    addRow(os::ThreadId tid, const uarch::PerfCounters &delta)
    {
        addRow(tid, delta.words());
    }

    void reserveEpochs(std::size_t n) { _headers.reserve(n); }
    void clear();
    /** Drop spare capacity (call once the store is complete). */
    void shrinkToFit();
    /// @}

    /** Heap bytes held (capacity, not size). */
    std::size_t bytes() const;

    bool operator==(const EpochStore &) const = default;

  private:
    static constexpr std::size_t kMaxOffset = UINT32_MAX;

    static constexpr std::array<std::uint8_t, 256> kBitsOfByte = [] {
        std::array<std::uint8_t, 256> t{};
        for (unsigned b = 1; b < t.size(); ++b)
            t[b] = static_cast<std::uint8_t>(t[b >> 1] + (b & 1u));
        return t;
    }();

    [[noreturn]] static void overflow();

    std::vector<Header> _headers;
    std::vector<RowHead> _rows;
    std::vector<std::uint64_t> _words;
};

/** One epoch of a record (a view into its EpochStore). */
using Epoch = EpochStore::Epoch;

} // namespace dvfs::pred

#endif // DVFS_PRED_EPOCH_STORE_HH
