/**
 * @file
 * The managed heap: a generational layout with bump allocation.
 *
 * Mirrors the structure the paper's setup gets from Jikes RVM's
 * generational Immix collector: a contiguous nursery allocated by
 * bumping a pointer (with mandatory zero-initialisation, the first
 * source of store bursts) and a mature space that nursery survivors
 * are copied into (the second source).
 *
 * Addresses are modelled: the nursery and mature space live in
 * distinct regions of the simulated physical address space, so cache
 * and DRAM behaviour of allocation, tracing, and copying is real.
 * The nursery size is the one setting (a workload property); the
 * mature space, both base addresses and the nursery's window count
 * are Heap constants.
 */

#ifndef DVFS_RT_HEAP_HH
#define DVFS_RT_HEAP_HH

#include <cstdint>
#include <optional>

namespace dvfs::rt {

/**
 * Bump-allocated generational heap.
 */
class Heap
{
  public:
    /** Mature space size (bytes). */
    static constexpr std::uint64_t kMatureBytes = 64ULL << 20;
    /** Nursery start address (window 0). */
    static constexpr std::uint64_t kNurseryBase = 0x1'0000'0000;
    /** Mature space start address. */
    static constexpr std::uint64_t kMatureBase = 0x2'0000'0000;

    /**
     * Number of nursery-sized windows the nursery rotates through.
     * After each collection the nursery advances to the next window,
     * modelling the physical-page recycling that makes fresh
     * allocation touch cache-cold memory in a real system (zeroing a
     * region whose lines still sit dirty in the LLC would otherwise be
     * artificially free).
     */
    static constexpr std::uint32_t kNurseryWindows = 8;

    /**
     * A heap whose nursery holds @p nursery_bytes: at least a line, and
     * at most (kMatureBase - kNurseryBase) / kNurseryWindows (512 MB),
     * so no window reaches the mature space. Either bound broken is a
     * fatal().
     */
    explicit Heap(std::uint64_t nursery_bytes);

    /**
     * Allocate @p bytes in the nursery (rounded up to a line).
     *
     * @return Start address, or nullopt when a collection is needed.
     */
    std::optional<std::uint64_t> allocate(std::uint64_t bytes);

    /**
     * Allocate @p bytes in the mature space for a copied survivor.
     * The mature bump pointer wraps when the space fills (modelling
     * space reuse after mature collections, which we do not model as
     * pauses; see DESIGN.md).
     */
    std::uint64_t matureAlloc(std::uint64_t bytes);

    /** Empty the nursery after a collection. */
    void resetNursery();

    std::uint64_t nurseryUsed() const { return _nurseryCursor; }
    std::uint64_t nurseryBytes() const { return _nurseryBytes; }

    /** Base address of the *current* nursery window. */
    std::uint64_t
    nurseryBase() const
    {
        return kNurseryBase + _window * _nurseryBytes;
    }

    /** Bytes allocated in the nursery over the whole run. */
    std::uint64_t totalAllocated() const { return _totalAllocated; }

    /** Bytes copied into the mature space over the whole run. */
    std::uint64_t totalCopied() const { return _totalCopied; }

  private:
    std::uint64_t _nurseryBytes;
    std::uint64_t _nurseryCursor = 0;
    std::uint64_t _matureCursor = 0;
    std::uint64_t _totalAllocated = 0;
    std::uint64_t _totalCopied = 0;
    std::uint32_t _window = 0;
};

} // namespace dvfs::rt

#endif // DVFS_RT_HEAP_HH
