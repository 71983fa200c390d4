#include "rt/heap.hh"

#include "sim/log.hh"

namespace dvfs::rt {

namespace {
constexpr std::uint64_t kLine = 64;

std::uint64_t
roundUp(std::uint64_t v, std::uint64_t to)
{
    return (v + to - 1) / to * to;
}
} // namespace

static_assert(Heap::kMatureBytes >= kLine,
              "the mature space must hold at least one line");
static_assert((Heap::kMatureBase - Heap::kNurseryBase) %
                      Heap::kNurseryWindows ==
                  0,
              "the nursery windows must tile the space below the mature "
              "base exactly");
static_assert(Heap::kNurseryWindows > 1,
              "the nursery must have windows to rotate through");

Heap::Heap(std::uint64_t nursery_bytes)
    : _nurseryBytes(nursery_bytes)
{
    if (_nurseryBytes < kLine)
        fatal("the nursery must hold at least one line");
    // Window w starts at kNurseryBase + w * nurseryBytes: all of them
    // must end at or below the mature space.
    if (_nurseryBytes > (kMatureBase - kNurseryBase) / kNurseryWindows)
        fatal("a nursery of %llu bytes overlaps the mature space "
              "(at most %llu bytes over %u windows)",
              static_cast<unsigned long long>(_nurseryBytes),
              static_cast<unsigned long long>(
                  (kMatureBase - kNurseryBase) / kNurseryWindows),
              kNurseryWindows);
}

std::optional<std::uint64_t>
Heap::allocate(std::uint64_t bytes)
{
    bytes = roundUp(bytes, kLine);
    if (bytes > _nurseryBytes)
        fatal("allocation of %llu bytes exceeds the nursery (%llu bytes)",
              static_cast<unsigned long long>(bytes),
              static_cast<unsigned long long>(_nurseryBytes));
    if (_nurseryCursor + bytes > _nurseryBytes)
        return std::nullopt;
    std::uint64_t addr = nurseryBase() + _nurseryCursor;
    _nurseryCursor += bytes;
    _totalAllocated += bytes;
    return addr;
}

std::uint64_t
Heap::matureAlloc(std::uint64_t bytes)
{
    bytes = roundUp(bytes, kLine);
    if (_matureCursor + bytes > kMatureBytes)
        _matureCursor = 0;
    std::uint64_t addr = kMatureBase + _matureCursor;
    _matureCursor += bytes;
    _totalCopied += bytes;
    return addr;
}

void
Heap::resetNursery()
{
    _nurseryCursor = 0;
    _window = (_window + 1) % kNurseryWindows;
}

} // namespace dvfs::rt
