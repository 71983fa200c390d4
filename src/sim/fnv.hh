/**
 * @file
 * FNV-1a, the one digest behind every fingerprint in the tree: run and
 * grid fingerprints (exp/sweep), the fault-trace fingerprint
 * (fault::FaultPlan), and the payload digest of the trace format and
 * the wire protocol (net::fnv1aBytes). Stable across platforms: 64-bit
 * words are folded byte by byte, least significant first.
 */

#ifndef DVFS_SIM_FNV_HH
#define DVFS_SIM_FNV_HH

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace dvfs::sim {

/** Incremental 64-bit FNV-1a hasher. */
class Fnv1a
{
  public:
    /** Fold a raw byte range into the digest. */
    void
    mixBytes(const std::uint8_t *data, std::size_t size)
    {
        for (std::size_t i = 0; i < size; ++i) {
            _h ^= data[i];
            _h *= kPrime;
        }
    }

    /** Fold a 64-bit word into the digest, byte by byte. */
    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            _h ^= (v >> (i * 8)) & 0xff;
            _h *= kPrime;
        }
    }

    /** Fold a double via its bit pattern (exact, not rounded). */
    void
    mixDouble(double v)
    {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        mix(bits);
    }

    std::uint64_t digest() const { return _h; }

  private:
    static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
    static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

    std::uint64_t _h = kOffsetBasis;
};

} // namespace dvfs::sim

#endif // DVFS_SIM_FNV_HH
