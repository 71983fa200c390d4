/**
 * @file
 * FNV-1a, the one digest behind every fingerprint in the tree: run and
 * grid fingerprints (exp/sweep), the fault-trace fingerprint
 * (fault::FaultPlan), and the payload digest of the trace format and
 * the wire protocol (net::fnv1aBytes).
 *
 * FNV-1a folds a byte b as h = (h ^ b) * P. Since h ^ 0 == h, a zero
 * byte only multiplies by P, and a run of k zero bytes is one multiply
 * by P^k (mod 2^64). The hashed data is mostly zeros (counter words
 * with empty high bytes, zero-filled trace payloads), so mix() folds
 * the zero bytes below a word's lowest nonzero byte and above its
 * highest each as one multiply by P^k from a constexpr table, and an
 * all-zero word as one multiply by P^8. Only the bytes in between take
 * the byte loop. Each fold multiplies only when its run is non-empty,
 * so a dense word costs what the byte loop costs. mixZeroWords(k)
 * folds k whole zero words at once (the zero fields of an epoch row,
 * pred/epoch_store.hh), as one multiply by P^(8k). The result is
 * bit-identical to the byte loop (tests/reference_fnv.hh is that loop,
 * kept as the oracle of tests/test_fnv.cc).
 *
 * Stable across platforms: mix() folds a 64-bit word least significant
 * byte first, and mixBytes() folds a range in memory order, 8 bytes at
 * a time through mix() (byte-swapped on a big-endian host so the word
 * still folds in memory order), then the tail byte by byte.
 */

#ifndef DVFS_SIM_FNV_HH
#define DVFS_SIM_FNV_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace dvfs::sim {

/** Incremental 64-bit FNV-1a hasher. */
class Fnv1a
{
  public:
    /** Fold a raw byte range into the digest, in memory order. */
    void
    mixBytes(const std::uint8_t *data, std::size_t size)
    {
        for (; size >= 8; data += 8, size -= 8) {
            std::uint64_t w;
            std::memcpy(&w, data, sizeof(w));
            if constexpr (std::endian::native == std::endian::big)
                w = __builtin_bswap64(w);
            mix(w);
        }
        for (std::size_t i = 0; i < size; ++i) {
            _h ^= data[i];
            _h *= kPrime;
        }
    }

    /** Fold a 64-bit word into the digest, least significant byte
     *  first; leading and trailing zero-byte runs fold in one multiply
     *  each. */
    void
    mix(std::uint64_t v)
    {
        if (v == 0) {
            _h *= kPrimePow[8];
            return;
        }
        const int low = std::countr_zero(v) / 8;
        const int high = std::countl_zero(v) / 8;
        if (low)
            _h *= kPrimePow[low];
        v >>= low * 8;
        for (int i = low; i < 8 - high; ++i, v >>= 8) {
            _h ^= v & 0xff;
            _h *= kPrime;
        }
        if (high)
            _h *= kPrimePow[high];
    }

    /** Fold @p k zero words (8k zero bytes): one multiply by P^(8k)
     *  from a constexpr table, one more per 16 words past the first
     *  16. The same as k calls of mix(0). */
    void
    mixZeroWords(std::size_t k)
    {
        for (; k > kMaxZeroWords; k -= kMaxZeroWords)
            _h *= kZeroWordPow[kMaxZeroWords];
        _h *= kZeroWordPow[k];
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

    /** kPrimePow[k] = P^k mod 2^64: folds k zero bytes. */
    static constexpr std::array<std::uint64_t, 9> kPrimePow = [] {
        std::array<std::uint64_t, 9> p{};
        p[0] = 1;
        for (std::size_t k = 1; k < p.size(); ++k)
            p[k] = p[k - 1] * kPrime;
        return p;
    }();

    /** kZeroWordPow[k] = P^(8k) mod 2^64: folds k zero words. */
    static constexpr std::size_t kMaxZeroWords = 16;
    static constexpr std::array<std::uint64_t, kMaxZeroWords + 1>
        kZeroWordPow = [] {
            std::array<std::uint64_t, kMaxZeroWords + 1> p{};
            p[0] = 1;
            for (std::size_t k = 1; k < p.size(); ++k)
                p[k] = p[k - 1] * kPrimePow[8];
            return p;
        }();

    std::uint64_t _h = kOffsetBasis;
};

} // namespace dvfs::sim

#endif // DVFS_SIM_FNV_HH
