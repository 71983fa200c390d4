/**
 * @file
 * Reference byte-serial FNV-1a.
 *
 * This is sim::Fnv1a as it was before it folded zero-byte runs in one
 * multiply: every byte, zero or not, takes one xor and one multiply,
 * and a 64-bit word folds byte by byte, least significant first. It is
 * kept as the executable definition of the digest; tests/test_fnv.cc
 * requires the production hasher to match it on every input.
 *
 * Not used on any digest path; it lives under tests/ and only the test
 * binary builds it.
 */

#ifndef DVFS_TESTS_REFERENCE_FNV_HH
#define DVFS_TESTS_REFERENCE_FNV_HH

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace dvfs::sim {

/** Byte-serial 64-bit FNV-1a: the oracle of sim::Fnv1a. */
class ReferenceFnv1a
{
  public:
    void
    mixBytes(const std::uint8_t *data, std::size_t size)
    {
        for (std::size_t i = 0; i < size; ++i) {
            _h ^= data[i];
            _h *= kPrime;
        }
    }

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            _h ^= (v >> (i * 8)) & 0xff;
            _h *= kPrime;
        }
    }

    void
    mixDouble(double v)
    {
        std::uint64_t bits;
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

#endif // DVFS_TESTS_REFERENCE_FNV_HH
