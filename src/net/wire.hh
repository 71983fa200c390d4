/**
 * @file
 * Little-endian wire codec shared by every binary format in the tree.
 *
 * One strict-decode implementation serves both the .dvfstrace file
 * format (src/trace/) and the DVFSRPC1 request/response protocol
 * (src/net/proto.hh): an append-only Encoder, a bounds-checked
 * BasicCursor, the FNV-1a payload digest, and an LEB128 varint for
 * compact counts. The cursor is templated on an error policy so each
 * format reports overruns with its own structured exception type
 * (trace::TraceError, net::ProtoError) while sharing the single
 * decode implementation — a malformed length can never walk past the
 * input in either format.
 *
 * The policy contract:
 *
 *   struct Policy {
 *       [[noreturn]] static void truncated(std::uint64_t offset,
 *                                          const char *what);
 *       [[noreturn]] static void badValue(std::uint64_t offset,
 *                                         const char *what);
 *   };
 *
 * truncated() fires when a field would read past the input; badValue()
 * when the bytes themselves are impossible (e.g. an overlong varint).
 */

#ifndef DVFS_NET_WIRE_HH
#define DVFS_NET_WIRE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/fnv.hh"
#include "sim/profile.hh"

namespace dvfs::net {

/** Append-only little-endian byte sink. */
class Encoder
{
  public:
    void u8(std::uint8_t v) { _bytes.push_back(v); }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            _bytes.push_back(static_cast<std::uint8_t>(v >> (i * 8)));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            _bytes.push_back(static_cast<std::uint8_t>(v >> (i * 8)));
    }

    /** Length-prefixed string (u64 length, then raw bytes). */
    void
    str(const std::string &s)
    {
        u64(s.size());
        _bytes.insert(_bytes.end(), s.begin(), s.end());
    }

    /** LEB128 varint: 7 value bits per byte, high bit = continue. */
    void
    varu64(std::uint64_t v)
    {
        while (v >= 0x80) {
            _bytes.push_back(static_cast<std::uint8_t>(v) | 0x80);
            v >>= 7;
        }
        _bytes.push_back(static_cast<std::uint8_t>(v));
    }

    /** Raw byte range, no length prefix. */
    void
    raw(const std::uint8_t *data, std::size_t size)
    {
        _bytes.insert(_bytes.end(), data, data + size);
    }

    std::vector<std::uint8_t> &bytes() { return _bytes; }
    const std::vector<std::uint8_t> &bytes() const { return _bytes; }

  private:
    std::vector<std::uint8_t> _bytes;
};

/**
 * Bounds-checked little-endian reader over a byte range.
 *
 * The range is [begin, end) of a larger buffer; offsets in errors are
 * absolute within that buffer (@p base is the range's position).
 */
template <typename Policy>
class BasicCursor
{
  public:
    BasicCursor(const std::uint8_t *data, std::size_t size,
                std::uint64_t base)
        : _data(data), _size(size), _base(base)
    {
    }

    std::uint8_t
    u8()
    {
        need(1);
        return _data[_pos++];
    }

    std::uint32_t
    u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(_data[_pos + i]) << (i * 8);
        _pos += 4;
        return v;
    }

    std::uint64_t
    u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(_data[_pos + i]) << (i * 8);
        _pos += 8;
        return v;
    }

    std::string
    str()
    {
        std::uint64_t n = u64();
        need(n);
        std::string s(reinterpret_cast<const char *>(_data + _pos),
                      static_cast<std::size_t>(n));
        _pos += static_cast<std::size_t>(n);
        return s;
    }

    std::uint64_t
    varu64()
    {
        std::uint64_t v = 0;
        for (unsigned shift = 0;; shift += 7) {
            // 10 bytes (70 bits) is the longest legal u64 varint; the
            // tenth byte may only carry the top bit of the value.
            if (shift >= 64) {
                Policy::badValue(offset(), "varint longer than 64 bits");
            }
            const std::uint8_t b = u8();
            if (shift == 63 && (b & 0x7e) != 0) {
                Policy::badValue(offset(),
                                 "varint overflows 64 bits");
            }
            v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
            if ((b & 0x80) == 0)
                break;
        }
        return v;
    }

    /** Advance @p n bytes without reading them. */
    void
    skip(std::uint64_t n)
    {
        need(n);
        _pos += static_cast<std::size_t>(n);
    }

    /** Borrow @p n raw bytes (valid while the input buffer lives). */
    const std::uint8_t *
    raw(std::uint64_t n)
    {
        need(n);
        const std::uint8_t *p = _data + _pos;
        _pos += static_cast<std::size_t>(n);
        return p;
    }

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return _size - _pos; }

    /** Absolute offset of the next unread byte. */
    std::uint64_t offset() const { return _base + _pos; }

  private:
    void
    need(std::uint64_t n)
    {
        if (n > _size - _pos)
            Policy::truncated(offset(), "input ends inside a field");
    }

    const std::uint8_t *_data;
    std::size_t _size;
    std::size_t _pos = 0;
    std::uint64_t _base;
};

/** FNV-1a over a raw byte range (the payload digest). */
inline std::uint64_t
fnv1aBytes(const std::uint8_t *data, std::size_t size)
{
    DVFS_PROFILE_SCOPE(Digest);
    sim::Fnv1a h;
    h.mixBytes(data, size);
    return h.digest();
}

} // namespace dvfs::net

#endif // DVFS_NET_WIRE_HH
