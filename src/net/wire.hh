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
 * when the bytes themselves are impossible (an overlong varint, a
 * nonzero reserved word, a word out of its range, a count the
 * remaining bytes cannot back, trailing bytes).
 *
 * Every record's layout is written once, as a field list that both
 * encodes and decodes:
 *
 *   template <class Io, class M> void layout(Io &io, M &m)
 *   {
 *       io.u64(m.traceDigest);
 *       io.nonzero32(m.targetMHz, "predict.target frequency is zero");
 *       io.zero32("predict.pad");
 *   }
 *
 * called with a FieldWriter over an Encoder and a const record, or a
 * FieldReader over a BasicCursor and a record to fill. A new field is
 * one line in the list. Both formats end in the same section list
 * (u32 count, then u32 id | u32 reserved | u64 length | bytes), whose
 * entries writeSection writes and BasicCursor::sections walks.
 */

#ifndef DVFS_NET_WIRE_HH
#define DVFS_NET_WIRE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/fnv.hh"
#include "sim/profile.hh"
#include "sim/time.hh"

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

    /** Overwrite the integer at @p at: a length or digest known last. */
    template <class T>
    void
    patch(std::size_t at, T v)
    {
        for (std::size_t i = 0; i < sizeof(T); ++i)
            _bytes[at + i] = static_cast<std::uint8_t>(v >> (i * 8));
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

    /** A u32 in [lo, hi]; outside it, badValue(@p what) just past it. */
    std::uint32_t
    u32In(std::uint32_t lo, std::uint32_t hi, const char *what)
    {
        const std::uint32_t v = u32();
        if (v < lo || v > hi)
            Policy::badValue(offset(), what);
        return v;
    }

    /** A reserved u32, which must be zero; reported at its own offset. */
    void
    zero32(const char *what)
    {
        const std::uint64_t at = offset();
        if (u32() != 0)
            Policy::badValue(at, (std::string("reserved field ") + what +
                                  " is nonzero")
                                     .c_str());
    }

    /**
     * Fail unless @p count items of at least @p min_bytes (> 0) each
     * fit in the bytes left: the check before a count sizes anything.
     */
    void
    checkCount(std::uint64_t count, std::uint64_t min_bytes,
               const char *what) const
    {
        if (count > remaining() / min_bytes) {
            Policy::badValue(offset(),
                             (std::string(what) +
                              " count exceeds the remaining bytes")
                                 .c_str());
        }
    }

    /** Fail unless every byte has been read. */
    void
    expectEnd(const char *what) const
    {
        if (remaining() != 0) {
            Policy::badValue(
                offset(), (std::string(what) + " has trailing bytes").c_str());
        }
    }

    /**
     * Walk a section list that runs to the end of the input: u32
     * count, then per section u32 id | u32 reserved (zero) | u64 byte
     * length | bytes. @p visit(id, body) gets a cursor over each
     * section's bytes, at their absolute offsets.
     */
    template <class Visit>
    void
    sections(Visit &&visit)
    {
        const std::uint32_t count = u32();
        for (std::uint32_t s = 0; s < count; ++s) {
            const std::uint32_t id = u32();
            zero32("section.reserved");
            const std::uint64_t length = u64();
            const std::uint64_t at = offset();
            BasicCursor body(raw(length), static_cast<std::size_t>(length),
                             at);
            visit(id, body);
        }
        expectEnd("section list");
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

/** How a list's length is written. */
enum class Count { Varint, U64 };

/**
 * Encoding adapter: a layout's fields appended to an Encoder. Each
 * method mirrors the FieldReader method of the same name and ignores
 * what the reader checks.
 */
class FieldWriter
{
  public:
    explicit FieldWriter(Encoder &e) : _e(e) {}

    void u32(std::uint32_t v) { _e.u32(v); }
    void u64(std::uint64_t v) { _e.u64(v); }
    void u32In(std::uint32_t v, auto &&...) { _e.u32(v); }
    void zero32(const char *) { _e.u32(0); }
    void flag32(auto v, const char *) { _e.u32(std::uint32_t(v)); }
    void nonzero32(std::uint32_t v, const char *) { _e.u32(v); }
    void nonzero32(Frequency f, const char *) { _e.u32(f.toMHz()); }

    /** String with a u64 length. */
    void
    str(const std::string &s)
    {
        _e.u64(s.size());
        chars(s);
    }

    /** String with a varint length. */
    void
    varStr(const std::string &s, const char *)
    {
        _e.varu64(s.size());
        chars(s);
    }

    /** Byte vector with a u64 length. */
    void
    bytes(const std::vector<std::uint8_t> &v, const char *)
    {
        _e.u64(v.size());
        _e.raw(v.data(), v.size());
    }

    /** Counted list: its length, then each(item) per item. */
    template <class V, class Each>
    void
    list(Count count, const V &v, std::uint64_t, const char *, Each &&each)
    {
        if (count == Count::Varint)
            _e.varu64(v.size());
        else
            _e.u64(v.size());
        items(v, v.size(), 0, nullptr, each);
    }

    /** List whose length the fields before it imply: each(item). */
    template <class V, class Each>
    void
    items(const V &v, std::uint64_t, std::uint64_t, const char *, Each &&each)
    {
        for (const auto &item : v)
            each(item);
    }

  private:
    void
    chars(const std::string &s)
    {
        _e.raw(reinterpret_cast<const std::uint8_t *>(s.data()), s.size());
    }

    Encoder &_e;
};

/**
 * Decoding adapter: a layout's fields read from a BasicCursor, each
 * checked by the cursor method of the same name, and each count
 * checked against the remaining bytes before it sizes a container.
 */
template <typename Policy>
class FieldReader
{
  public:
    explicit FieldReader(BasicCursor<Policy> &c) : _c(c) {}

    void u32(std::uint32_t &v) { v = _c.u32(); }
    void u64(std::uint64_t &v) { v = _c.u64(); }
    void
    u32In(std::uint32_t &v, std::uint32_t lo, std::uint32_t hi,
          const char *what)
    {
        v = _c.u32In(lo, hi, what);
    }

    void zero32(const char *what) { _c.zero32(what); }

    /** A boolean word (0 or 1) into a bool or u32. */
    template <class B>
    void flag32(B &v, const char *what) { v = B(_c.u32In(0, 1, what)); }

    /** A nonzero u32 (a frequency in MHz) into a u32 or Frequency. */
    template <class F>
    void
    nonzero32(F &v, const char *what)
    {
        v = F(_c.u32In(1, UINT32_MAX, what));
    }

    void
    str(std::string &s)
    {
        const std::uint64_t n = _c.u64();
        chars(s, n);
    }

    void
    varStr(std::string &s, const char *what)
    {
        const std::uint64_t n = _c.varu64();
        _c.checkCount(n, 1, what);
        chars(s, n);
    }

    void
    bytes(std::vector<std::uint8_t> &v, const char *what)
    {
        const std::uint64_t n = _c.u64();
        _c.checkCount(n, 1, what);
        const std::uint8_t *p = _c.raw(n);
        v.assign(p, p + n);
    }

    template <class V, class Each>
    void
    list(Count count, V &v, std::uint64_t min_bytes, const char *what,
         Each &&each)
    {
        items(v, count == Count::Varint ? _c.varu64() : _c.u64(),
              min_bytes, what, each);
    }

    template <class V, class Each>
    void
    items(V &v, std::uint64_t n, std::uint64_t min_bytes, const char *what,
          Each &&each)
    {
        _c.checkCount(n, min_bytes, what);
        v.resize(static_cast<std::size_t>(n));
        for (auto &item : v)
            each(item);
    }

  private:
    /** @p n bytes as a string; a shortfall is truncated(). */
    void
    chars(std::string &s, std::uint64_t n)
    {
        s.assign(reinterpret_cast<const char *>(_c.raw(n)),
                 static_cast<std::size_t>(n));
    }

    BasicCursor<Policy> &_c;
};

/**
 * Append one entry of a section list (u32 count, then per section
 * u32 id | u32 reserved (zero) | u64 byte length | bytes): @p body()
 * writes the section's bytes, and its length is patched in after.
 */
template <class Id, class Body>
void
writeSection(Encoder &e, Id id, Body &&body)
{
    e.u32(static_cast<std::uint32_t>(id));
    e.u32(0);
    const std::size_t at = e.bytes().size();
    e.u64(0);
    body();
    e.patch(at, static_cast<std::uint64_t>(e.bytes().size() - at - 8));
}

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
