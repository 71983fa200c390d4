/**
 * @file
 * Shared helpers for the test suite.
 */

#ifndef DVFS_TESTS_TEST_UTIL_HH
#define DVFS_TESTS_TEST_UTIL_HH

#include <functional>
#include <initializer_list>
#include <memory>
#include <vector>

#include "os/system.hh"
#include "sim/fnv.hh"
#include "uarch/work.hh"

namespace dvfs::test {

/**
 * The addresses of a hand-built miss cluster, owned chain-major the way
 * a program's uarch::ClusterAddressBuffer owns them; chains may differ
 * in length. spec() views them, so the ClusterChains must outlive
 * every spec taken from it.
 */
class ClusterChains
{
  public:
    ClusterChains(
        std::initializer_list<std::initializer_list<std::uint64_t>> chains)
    {
        for (const auto &c : chains) {
            _addrs.insert(_addrs.end(), c.begin(), c.end());
            _chainEnds.push_back(static_cast<std::uint32_t>(_addrs.size()));
        }
    }

    uarch::MissClusterSpec
    spec() const
    {
        uarch::MissClusterSpec s;
        s.addrs = _addrs.data();
        s.chainEnds = _chainEnds.data();
        s.chains = static_cast<std::uint32_t>(_chainEnds.size());
        return s;
    }

  private:
    std::vector<std::uint64_t> _addrs;
    std::vector<std::uint32_t> _chainEnds;
};

/** A thread program replaying a fixed list of actions, then exiting. */
class ScriptProgram : public os::ThreadProgram
{
  public:
    explicit ScriptProgram(std::vector<os::Action> script)
        : _script(std::move(script))
    {
    }

    os::Action
    next(os::ThreadContext &) override
    {
        if (_pos < _script.size())
            return _script[_pos++];
        return os::Action::makeExit();
    }

  private:
    std::vector<os::Action> _script;
    std::size_t _pos = 0;
};

/** A thread program delegating to a lambda. */
class LambdaProgram : public os::ThreadProgram
{
  public:
    using Fn = std::function<os::Action(os::ThreadContext &)>;

    explicit LambdaProgram(Fn fn) : _fn(std::move(fn)) {}

    os::Action
    next(os::ThreadContext &ctx) override
    {
        return _fn(ctx);
    }

  private:
    Fn _fn;
};

/** Collects the sync-event trace for assertions. */
class TraceCollector : public os::SyncListener
{
  public:
    void
    onSyncEvent(const os::SyncEvent &ev, const os::System &) override
    {
        events.push_back(ev);
    }

    /** Count events of one kind. */
    std::size_t
    count(os::SyncEventKind kind) const
    {
        std::size_t n = 0;
        for (const auto &e : events) {
            if (e.kind == kind)
                ++n;
        }
        return n;
    }

    std::vector<os::SyncEvent> events;
};

/** Convenience: add a scripted thread. */
inline os::ThreadId
addScript(os::System &sys, const std::string &name,
          std::vector<os::Action> script, bool service = false)
{
    return sys.addThread(name,
                         std::make_unique<ScriptProgram>(std::move(script)),
                         service);
}

/**
 * Resealed-mutation fuzz of a digested format (.dvfstrace, DVFSRPC1):
 * both put a 24-byte header first whose bytes 16..23 hold the FNV-1a
 * digest of everything after it. Each payload byte of @p good is set
 * in turn to b^1, 0x00 and 0xFF and the digest is resealed, so the
 * decoder's field checks, not the digest, meet the hostile bytes.
 * Each outcome of @p roundTrip (decode, then re-encode) is folded into
 * the returned digest: the kind and offset of the Error it throws, or
 * the bytes it returns.
 */
template <class Error, class RoundTrip>
std::uint64_t
resealedMutationDigest(const std::vector<std::uint8_t> &good,
                       RoundTrip &&roundTrip)
{
    constexpr std::size_t kHeader = 24;
    sim::Fnv1a outcomes;
    sim::Fnv1a prefix;  // digest of the payload bytes before `off`
    for (std::size_t off = kHeader; off < good.size(); ++off) {
        const std::uint8_t was = good[off];
        for (const std::uint8_t b :
             {static_cast<std::uint8_t>(was ^ 1), std::uint8_t{0x00},
              std::uint8_t{0xff}}) {
            std::vector<std::uint8_t> bad = good;
            bad[off] = b;
            sim::Fnv1a seal = prefix;
            seal.mixBytes(bad.data() + off, bad.size() - off);
            for (int i = 0; i < 8; ++i)
                bad[16 + static_cast<std::size_t>(i)] =
                    static_cast<std::uint8_t>(seal.digest() >> (8 * i));
            try {
                const std::vector<std::uint8_t> back = roundTrip(bad);
                outcomes.mix(back.size());
                outcomes.mixBytes(back.data(), back.size());
            } catch (const Error &e) {
                outcomes.mix(static_cast<std::uint64_t>(e.kind()));
                outcomes.mix(e.offset());
            }
        }
        prefix.mixBytes(&was, 1);
    }
    return outcomes.digest();
}

} // namespace dvfs::test

#endif // DVFS_TESTS_TEST_UTIL_HH
