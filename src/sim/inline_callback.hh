/**
 * @file
 * Fixed-capacity, allocation-free callable storage for the event
 * kernel.
 *
 * `std::function` type-erases into heap storage as soon as a capture
 * list outgrows its small-buffer optimization (16 bytes in libstdc++),
 * which put one malloc/free pair on the path of nearly every simulated
 * event. InlineCallback trades that generality for a hard contract:
 * the callable is constructed directly inside the object, and a
 * capture list that does not fit, or that is not a plain bundle of
 * bytes (trivially copyable and trivially destructible), is a
 * *compile-time* error at its schedule site. Because every stored
 * callable is plain bytes, an InlineCallback is itself trivially
 * copyable: the event heap copies callbacks with its keys, and there
 * is no move or destroy hook to call.
 */

#ifndef DVFS_SIM_INLINE_CALLBACK_HH
#define DVFS_SIM_INLINE_CALLBACK_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace dvfs::sim {

/**
 * A trivially copyable `void()` callable with @p Capacity bytes of
 * inline storage and no heap fallback: an invoke pointer plus the
 * capture bytes.
 *
 * Requirements on the stored callable F, all checked statically:
 *  - sizeof(F) <= Capacity and alignof(F) <= alignof(void *)
 *  - trivially copyable and trivially destructible (captures are
 *    pointers, ticks and other plain values)
 *
 * Invoking an empty callback is undefined.
 */
template <std::size_t Capacity>
class InlineCallback
{
  public:
    /** Construct a callable in place, replacing any current one. */
    template <typename F>
    void
    emplace(F &&f)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= Capacity,
                      "callback captures exceed InlineCallback capacity; "
                      "shrink the capture list "
                      "(see sim/event_queue.hh: kEventCallbackBytes)");
        static_assert(alignof(Fn) <= alignof(void *),
                      "callback requires more than pointer alignment");
        static_assert(std::is_trivially_copyable_v<Fn> &&
                          std::is_trivially_destructible_v<Fn>,
                      "callback captures must be trivially copyable and "
                      "trivially destructible (pointers and plain values)");
        ::new (static_cast<void *>(_buf)) Fn(std::forward<F>(f));
        _invoke = &invokeAs<Fn>;
    }

    /** Invoke. Undefined if empty. */
    void operator()() { _invoke(_buf); }

  private:
    template <typename Fn>
    static void
    invokeAs(void *p)
    {
        (*static_cast<Fn *>(p))();
    }

    void (*_invoke)(void *) = nullptr;
    alignas(void *) std::byte _buf[Capacity];
};

} // namespace dvfs::sim

#endif // DVFS_SIM_INLINE_CALLBACK_HH
