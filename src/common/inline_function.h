/**
 * @file
 * Allocation-free std::function replacement for simulator hot paths.
 *
 * std::function heap-allocates any capture larger than its small
 * buffer (16 B on libstdc++) and pays a manager-function call on every
 * move and destroy.  The simulator's callback surfaces -- link
 * flow-control wakeups, RX-available notifications, the chain
 * forwarder -- fire millions of times per simulated second, and none
 * of their captures is larger than a few pointers, so paying
 * std::function's type-erasure overhead (and leaving an allocation
 * landmine for larger captures) buys nothing.
 *
 * InlineFunction<R(Args...), Capacity> stores the capture inline in a
 * fixed buffer and rejects anything bigger at compile time, so
 * assigning a callback never allocates and growing a capture past the
 * budget is a build error at the capture site, not a silent fallback
 * to malloc.  Instances are move-only; a move transfers the capture
 * and empties the source.
 *
 * The event queue's InlineEvent is the `void()` instantiation of this
 * template (see sim/inline_event.h for the capacity rationale there).
 */

#ifndef HMCSIM_COMMON_INLINE_FUNCTION_H_
#define HMCSIM_COMMON_INLINE_FUNCTION_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace hmcsim {

/**
 * Default inline capture capacity in bytes: four pointers, enough for
 * every callback capture in the tree today.  Instantiate with a larger
 * Capacity deliberately where a bigger capture is genuinely needed.
 */
constexpr std::size_t kInlineFunctionCapacity = 32;

template <typename Sig, std::size_t Capacity = kInlineFunctionCapacity>
class InlineFunction;  // undefined; only the R(Args...) partial
                       // specialization below exists

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity>
{
  public:
    InlineFunction() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction>>>
    InlineFunction(F &&fn)  // NOLINT: implicit, mirrors std::function
    {
        construct(std::forward<F>(fn));
    }

    InlineFunction(InlineFunction &&other) noexcept : ops_(other.ops_)
    {
        if (ops_) {
            ops_->relocate(buf_, other.buf_);
            other.ops_ = nullptr;
        }
    }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            if (ops_)
                ops_->destroy(buf_);
            ops_ = other.ops_;
            if (ops_) {
                ops_->relocate(buf_, other.buf_);
                other.ops_ = nullptr;
            }
        }
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction()
    {
        if (ops_)
            ops_->destroy(buf_);
    }

    /**
     * Build @p fn's capture directly in this (empty or not) function,
     * with no intermediate InlineFunction to relocate from.
     */
    template <typename F>
    void
    emplace(F &&fn)
    {
        reset();
        if constexpr (std::is_same_v<std::decay_t<F>, InlineFunction>)
            *this = std::forward<F>(fn);
        else
            construct(std::forward<F>(fn));
    }

    /** Destroy the held capture, if any. */
    void
    reset()
    {
        if (ops_) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    /** True when a callable is held (mirrors std::function). */
    explicit operator bool() const { return ops_ != nullptr; }

    /** Invoke the capture.  Undefined on an empty function. */
    R
    operator()(Args... args)
    {
        return ops_->invoke(buf_, std::forward<Args>(args)...);
    }

  private:
    template <typename F>
    void
    construct(F &&fn)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= Capacity,
                      "callback capture exceeds this InlineFunction's "
                      "inline capacity; raise it deliberately");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "over-aligned callback capture");
        static_assert(std::is_nothrow_move_constructible_v<Fn>,
                      "callback captures must be nothrow-movable");
        static_assert(std::is_invocable_r_v<R, Fn &, Args...>,
                      "callable does not match this InlineFunction's "
                      "signature");
        new (buf_) Fn(std::forward<F>(fn));
        ops_ = &OpsFor<Fn>::ops;
    }

    struct Ops {
        R (*invoke)(void *self, Args... args);
        /** Move-construct dst from src, then destroy src. */
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *self);
    };

    template <typename Fn>
    struct OpsFor {
        static R
        invoke(void *self, Args... args)
        {
            return (*static_cast<Fn *>(self))(
                std::forward<Args>(args)...);
        }
        static void
        relocate(void *dst, void *src)
        {
            Fn *s = static_cast<Fn *>(src);
            new (dst) Fn(std::move(*s));
            s->~Fn();
        }
        static void
        destroy(void *self)
        {
            static_cast<Fn *>(self)->~Fn();
        }
        static constexpr Ops ops{&invoke, &relocate, &destroy};
    };

    const Ops *ops_ = nullptr;
    alignas(std::max_align_t) unsigned char buf_[Capacity];
};

}  // namespace hmcsim

#endif  // HMCSIM_COMMON_INLINE_FUNCTION_H_
