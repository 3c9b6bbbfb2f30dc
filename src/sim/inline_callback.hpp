// Small-buffer-optimized, move-only callable for the event kernel's hot path.
//
// std::function costs the kernel a heap allocation per scheduled event the
// moment a capture outgrows its (implementation-defined, typically 16-byte)
// internal buffer — which the kernel's busiest storage-system callbacks
// do: the trace replay's arrival cursor is 32 bytes and the batch tick 40.
// InlineCallback sizes its buffer so those stay inline:
//
//   * 48 bytes of aligned inline storage + one ops pointer = 64 bytes, one
//     cache line per slot-pool entry;
//   * captures over 48 bytes (or over-aligned ones) still work — they fall
//     back to a single heap allocation, exactly what std::function would do;
//   * move-only: the kernel never copies callbacks, and dropping copyability
//     admits move-only captures (unique_ptr and friends) that std::function
//     rejects outright.
//
// Dispatch is a hand-rolled ops table (invoke / relocate / destroy) instead
// of a virtual or std::function's manager-function scheme: three direct
// function pointers, no RTTI, and `relocate` fuses move-construct +
// destroy-source into one call so slot recycling touches each byte once.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace eas::sim {

class InlineCallback {
 public:
  /// Captures up to this many bytes (and at most max_align_t alignment) are
  /// stored inline; larger ones take one heap allocation.
  static constexpr std::size_t kInlineSize = 48;

  InlineCallback() = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineCallback> &&
                                        std::is_invocable_r_v<void, D&>>>
  InlineCallback(F&& fn) {  // NOLINT(google-explicit-constructor): mirrors
                            // std::function's converting constructor
    construct<F, D>(std::forward<F>(fn));
  }

  /// Constructs a callable directly into the buffer, destroying any current
  /// one — the zero-move path the kernel uses to fill recycled event slots.
  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineCallback> &&
                                        std::is_invocable_r_v<void, D&>>>
  void emplace(F&& fn) {
    reset();
    construct<F, D>(std::forward<F>(fn));
  }

  /// True when scheduling an `F` costs no heap allocation: it fits the
  /// inline buffer, or it already is an InlineCallback (moved, not
  /// re-wrapped).
  template <typename F>
  static constexpr bool stores_inline() {
    using D = std::decay_t<F>;
    if constexpr (std::is_same_v<D, InlineCallback>) {
      return true;
    } else {
      return fits_inline<D>();
    }
  }

  InlineCallback(InlineCallback&& other) noexcept { move_from(other); }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { reset(); }

  /// True when a callable is held. Invoking an empty callback is UB (the
  /// kernel rejects empty callbacks at schedule time).
  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage()); }

  /// Invokes the callable and destroys it in a single dispatch, leaving the
  /// callback empty. Saves one indirect call on the kernel's fire path over
  /// `operator()` + destructor. The callable is destroyed even if it throws.
  void consume() {
    const Ops* ops = ops_;
    ops_ = nullptr;
    ops->invoke_destroy(storage());
  }

  /// Destroys the held callable (if any), leaving the callback empty —
  /// `*this = InlineCallback{}` without the temporary.
  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(storage());
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* src);
    /// Invokes then destroys `src` (destruction guaranteed on throw too).
    void (*invoke_destroy)(void* src);
    /// Move-constructs into `dst` (raw storage) and destroys `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    /// nullptr when destruction is a no-op (trivially destructible inline
    /// callable) — reset() skips the indirect call entirely, which matters
    /// on the cancel path where it would be the only dispatch.
    void (*destroy)(void* src) noexcept;
  };

  template <typename F, typename D>
  void construct(F&& fn) {
    if constexpr (fits_inline<D>()) {
      ::new (storage()) D(std::forward<F>(fn));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (storage()) D*(new D(std::forward<F>(fn)));  // det-ok: documented fallback for >48B captures; kernel lambdas stay inline
      ops_ = &kHeapOps<D>;
    }
  }

  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineSize &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* src) { (*static_cast<D*>(src))(); },
      [](void* src) {
        D* f = static_cast<D*>(src);
        struct Guard {  // destroy on both the return and the throw path
          D* f;
          ~Guard() { f->~D(); }
        } guard{f};
        (*f)();
      },
      [](void* dst, void* src) noexcept {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      },
      std::is_trivially_destructible_v<D>
          ? nullptr
          : +[](void* src) noexcept { static_cast<D*>(src)->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* src) { (**static_cast<D**>(src))(); },
      [](void* src) {
        D* f = *static_cast<D**>(src);
        struct Guard {
          D* f;
          ~Guard() { delete f; }
        } guard{f};
        (*f)();
      },
      [](void* dst, void* src) noexcept {
        ::new (dst) D*(*static_cast<D**>(src));
      },
      [](void* src) noexcept { delete *static_cast<D**>(src); },
  };

  void* storage() { return static_cast<void*>(storage_); }

  void move_from(InlineCallback& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(storage(), other.storage());
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

static_assert(sizeof(InlineCallback) == 64,
              "one cache line per callback: 48B inline buffer + ops pointer");

}  // namespace eas::sim
