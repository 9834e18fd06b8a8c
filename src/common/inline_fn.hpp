// Move-only type-erased `void()` callable with inline storage.
//
// Both backends' event paths carry one: exec::SmallFn crosses the Context
// timer boundary, and sim::EventCallable is what the Scheduler stores in
// its slot pool (src/sim/scheduler.hpp). A callable up to kInlineSize
// bytes whose alignment is at most kAlign is stored in place; a larger one
// falls back to one heap allocation. Routine protocol timers, delivery
// records and timer guards all fit inline, so they never touch the heap.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "common/hot.hpp"

namespace wanmc {

template <size_t kSize, size_t kAlign>
class InlineFn {
 public:
  static constexpr size_t kInlineSize = kSize;

  InlineFn() = default;

  template <class F,
            class = std::enable_if_t<!std::is_same_v<std::decay_t<F>, InlineFn>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  InlineFn(InlineFn&& o) noexcept { moveFrom(o); }
  InlineFn& operator=(InlineFn&& o) noexcept {
    if (this != &o) {
      reset();
      moveFrom(o);
    }
    return *this;
  }
  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;
  ~InlineFn() { reset(); }

  explicit operator bool() const { return vt_ != nullptr; }
  void operator()() { vt_->call(buf_); }

  void reset() {
    if (vt_ != nullptr) {
      // Routine events (delivery records, POD timer guards) are trivially
      // destructible: skip the indirect destroy call for them.
      if (!vt_->trivialDestroy) vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

 private:
  struct VTable {
    void (*call)(void*);
    void (*destroy)(void*);
    void (*relocate)(void* src, void* dst);  // move into dst, destroy src
    bool trivialDestroy;
  };

  template <class D>
  static constexpr bool kFitsInline =
      sizeof(D) <= kSize && alignof(D) <= kAlign &&
      std::is_nothrow_move_constructible_v<D>;

  template <class F>
  WANMC_HOT void emplace(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      static constexpr VTable vt{
          [](void* p) { (*static_cast<D*>(p))(); },
          [](void* p) { static_cast<D*>(p)->~D(); },
          [](void* src, void* dst) {
            ::new (dst) D(std::move(*static_cast<D*>(src)));
            static_cast<D*>(src)->~D();
          },
          std::is_trivially_destructible_v<D>};
      vt_ = &vt;
    } else {
      // wanmc-lint: allow(D5): cold fallback for callables beyond the
      // inline buffer; every routine event type fits inline
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      static constexpr VTable vt{
          [](void* p) { (**static_cast<D**>(p))(); },
          [](void* p) { delete *static_cast<D**>(p); },
          [](void* src, void* dst) {
            ::new (dst) D*(*static_cast<D**>(src));
          },
          false};
      vt_ = &vt;
    }
  }

  void moveFrom(InlineFn& o) {
    vt_ = o.vt_;
    if (vt_ != nullptr) {
      vt_->relocate(o.buf_, buf_);
      o.vt_ = nullptr;
    }
  }

  alignas(kAlign) unsigned char buf_[kSize];
  const VTable* vt_ = nullptr;
};

}  // namespace wanmc
