// InlineFn<R(Args...)>: a move-only callable with small-buffer storage.
//
// std::function's 16-byte libstdc++ buffer forces a heap allocation for
// almost every capture that names more than two locals, and fleet-scale
// code paths (one failure hook per device, one per-site closure per
// deployment, hundreds of millions of scheduled events per century-scale
// ensemble) cannot afford one allocation per entity. InlineFn widens the
// inline budget to 48 bytes and only falls back to the heap for oversized
// or potentially-throwing-move captures.
//
// The scheduler's EventFn is `using EventFn = InlineFn<void()>;`
// (src/sim/event_pool.h), where
// `static_assert(sizeof(EventFn) == 56 && sizeof(EventPool::Slot) == 64)`
// holds the layout the event pool depends on: one closure plus its
// category per 64-byte cache line.
//
// Contract:
//   * Move-only: single ownership of the capture.
//   * Moving is always noexcept: inline targets must be nothrow-move-
//     constructible (enforced via the heap fallback), heap targets move by
//     pointer swap. std::vector<InlineFn> relocates without copy-fallback.
//   * Invoking an empty InlineFn is undefined; test with operator bool.

#ifndef SRC_SIM_INLINE_FN_H_
#define SRC_SIM_INLINE_FN_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace centsim {

template <typename Signature>
class InlineFn;

template <typename R, typename... Args>
class InlineFn<R(Args...)> {
 public:
  // Inline capture budget. 48 bytes holds six pointers/references — a
  // device pointer, a couple of ids, and a time comfortably fit. Alignment
  // is capped at pointer alignment so an InlineFn is 56 bytes; over-aligned
  // captures take the heap path.
  static constexpr std::size_t kInlineSize = 48;
  static constexpr std::size_t kInlineAlign = alignof(void*);

  InlineFn() noexcept = default;
  InlineFn(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFn> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  InlineFn(F&& f) {  // NOLINT(runtime/explicit)
    Emplace(std::forward<F>(f));
  }

  // Constructs the target in place (precondition: *this is empty or about
  // to be overwritten).
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFn> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  void Emplace(F&& f) {
    if constexpr (sizeof(D) <= kInlineSize && alignof(D) <= kInlineAlign &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(storage_.buf)) D(std::forward<F>(f));
      vtable_ = &InlineVTable<D>::table;
    } else {
      storage_.heap = new D(std::forward<F>(f));
      vtable_ = &HeapVTable<D>::table;
    }
  }

  InlineFn(InlineFn&& other) noexcept : vtable_(other.vtable_) {
    if (vtable_ != nullptr) {
      MoveFrom(other);
    }
  }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      Reset();
      vtable_ = other.vtable_;
      if (vtable_ != nullptr) {
        MoveFrom(other);
      }
    }
    return *this;
  }

  InlineFn& operator=(std::nullptr_t) noexcept {
    Reset();
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { Reset(); }

  R operator()(Args... args) {
    return vtable_->invoke(storage_, std::forward<Args>(args)...);
  }

  explicit operator bool() const noexcept { return vtable_ != nullptr; }

  // True when the target lives in the inline buffer (no heap allocation).
  // Exposed so tests and the allocation harness can assert the budget.
  bool is_inline() const noexcept { return vtable_ != nullptr && vtable_->inline_storage; }

 private:
  union Storage {
    alignas(kInlineAlign) unsigned char buf[kInlineSize];
    void* heap;
  };

  struct VTable {
    R (*invoke)(Storage&, Args&&...);
    // Move-constructs `to` from `from` and destroys `from`'s target.
    void (*relocate)(Storage& from, Storage& to) noexcept;
    void (*destroy)(Storage&) noexcept;
    bool inline_storage;
    // Trivially copyable+destructible inline target: the hot path skips
    // both dispatches (memcpy to move, nothing to destroy).
    bool trivial;
  };

  template <typename D>
  struct InlineVTable {
    static D& Target(Storage& s) noexcept {
      return *std::launder(reinterpret_cast<D*>(s.buf));
    }
    static R Invoke(Storage& s, Args&&... args) {
      return Target(s)(std::forward<Args>(args)...);
    }
    static void Relocate(Storage& from, Storage& to) noexcept {
      ::new (static_cast<void*>(to.buf)) D(std::move(Target(from)));
      Target(from).~D();
    }
    static void Destroy(Storage& s) noexcept { Target(s).~D(); }
    static constexpr VTable table{Invoke, Relocate, Destroy, /*inline_storage=*/true,
                                  std::is_trivially_copyable_v<D> &&
                                      std::is_trivially_destructible_v<D>};
  };

  template <typename D>
  struct HeapVTable {
    static D& Target(Storage& s) noexcept { return *static_cast<D*>(s.heap); }
    static R Invoke(Storage& s, Args&&... args) {
      return Target(s)(std::forward<Args>(args)...);
    }
    static void Relocate(Storage& from, Storage& to) noexcept { to.heap = from.heap; }
    static void Destroy(Storage& s) noexcept { delete static_cast<D*>(s.heap); }
    static constexpr VTable table{Invoke, Relocate, Destroy, /*inline_storage=*/false,
                                  /*trivial=*/false};
  };

  void MoveFrom(InlineFn& other) noexcept {
    if (vtable_->trivial) {
      storage_ = other.storage_;  // memcpy of the inline buffer.
    } else {
      vtable_->relocate(other.storage_, storage_);
    }
    other.vtable_ = nullptr;
  }

  void Reset() noexcept {
    if (vtable_ != nullptr) {
      if (!vtable_->trivial) {
        vtable_->destroy(storage_);
      }
      vtable_ = nullptr;
    }
  }

  Storage storage_;
  const VTable* vtable_ = nullptr;
};

}  // namespace centsim

#endif  // SRC_SIM_INLINE_FN_H_
