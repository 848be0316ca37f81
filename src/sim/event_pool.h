// Slot-indexed pool of pending events with generation-tagged handles.
//
// Every pending event lives in a fixed slot; the public EventId packs
// (slot | generation) into 64 bits:
//
//     bits 63..32  slot index
//     bits 31..0   generation (1-based; bumped every time the slot is
//                  released, skipping 0 on wrap so no id equals
//                  kInvalidEventId)
//
// Cancellation and cancel-after-fire both collapse to one comparison: an
// id is live iff its generation equals the slot's current generation.
// Stale heap entries (cancelled or superseded) are detected the same way
// when popped, so the scheduler needs no cancelled-id set and no
// id → closure map.
//
// Storage is chunked (512 slots per chunk) so growth never relocates a
// live slot. That stability is load-bearing: the scheduler invokes a
// callback *in place* in its slot, and the callback may itself schedule
// events and grow the pool mid-invocation. Generations live in a separate
// flat array so the scheduler's stale-entry checks touch 4 bytes, not the
// 64-byte closure slot. Slots recycle LIFO through a free list, which
// keeps a self-rescheduling event hot in the same cache lines period
// after period.

#ifndef SRC_SIM_EVENT_POOL_H_
#define SRC_SIM_EVENT_POOL_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/inline_fn.h"

namespace centsim {

using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

// The scheduler's callback: any void() callable, stored inline when its
// capture fits InlineFn's 48-byte budget.
using EventFn = InlineFn<void()>;

class EventPool {
 public:
  // Exactly one cache line per slot (EventFn is 56 bytes with its inline
  // buffer; category fills the line) so firing an event touches one line.
  struct alignas(64) Slot {
    EventFn fn;
    const char* category = nullptr;
  };

  EventPool() = default;
  EventPool(const EventPool&) = delete;
  EventPool& operator=(const EventPool&) = delete;

  // Constructs `fn` directly in a free slot (no EventFn move) and returns
  // its generation-tagged id.
  template <typename F>
  EventId Acquire(F&& fn, const char* category) {
    if (free_.empty()) {
      Grow();
    }
    const uint32_t slot = free_.back();
    free_.pop_back();
    Slot& s = at(slot);
    if constexpr (std::is_same_v<std::decay_t<F>, EventFn>) {
      s.fn = std::forward<F>(fn);
    } else {
      s.fn.Emplace(std::forward<F>(fn));  // Slot fn is empty: safe.
    }
    s.category = category;
    return Pack(slot, generations_[slot]);
  }

  // True iff `id` names a live (acquired, not yet released) event.
  bool IsLive(EventId id) const {
    const uint32_t slot = SlotOf(id);
    return slot < generations_.size() && generations_[slot] == GenerationOf(id);
  }

  // Current generation of a slot (heap staleness checks).
  uint32_t generation(uint32_t slot) const { return generations_[slot]; }

  // Hints that `slot` is about to fire: pulls its closure line and
  // generation line toward the cache. Firing writes both.
  void PrefetchSlot(uint32_t slot) const {
    __builtin_prefetch(&chunks_[slot >> kChunkShift][slot & kChunkMask], 1);
    __builtin_prefetch(&generations_[slot], 1);
  }

  // Releases a live slot: destroys the closure now (captures may pin
  // resources), bumps the generation so every outstanding id and heap
  // entry for it goes stale, and recycles the slot. Precondition: live.
  void Release(uint32_t slot) {
    Slot& s = at(slot);
    s.fn = EventFn();
    s.category = nullptr;
    BumpGeneration(slot);
    free_.push_back(slot);
  }

  // Two-phase release around an in-place invocation. BeginFire invalidates
  // the id (a Cancel from inside the running callback must report false)
  // but keeps the slot off the free list so the executing closure cannot
  // be overwritten by events the callback schedules; FinishFire destroys
  // the closure and recycles the slot afterwards.
  void BeginFire(uint32_t slot) { BumpGeneration(slot); }
  void FinishFire(uint32_t slot) {
    Slot& s = at(slot);
    s.fn = EventFn();
    s.category = nullptr;
    free_.push_back(slot);
  }

  Slot& at(uint32_t slot) { return chunks_[slot >> kChunkShift][slot & kChunkMask]; }
  const Slot& at(uint32_t slot) const {
    return chunks_[slot >> kChunkShift][slot & kChunkMask];
  }

  size_t capacity() const { return generations_.size(); }
  size_t live_count() const { return generations_.size() - free_.size(); }

  void Reserve(size_t n);

  static constexpr uint32_t SlotOf(EventId id) { return static_cast<uint32_t>(id >> 32); }
  static constexpr uint32_t GenerationOf(EventId id) { return static_cast<uint32_t>(id); }
  static constexpr EventId Pack(uint32_t slot, uint32_t generation) {
    return (static_cast<EventId>(slot) << 32) | generation;
  }

 private:
  static constexpr uint32_t kChunkShift = 9;  // 512 slots per chunk.
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr uint32_t kChunkMask = kChunkSize - 1;

  void BumpGeneration(uint32_t slot) {
    if (++generations_[slot] == 0) {
      generations_[slot] = 1;  // Skip 0 on wrap: ids must never be kInvalid.
    }
  }

  void Grow();

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<uint32_t> generations_;  // Parallel to slots; 1-based.
  std::vector<uint32_t> free_;         // LIFO: most recently released first.
};

static_assert(sizeof(EventFn) == 56 && sizeof(EventPool::Slot) == 64,
              "a pool slot is one cache line: EventFn plus its category");

}  // namespace centsim

#endif  // SRC_SIM_EVENT_POOL_H_
