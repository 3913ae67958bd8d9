// Hierarchical hashed timer wheel for the real-time event loop.
//
// The previous RealEventLoop kept its timers in a std::map ordered by
// (deadline, id): O(log n) insert/cancel, one tree-node allocation per
// schedule, and pointer-chasing on every poll. A resolver under load
// schedules and cancels timers constantly (flush ticks, retransmit budgets,
// soft-state refresh), so the real-socket fast path replaces the map with the
// classic kernel structure: four levels of 256 slots at a 1.024 ms tick.
// Insert and cancel are O(1); a tick fires exactly the slot that came due and
// cascades one higher-level slot per 256-tick epoch. Timer nodes live in a
// pooled free list and TaskIds embed (slot index, generation), so a
// steady-state schedule/fire/cancel cycle performs no heap allocation — a
// prerequisite for the transport's zero-allocation hot path, which schedules
// a flush task per batch.
//
// Single-threaded, like the loop that owns it. Callbacks fired by Advance()
// may freely Schedule() and Cancel() on the same wheel; they must not call
// Advance() reentrantly.

#ifndef INS_TRANSPORT_TIMER_WHEEL_H_
#define INS_TRANSPORT_TIMER_WHEEL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>

#include "ins/common/clock.h"
#include "ins/common/executor.h"

namespace ins {

class TimerWheel {
 public:
  static constexpr int kLevels = 4;
  static constexpr uint64_t kSlotsPerLevel = 256;
  static constexpr int kTickShift = 10;  // 1 tick = 1024 us (~1 ms)

  explicit TimerWheel(TimePoint now) : current_tick_(TickOf(now)) {}

  // Registers `fn` to fire once Advance() reaches `when`. A deadline at or
  // before the wheel's current position fires on the next Advance().
  TaskId Schedule(TimePoint when, std::function<void()> fn);

  // Returns false if the timer already fired or was already cancelled.
  bool Cancel(TaskId id);

  // Fires every timer due at or before `now`, in tick order (order within one
  // 1 ms tick is insertion order per slot, not global). Returns count fired.
  size_t Advance(TimePoint now);

  // Earliest instant any live timer could be due, or nullopt when the wheel
  // is empty. The bound is conservative: it may be earlier than the true
  // deadline (higher levels are slot-granular), never later — a caller using
  // it as a poll timeout can wake early and re-poll, but never oversleeps.
  std::optional<TimePoint> NextDueBound() const;

  size_t live() const { return live_; }
  // Pool occupancy (free + in-use nodes): tests pin that steady-state
  // schedule/fire cycles reuse nodes instead of growing the pool.
  size_t pool_size() const { return pool_.size(); }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  struct Node {
    std::function<void()> fn;
    uint64_t due_tick = 0;
    uint32_t generation = 0;
    uint32_t next = kNil;
    bool cancelled = false;
    bool freed = true;
  };

  struct Slot {
    uint32_t head = kNil;
    uint32_t tail = kNil;
  };

  static uint64_t TickOf(TimePoint t) {
    int64_t us = t.count();
    return us <= 0 ? 0 : static_cast<uint64_t>(us) >> kTickShift;
  }

  uint32_t AllocNode();
  void FreeNode(uint32_t idx);
  void Append(Slot* slot, uint32_t idx);
  // Places a live node into the slot its due_tick maps to from
  // current_tick_; deadlines at or before the current tick go to due_.
  void Place(uint32_t idx);
  // Detaches a slot's list and returns its head.
  uint32_t Take(Slot* slot);
  // Fires (or discards, if cancelled) every node in the detached list.
  size_t FireList(uint32_t head);
  // Re-places every node of the level-`level` slot indexed by current_tick_.
  void CascadeLevel(int level);

  uint64_t current_tick_;
  size_t live_ = 0;
  // Deque: node pointers/indices stay valid as the pool grows mid-fire.
  std::deque<Node> pool_;
  uint32_t free_head_ = kNil;  // free list, threaded through Node::next
  Slot slots_[kLevels][kSlotsPerLevel];
  size_t level_nodes_[kLevels] = {0, 0, 0, 0};
  Slot due_;  // already-due timers, fired first by the next Advance()
  size_t due_nodes_ = 0;
};

}  // namespace ins

#endif  // INS_TRANSPORT_TIMER_WHEEL_H_
