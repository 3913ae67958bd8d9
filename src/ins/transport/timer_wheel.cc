#include "ins/transport/timer_wheel.h"

#include <cassert>

namespace ins {

uint32_t TimerWheel::AllocNode() {
  uint32_t idx = free_head_;
  if (idx != kNil) {
    free_head_ = pool_[idx].next;
  } else {
    idx = static_cast<uint32_t>(pool_.size());
    pool_.emplace_back();
  }
  Node& n = pool_[idx];
  n.freed = false;
  n.cancelled = false;
  n.next = kNil;
  return idx;
}

void TimerWheel::FreeNode(uint32_t idx) {
  Node& n = pool_[idx];
  n.fn = nullptr;
  n.freed = true;
  ++n.generation;
  // A freed node is in no slot list, so its link threads the free list.
  n.next = free_head_;
  free_head_ = idx;
}

void TimerWheel::Append(Slot* slot, uint32_t idx) {
  pool_[idx].next = kNil;
  if (slot->head == kNil) {
    slot->head = slot->tail = idx;
  } else {
    pool_[slot->tail].next = idx;
    slot->tail = idx;
  }
}

void TimerWheel::Place(uint32_t idx) {
  Node& n = pool_[idx];
  if (n.due_tick <= current_tick_) {
    Append(&due_, idx);
    ++due_nodes_;
    return;
  }
  const uint64_t delta = n.due_tick - current_tick_;
  int level = 0;
  uint64_t span = kSlotsPerLevel;  // ticks covered by levels 0..level
  while (level + 1 < kLevels && delta >= span) {
    ++level;
    span <<= 8;
  }
  // Beyond the top level's horizon the node is parked in the farthest slot it
  // can reach; each cascade re-places it by its true deadline.
  uint64_t place_tick = n.due_tick;
  if (delta >= span) {
    place_tick = current_tick_ + span - 1;
  }
  const size_t slot_index = (place_tick >> (8 * level)) & (kSlotsPerLevel - 1);
  Append(&slots_[level][slot_index], idx);
  ++level_nodes_[level];
}

uint32_t TimerWheel::Take(Slot* slot) {
  uint32_t head = slot->head;
  slot->head = slot->tail = kNil;
  return head;
}

TaskId TimerWheel::Schedule(TimePoint when, std::function<void()> fn) {
  const uint32_t idx = AllocNode();
  Node& n = pool_[idx];
  n.fn = std::move(fn);
  n.due_tick = TickOf(when);
  Place(idx);
  ++live_;
  return (static_cast<uint64_t>(n.generation) << 32) | (idx + 1);
}

bool TimerWheel::Cancel(TaskId id) {
  const uint64_t low = id & 0xFFFFFFFFu;
  if (low == 0 || low > pool_.size()) {
    return false;
  }
  const uint32_t idx = static_cast<uint32_t>(low - 1);
  Node& n = pool_[idx];
  if (n.freed || n.cancelled || n.generation != static_cast<uint32_t>(id >> 32)) {
    return false;
  }
  // The node stays linked in its slot (no back-pointers to unlink O(1));
  // firing or cascading past the slot reclaims it.
  n.cancelled = true;
  n.fn = nullptr;
  --live_;
  return true;
}

size_t TimerWheel::FireList(uint32_t head) {
  size_t fired = 0;
  uint32_t idx = head;
  while (idx != kNil) {
    Node& n = pool_[idx];
    const uint32_t next = n.next;
    const bool run = !n.cancelled;
    std::function<void()> fn = std::move(n.fn);
    if (run) {
      --live_;
    }
    // Free before firing: the callback may immediately reschedule and reuse
    // this node (the steady-state allocation-free cycle).
    FreeNode(idx);
    if (run) {
      fn();
      ++fired;
    }
    idx = next;
  }
  return fired;
}

void TimerWheel::CascadeLevel(int level) {
  const size_t slot_index = (current_tick_ >> (8 * level)) & (kSlotsPerLevel - 1);
  uint32_t idx = Take(&slots_[level][slot_index]);
  while (idx != kNil) {
    Node& n = pool_[idx];
    const uint32_t next = n.next;
    --level_nodes_[level];
    if (n.cancelled) {
      FreeNode(idx);
    } else {
      Place(idx);
    }
    idx = next;
  }
}

size_t TimerWheel::Advance(TimePoint now) {
  size_t fired = 0;
  if (due_nodes_ > 0) {
    due_nodes_ = 0;
    fired += FireList(Take(&due_));
  }
  const uint64_t target = TickOf(now);
  while (current_tick_ < target) {
    ++current_tick_;
    if ((current_tick_ & (kSlotsPerLevel - 1)) == 0) {
      // A new level-1 epoch; cascade the deepest level that wrapped first so
      // its timers trickle down through the levels below in one pass.
      int deepest = 1;
      while (deepest + 1 < kLevels &&
             ((current_tick_ >> (8 * deepest)) & (kSlotsPerLevel - 1)) == 0) {
        ++deepest;
      }
      for (int level = deepest; level >= 1; --level) {
        CascadeLevel(level);
      }
    }
    const size_t slot_index = current_tick_ & (kSlotsPerLevel - 1);
    uint32_t head = slots_[0][slot_index].head;
    if (head != kNil) {
      size_t drained = 0;
      for (uint32_t i = head; i != kNil; i = pool_[i].next) {
        ++drained;
      }
      level_nodes_[0] -= drained;
      Take(&slots_[0][slot_index]);
      fired += FireList(head);
    }
    // Cascading (or a fired callback) may have queued same-tick work.
    if (due_nodes_ > 0) {
      due_nodes_ = 0;
      fired += FireList(Take(&due_));
    }
  }
  return fired;
}

std::optional<TimePoint> TimerWheel::NextDueBound() const {
  if (due_nodes_ > 0) {
    return TimePoint(static_cast<int64_t>(current_tick_) << kTickShift);
  }
  for (int level = 0; level < kLevels; ++level) {
    if (level_nodes_[level] == 0) {
      continue;
    }
    const uint64_t base = current_tick_ >> (8 * level);
    for (uint64_t k = 1; k <= kSlotsPerLevel; ++k) {
      const Slot& s = slots_[level][(base + k) & (kSlotsPerLevel - 1)];
      if (s.head != kNil) {
        const uint64_t slot_start_tick = (base + k) << (8 * level);
        return TimePoint(static_cast<int64_t>(slot_start_tick) << kTickShift);
      }
    }
  }
  return std::nullopt;
}

}  // namespace ins
