// Task scheduling abstractions.
//
// Timers (soft-state expiry sweeps, periodic advertisement refresh, periodic
// routing updates) are scheduled through an Executor so the same code runs
// under virtual time in the simulator and real time in live deployments.

#ifndef INS_COMMON_EXECUTOR_H_
#define INS_COMMON_EXECUTOR_H_

#include <cstdint>
#include <functional>

#include "ins/common/clock.h"

namespace ins {

// Opaque handle identifying a scheduled task; 0 is never a valid id.
using TaskId = uint64_t;
inline constexpr TaskId kInvalidTaskId = 0;

class Executor {
 public:
  virtual ~Executor() = default;

  // Runs `fn` at absolute time `when` (clamped to Now() if in the past).
  virtual TaskId ScheduleAt(TimePoint when, std::function<void()> fn) = 0;

  // Runs `fn` after `delay` from now.
  TaskId ScheduleAfter(Duration delay, std::function<void()> fn) {
    return ScheduleAt(Now() + delay, std::move(fn));
  }

  // Cancels a pending task. Returns false if it already ran or was cancelled.
  virtual bool Cancel(TaskId id) = 0;

  // The executor's notion of current time.
  virtual TimePoint Now() const = 0;
};

}  // namespace ins

#endif  // INS_COMMON_EXECUTOR_H_
