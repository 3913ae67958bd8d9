// FlightRecorder: an always-on, allocation-free ring of SYSTEM events.
//
// Packet tracing (common/trace.h) explains what happened to one sampled
// packet; the flight recorder explains what happened to the NODE: overload
// shedding switching on and off, replica-set members dying and failing over,
// journal transfers falling back to snapshots, overlay edges breaking and
// repairing, resolvers restarting. Each node records into a fixed-capacity
// overwrite-oldest ring (same discipline as TraceRing: bounded memory
// however long a soak runs, newest events win). Recording an event is a few
// stores — details have static storage, nothing allocates — so it stays on
// in production and in every chaos soak.
//
// On a failure the harness merges every node's ring (including rings
// harvested from crashed nodes) into one causally-ordered incident timeline
// (simulated time is a single global clock) and dumps it next to the trace
// journeys — the "what was the system doing when the packet vanished" half
// of the forensics.

#ifndef INS_COMMON_FLIGHT_RECORDER_H_
#define INS_COMMON_FLIGHT_RECORDER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ins/common/clock.h"
#include "ins/common/node_address.h"

namespace ins {

enum class FlightEventKind : uint8_t {
  kShedOnset = 0,        // admission started shedding; value = load signal us
  kShedClear = 1,        // admission stopped shedding; value = load signal us
  kReplicaDead = 2,      // digest silence declared peer dead; peer = who
  kReplicaAlive = 3,     // a declared-dead replica digested again; peer = who
  kSnapshotFallback = 4, // journal delta impossible, full snapshot; peer = who
  kEdgeDown = 5,         // overlay neighbor lost; peer = who
  kEdgeRepair = 6,       // overlay neighbor (re)established; peer = who
  kParentLost = 7,       // the join parent died; the node re-runs the join
  // 8 and 9 are retired (pacer backoff/release); the values stay unused.
  kInrStart = 10,        // resolver started (first start or restart)
  kInrStop = 11,         // graceful stop
  kInrCrash = 12,        // injected silent death
};

std::string_view FlightEventKindName(FlightEventKind kind);

enum class FlightSeverity : uint8_t {
  kInfo = 0,
  kWarning = 1,
  kCritical = 2,
};

std::string_view FlightSeverityName(FlightSeverity severity);

struct FlightEvent {
  TimePoint at{0};   // node-local (simulated) time
  NodeAddress node;  // recorder's owner
  FlightEventKind kind = FlightEventKind::kInrStart;
  FlightSeverity severity = FlightSeverity::kInfo;
  // Kind-specific annotation with static storage; never owned, so recording
  // an event allocates nothing.
  const char* detail = "";
  NodeAddress peer;
  uint64_t value = 0;

  std::string ToString() const;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(size_t capacity = 256);

  void Record(const FlightEvent& event);
  // Convenience: fills `at`/`node` and records.
  void Record(TimePoint at, FlightEventKind kind, FlightSeverity severity,
              const char* detail = "", NodeAddress peer = {}, uint64_t value = 0);

  void set_node(NodeAddress node) { node_ = node; }

  // The retained events, oldest first.
  std::vector<FlightEvent> Events() const;

  size_t capacity() const { return ring_.size(); }
  uint64_t recorded() const { return recorded_; }
  uint64_t overwritten() const {
    return recorded_ > ring_.size() ? recorded_ - ring_.size() : 0;
  }
  void Clear();

 private:
  NodeAddress node_;
  std::vector<FlightEvent> ring_;
  uint64_t recorded_ = 0;
};

// Merges per-node event lists into one causally-ordered timeline (simulated
// time is a single global clock; stable order breaks same-instant ties by
// input order). Rendered one event per line:
//   [12.345678s] WARN  10.0.0.2:5678 edge-down peer=10.0.0.3:5678
std::vector<FlightEvent> MergeFlightEvents(std::vector<FlightEvent> events);
std::string FlightTimelineText(const std::vector<FlightEvent>& merged);

}  // namespace ins

#endif  // INS_COMMON_FLIGHT_RECORDER_H_
