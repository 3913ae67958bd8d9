#include "ins/common/flight_recorder.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace ins {

std::string_view FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kShedOnset:
      return "shed-onset";
    case FlightEventKind::kShedClear:
      return "shed-clear";
    case FlightEventKind::kReplicaDead:
      return "replica-dead";
    case FlightEventKind::kReplicaAlive:
      return "replica-alive";
    case FlightEventKind::kSnapshotFallback:
      return "snapshot-fallback";
    case FlightEventKind::kEdgeDown:
      return "edge-down";
    case FlightEventKind::kEdgeRepair:
      return "edge-repair";
    case FlightEventKind::kParentLost:
      return "parent-lost";
    case FlightEventKind::kInrStart:
      return "inr-start";
    case FlightEventKind::kInrStop:
      return "inr-stop";
    case FlightEventKind::kInrCrash:
      return "inr-crash";
  }
  return "?";
}

std::string_view FlightSeverityName(FlightSeverity severity) {
  switch (severity) {
    case FlightSeverity::kInfo:
      return "INFO";
    case FlightSeverity::kWarning:
      return "WARN";
    case FlightSeverity::kCritical:
      return "CRIT";
  }
  return "?";
}

std::string FlightEvent::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "[%" PRId64 ".%06" PRId64 "s] %-4s ", at.count() / 1000000,
                at.count() % 1000000, std::string(FlightSeverityName(severity)).c_str());
  std::string out = buf;
  out += node.ToString();
  out += " ";
  out += FlightEventKindName(kind);
  if (detail != nullptr && detail[0] != '\0') {
    out += " ";
    out += detail;
  }
  if (peer.IsValid()) {
    out += " peer=";
    out += peer.ToString();
  }
  if (value != 0) {
    std::snprintf(buf, sizeof(buf), " value=%" PRIu64, value);
    out += buf;
  }
  return out;
}

FlightRecorder::FlightRecorder(size_t capacity) : ring_(capacity == 0 ? 1 : capacity) {}

void FlightRecorder::Record(const FlightEvent& event) {
  ring_[recorded_ % ring_.size()] = event;
  ++recorded_;
}

void FlightRecorder::Record(TimePoint at, FlightEventKind kind, FlightSeverity severity,
                            const char* detail, NodeAddress peer, uint64_t value) {
  FlightEvent ev;
  ev.at = at;
  ev.node = node_;
  ev.kind = kind;
  ev.severity = severity;
  ev.detail = detail;
  ev.peer = peer;
  ev.value = value;
  Record(ev);
}

std::vector<FlightEvent> FlightRecorder::Events() const {
  std::vector<FlightEvent> out;
  const size_t n = recorded_ < ring_.size() ? static_cast<size_t>(recorded_) : ring_.size();
  out.reserve(n);
  const uint64_t start = recorded_ - n;
  for (uint64_t i = start; i < recorded_; ++i) {
    out.push_back(ring_[i % ring_.size()]);
  }
  return out;
}

void FlightRecorder::Clear() { recorded_ = 0; }

std::vector<FlightEvent> MergeFlightEvents(std::vector<FlightEvent> events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const FlightEvent& a, const FlightEvent& b) { return a.at < b.at; });
  return events;
}

std::string FlightTimelineText(const std::vector<FlightEvent>& merged) {
  std::string out;
  for (const FlightEvent& ev : merged) {
    out += ev.ToString();
    out += "\n";
  }
  return out;
}

}  // namespace ins
