#include "ins/common/flight_recorder.h"

#include <gtest/gtest.h>

#include "ins/common/clock.h"
#include "ins/common/node_address.h"

namespace ins {
namespace {

TimePoint At(int64_t s) { return TimePoint{} + Seconds(s); }
NodeAddress Addr(uint32_t host) { return NodeAddress{0x0a000000u + host, 5678}; }

TEST(FlightRecorderTest, RecordsOldestFirst) {
  FlightRecorder rec(8);
  rec.set_node(Addr(1));
  rec.Record(At(1), FlightEventKind::kInrStart, FlightSeverity::kInfo);
  rec.Record(At(2), FlightEventKind::kShedOnset, FlightSeverity::kWarning, "overload");
  std::vector<FlightEvent> events = rec.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, FlightEventKind::kInrStart);
  EXPECT_EQ(events[1].kind, FlightEventKind::kShedOnset);
  EXPECT_EQ(events[1].node, Addr(1));
  EXPECT_STREQ(events[1].detail, "overload");
}

TEST(FlightRecorderTest, RingOverwritesOldest) {
  FlightRecorder rec(4);
  rec.set_node(Addr(1));
  for (int i = 0; i < 10; ++i) {
    rec.Record(At(i), FlightEventKind::kEdgeDown, FlightSeverity::kWarning, "", Addr(2),
               static_cast<uint64_t>(i));
  }
  EXPECT_EQ(rec.recorded(), 10u);
  EXPECT_EQ(rec.overwritten(), 6u);
  std::vector<FlightEvent> events = rec.Events();
  ASSERT_EQ(events.size(), 4u);
  // The newest four survive, oldest first.
  EXPECT_EQ(events.front().value, 6u);
  EXPECT_EQ(events.back().value, 9u);
}

TEST(FlightRecorderTest, KindAndSeverityNames) {
  EXPECT_EQ(FlightEventKindName(FlightEventKind::kShedOnset), "shed-onset");
  EXPECT_EQ(FlightEventKindName(FlightEventKind::kInrCrash), "inr-crash");
  EXPECT_EQ(FlightSeverityName(FlightSeverity::kInfo), "INFO");
  EXPECT_EQ(FlightSeverityName(FlightSeverity::kCritical), "CRIT");
}

TEST(MergeFlightEventsTest, OrdersByTimeWithStableTies) {
  FlightRecorder a(8);
  a.set_node(Addr(1));
  a.Record(At(5), FlightEventKind::kReplicaDead, FlightSeverity::kCritical, "", Addr(2));
  a.Record(At(9), FlightEventKind::kReplicaAlive, FlightSeverity::kInfo, "", Addr(2));
  FlightRecorder b(8);
  b.set_node(Addr(2));
  b.Record(At(3), FlightEventKind::kInrCrash, FlightSeverity::kCritical);
  b.Record(At(5), FlightEventKind::kInrStart, FlightSeverity::kInfo);

  std::vector<FlightEvent> all = a.Events();
  for (const FlightEvent& ev : b.Events()) {
    all.push_back(ev);
  }
  std::vector<FlightEvent> merged = MergeFlightEvents(std::move(all));
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].kind, FlightEventKind::kInrCrash);
  // Same-instant tie at t=5: input order preserved (a's event first).
  EXPECT_EQ(merged[1].kind, FlightEventKind::kReplicaDead);
  EXPECT_EQ(merged[2].kind, FlightEventKind::kInrStart);
  EXPECT_EQ(merged[3].kind, FlightEventKind::kReplicaAlive);
}

TEST(MergeFlightEventsTest, TimelineTextCarriesEveryEvent) {
  FlightRecorder rec(8);
  rec.set_node(Addr(7));
  rec.Record(At(1), FlightEventKind::kShedOnset, FlightSeverity::kWarning, "", {}, 1500);
  rec.Record(At(2), FlightEventKind::kShedClear, FlightSeverity::kInfo);
  std::string text = FlightTimelineText(MergeFlightEvents(rec.Events()));
  EXPECT_NE(text.find("shed-onset"), std::string::npos);
  EXPECT_NE(text.find("shed-clear"), std::string::npos);
  EXPECT_NE(text.find("10.0.0.7"), std::string::npos);
  EXPECT_NE(text.find("WARN"), std::string::npos);
}

TEST(FlightRecorderTest, RecordingNeverAllocatesDetails) {
  // The detail pointer is stored, not copied: static strings only by
  // contract. Verify the stored pointer is exactly what was passed.
  static const char kDetail[] = "static-detail";
  FlightRecorder rec(2);
  rec.Record(At(1), FlightEventKind::kSnapshotFallback, FlightSeverity::kWarning, kDetail);
  EXPECT_EQ(rec.Events()[0].detail, static_cast<const char*>(kDetail));
}

}  // namespace
}  // namespace ins
