// Unit and property tests for the per-vspace change journal (nametree layer):
// serial arithmetic, ring eviction forcing the snapshot fallback, and exactly
// which store writes append entries — refreshes and stale re-deliveries must
// NOT (liveness travels as digests, not journal entries).

#include <gtest/gtest.h>

#include "ins/name/parser.h"
#include "ins/nametree/journal.h"
#include "ins/nametree/sharded_name_tree.h"

namespace ins {
namespace {

JournalEntry Entry(uint32_t discriminator) {
  JournalEntry e;
  e.op = JournalOp::kUpsert;
  e.announcer = AnnouncerId{0x0a000001, 1000, discriminator};
  e.name_text = "[unit=" + std::to_string(discriminator) + "]";
  return e;
}

TEST(NameJournalTest, SerialsAreStrictlyIncreasingFromOne) {
  NameJournal j(8);
  EXPECT_EQ(j.head_serial(), 0u);
  EXPECT_EQ(j.tail_serial(), 0u);
  for (uint64_t i = 1; i <= 5; ++i) {
    EXPECT_EQ(j.Append(Entry(static_cast<uint32_t>(i))), i);
  }
  EXPECT_EQ(j.head_serial(), 5u);
  EXPECT_EQ(j.tail_serial(), 1u);
  EXPECT_EQ(j.size(), 5u);
}

TEST(NameJournalTest, ReadSinceReturnsContiguousRangeOldestFirst) {
  NameJournal j(16);
  for (uint32_t i = 1; i <= 10; ++i) {
    j.Append(Entry(i));
  }
  std::vector<JournalEntry> out;
  bool more = false;
  ASSERT_TRUE(j.ReadSince(3, 4, &out, &more));
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out.front().serial, 4u);
  EXPECT_EQ(out.back().serial, 7u);
  EXPECT_TRUE(more);

  out.clear();
  ASSERT_TRUE(j.ReadSince(7, 100, &out, &more));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out.back().serial, 10u);
  EXPECT_FALSE(more);
}

TEST(NameJournalTest, CaughtUpReaderGetsEmptySuccess) {
  NameJournal j(4);
  j.Append(Entry(1));
  std::vector<JournalEntry> out;
  EXPECT_TRUE(j.ReadSince(1, 10, &out));
  EXPECT_TRUE(out.empty());
  // A reader claiming a FUTURE serial is also "caught up": the server's
  // journal restarted is handled by the digest regression path, not here.
  EXPECT_TRUE(j.ReadSince(99, 10, &out));
  EXPECT_TRUE(out.empty());
}

TEST(NameJournalTest, RingEvictionForcesSnapshotFallback) {
  NameJournal j(4);
  for (uint32_t i = 1; i <= 10; ++i) {
    j.Append(Entry(i));
  }
  EXPECT_EQ(j.size(), 4u);
  EXPECT_EQ(j.tail_serial(), 7u);

  std::vector<JournalEntry> out;
  // Serial 6 is the newest cursor that can still be served (entries 7..10).
  ASSERT_TRUE(j.ReadSince(6, 10, &out));
  EXPECT_EQ(out.size(), 4u);
  // Serial 5 fell off the ring: entry 6 is gone, no contiguous delta exists.
  out.clear();
  EXPECT_FALSE(j.ReadSince(5, 10, &out));
  EXPECT_FALSE(j.ReadSince(0, 10, &out));
}

TEST(NameJournalTest, EmptyJournalServesOnlySerialZero) {
  NameJournal j(4);
  std::vector<JournalEntry> out;
  EXPECT_TRUE(j.ReadSince(0, 10, &out));  // nothing ever written: caught up
  EXPECT_TRUE(out.empty());
}

// --- Store capture -----------------------------------------------------------

NameRecord Rec(uint32_t discriminator, uint64_t version) {
  NameRecord rec;
  rec.announcer = AnnouncerId{0x0a000002, 2000, discriminator};
  rec.version = version;
  rec.expires = Seconds(1000 + version);
  rec.app_metric = static_cast<double>(version);
  rec.endpoint.address = NodeAddress{rec.announcer.ip, 7000};
  return rec;
}

TEST(StoreJournalTest, DisabledByDefault) {
  ShardedNameTree store;
  store.AddSpace("");
  store.Upsert("", *ParseNameSpecifier("[a=1]"), Rec(1, 1));
  EXPECT_EQ(store.journal(""), nullptr);
  EXPECT_EQ(store.JournalHead(""), 0u);
}

TEST(StoreJournalTest, ChangesJournalRefreshesDoNot) {
  ShardedNameTree store(/*journal_capacity=*/64);
  store.AddSpace("");
  const NameSpecifier name = *ParseNameSpecifier("[a=1]");

  store.Upsert("", name, Rec(1, 1));  // kNew
  EXPECT_EQ(store.JournalHead(""), 1u);

  store.Upsert("", name, Rec(1, 1));  // identical: kRefreshed
  EXPECT_EQ(store.JournalHead(""), 1u);

  NameRecord changed = Rec(1, 2);
  changed.app_metric = 99.0;
  store.Upsert("", name, changed);  // kChanged
  EXPECT_EQ(store.JournalHead(""), 2u);

  store.Upsert("", name, Rec(1, 1));  // stale version: kIgnored
  EXPECT_EQ(store.JournalHead(""), 2u);

  store.Upsert("", *ParseNameSpecifier("[a=2]"), Rec(1, 3));  // kRenamed
  EXPECT_EQ(store.JournalHead(""), 3u);

  store.RefreshExpiry("", Rec(1, 3).announcer, Seconds(5000));  // lease only
  EXPECT_EQ(store.JournalHead(""), 3u);

  std::vector<JournalEntry> entries;
  ASSERT_TRUE(store.journal("")->ReadSince(0, 100, &entries));
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].op, JournalOp::kUpsert);
  EXPECT_EQ(entries[0].name_text, "[a=1]");
  EXPECT_EQ(entries[0].version, 1u);
  EXPECT_EQ(entries[1].version, 2u);
  EXPECT_DOUBLE_EQ(entries[1].app_metric, 99.0);
  EXPECT_EQ(entries[2].name_text, "[a=2]");
}

TEST(StoreJournalTest, RemovesAndExpiriesAppendTombstones) {
  ShardedNameTree store(/*journal_capacity=*/64);
  store.AddSpace("");
  store.Upsert("", *ParseNameSpecifier("[a=1]"), Rec(1, 1));
  store.Upsert("", *ParseNameSpecifier("[a=2]"), Rec(2, 1));
  ASSERT_EQ(store.JournalHead(""), 2u);

  ASSERT_TRUE(store.Remove("", Rec(1, 1).announcer));
  EXPECT_EQ(store.JournalHead(""), 3u);
  EXPECT_FALSE(store.Remove("", Rec(1, 1).announcer));  // absent: no entry
  EXPECT_EQ(store.JournalHead(""), 3u);

  EXPECT_EQ(store.ExpireBefore(Seconds(100000)), 1u);
  EXPECT_EQ(store.JournalHead(""), 4u);
  EXPECT_EQ(store.ExpireBefore(Seconds(100000)), 0u);  // nothing left
  EXPECT_EQ(store.JournalHead(""), 4u);

  std::vector<JournalEntry> entries;
  ASSERT_TRUE(store.journal("")->ReadSince(2, 100, &entries));
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].op, JournalOp::kDelete);
  EXPECT_EQ(entries[0].announcer, Rec(1, 1).announcer);
  EXPECT_EQ(entries[0].name_text, "");
  EXPECT_EQ(entries[1].op, JournalOp::kExpire);
  EXPECT_EQ(entries[1].announcer, Rec(2, 1).announcer);
}

TEST(StoreJournalTest, BatchJournalsAppliedEntriesOnly) {
  ShardedNameTree store(/*journal_capacity=*/64);
  store.AddSpace("");
  store.Upsert("", *ParseNameSpecifier("[a=1]"), Rec(1, 5));
  ASSERT_EQ(store.JournalHead(""), 1u);

  // A burst of deliveries: only the two new announcers are journaled. The
  // stale re-delivery, under a name the announcer has left, loses to the
  // stored newer version.
  using Kind = NameTree::UpsertOutcome::Kind;
  EXPECT_EQ(store.Upsert("", *ParseNameSpecifier("[a=1]"), Rec(1, 5)).kind,
            Kind::kRefreshed);
  EXPECT_EQ(store.Upsert("", *ParseNameSpecifier("[a=9]"), Rec(1, 2)).kind, Kind::kIgnored);
  EXPECT_EQ(store.Upsert("", *ParseNameSpecifier("[a=2]"), Rec(2, 1)).kind, Kind::kNew);
  EXPECT_EQ(store.Upsert("", *ParseNameSpecifier("[a=3]"), Rec(3, 1)).kind, Kind::kNew);
  EXPECT_EQ(store.JournalHead(""), 3u);
  EXPECT_EQ(store.Find("", Rec(1, 5).announcer)->version, 5u);
  EXPECT_EQ(store.GetName("", Rec(1, 5).announcer)->ToString(), "[a=1]");

  std::vector<JournalEntry> entries;
  ASSERT_TRUE(store.journal("")->ReadSince(1, 100, &entries));
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].announcer, Rec(2, 1).announcer);
  EXPECT_EQ(entries[1].announcer, Rec(3, 1).announcer);
}

TEST(StoreJournalTest, PerSpaceSerialsAreIndependent) {
  ShardedNameTree store(/*journal_capacity=*/16);
  store.AddSpace("alpha");
  store.AddSpace("beta");
  store.Upsert("alpha", *ParseNameSpecifier("[a=1]"), Rec(1, 1));
  store.Upsert("alpha", *ParseNameSpecifier("[a=2]"), Rec(2, 1));
  store.Upsert("beta", *ParseNameSpecifier("[b=1]"), Rec(3, 1));
  EXPECT_EQ(store.JournalHead("alpha"), 2u);
  EXPECT_EQ(store.JournalHead("beta"), 1u);
  EXPECT_EQ(store.journal("gamma"), nullptr);  // unrouted space

  // Dropping a space drops its journal; re-adding starts a fresh serial
  // sequence (peers detect this as a serial regression and take a snapshot).
  ASSERT_TRUE(store.RemoveSpace("beta"));
  EXPECT_EQ(store.JournalHead("beta"), 0u);
  store.AddSpace("beta");
  store.Upsert("beta", *ParseNameSpecifier("[b=2]"), Rec(4, 1));
  EXPECT_EQ(store.JournalHead("beta"), 1u);
}

}  // namespace
}  // namespace ins
