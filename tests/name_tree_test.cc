// Unit + property tests for the NameTree: graft, LOOKUP-NAME, soft-state
// expiry, invariants, and equivalence with the Matches() oracle.

#include <gtest/gtest.h>

#include <ostream>
#include <set>

#include "ins/name/matcher.h"
#include "ins/name/parser.h"
#include "ins/nametree/name_tree.h"
#include "ins/nametree/sharded_name_tree.h"
#include "ins/workload/namegen.h"

#include "alloc_window.h"

namespace ins {
namespace {

NameSpecifier P(const char* text) {
  auto r = ParseNameSpecifier(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status();
  return std::move(r).value();
}

AnnouncerId Id(uint32_t n) { return AnnouncerId{0x0a000000u + n, 1000, 0}; }

NameRecord Rec(uint32_t n, double metric = 0.0, TimePoint expires = Seconds(3600)) {
  NameRecord r;
  r.announcer = Id(n);
  r.endpoint.address = MakeAddress(n);
  r.endpoint.bindings.push_back({static_cast<uint16_t>(8000 + n), "udp"});
  r.app_metric = metric;
  r.expires = expires;
  r.version = 1;
  return r;
}

std::set<uint32_t> Ids(const std::vector<const NameRecord*>& recs) {
  std::set<uint32_t> out;
  for (const NameRecord* r : recs) {
    out.insert(r->announcer.ip - 0x0a000000u);
  }
  return out;
}

TEST(NameTreeTest, EmptyTree) {
  NameTree t;
  EXPECT_EQ(t.record_count(), 0u);
  EXPECT_TRUE(t.Lookup(P("[service=camera]")).empty());
  EXPECT_TRUE(t.Lookup(P("")).empty());
  EXPECT_TRUE(t.CheckInvariants().ok());
}

TEST(NameTreeTest, InsertAndExactLookup) {
  NameTree t;
  auto out = t.Upsert(P("[service=camera[id=a]][room=510]"), Rec(1));
  EXPECT_EQ(out.kind, NameTree::UpsertOutcome::kNew);
  EXPECT_EQ(t.record_count(), 1u);
  EXPECT_EQ(Ids(t.Lookup(P("[service=camera[id=a]][room=510]"))), std::set<uint32_t>{1});
  EXPECT_TRUE(t.CheckInvariants().ok()) << t.CheckInvariants();
}

TEST(NameTreeTest, LookupDistinguishesValues) {
  NameTree t;
  t.Upsert(P("[service=camera][room=510]"), Rec(1));
  t.Upsert(P("[service=camera][room=517]"), Rec(2));
  t.Upsert(P("[service=printer][room=510]"), Rec(3));

  EXPECT_EQ(Ids(t.Lookup(P("[room=510]"))), (std::set<uint32_t>{1, 3}));
  EXPECT_EQ(Ids(t.Lookup(P("[service=camera]"))), (std::set<uint32_t>{1, 2}));
  EXPECT_EQ(Ids(t.Lookup(P("[service=camera][room=510]"))), std::set<uint32_t>{1});
  EXPECT_TRUE(t.Lookup(P("[service=scanner]")).empty());
  EXPECT_TRUE(t.Lookup(P("[service=camera][room=520]")).empty());
}

TEST(NameTreeTest, EmptyQueryReturnsAllRecords) {
  NameTree t;
  t.Upsert(P("[a=1]"), Rec(1));
  t.Upsert(P("[b=2]"), Rec(2));
  EXPECT_EQ(Ids(t.Lookup(P(""))), (std::set<uint32_t>{1, 2}));
}

TEST(NameTreeTest, WildcardUnionsAcrossValues) {
  NameTree t;
  t.Upsert(P("[service=camera[id=a]]"), Rec(1));
  t.Upsert(P("[service=camera[id=b]]"), Rec(2));
  t.Upsert(P("[service=printer[id=c]]"), Rec(3));
  EXPECT_EQ(Ids(t.Lookup(P("[service=camera[id=*]]"))), (std::set<uint32_t>{1, 2}));
  EXPECT_EQ(Ids(t.Lookup(P("[service=*]"))), (std::set<uint32_t>{1, 2, 3}));
}

TEST(NameTreeTest, QueryPrefixMatchesDeeperAdvertisements) {
  NameTree t;
  t.Upsert(P("[service=camera[id=a][res=640x480]]"), Rec(1));
  // Query chain ends above the advertisement's leaves.
  EXPECT_EQ(Ids(t.Lookup(P("[service=camera]"))), std::set<uint32_t>{1});
}

TEST(NameTreeTest, AdvertisementPrefixMatchesDeeperQuery) {
  NameTree t;
  t.Upsert(P("[service=camera]"), Rec(1));           // general ad
  t.Upsert(P("[service=camera[id=b]]"), Rec(2));     // specific ad
  // LOOKUP-NAME unions records attached at interior value-nodes.
  EXPECT_EQ(Ids(t.Lookup(P("[service=camera[id=b]]"))), (std::set<uint32_t>{1, 2}));
  EXPECT_EQ(Ids(t.Lookup(P("[service=camera[id=zzz]]"))), std::set<uint32_t>{1});
}

TEST(NameTreeTest, UnknownQueryAttributeDoesNotConstrain) {
  NameTree t;
  t.Upsert(P("[service=camera]"), Rec(1));
  // `floor` appears nowhere in the tree: LOOKUP-NAME's Ta==null continue.
  EXPECT_EQ(Ids(t.Lookup(P("[service=camera][floor=9]"))), std::set<uint32_t>{1});
}

TEST(NameTreeTest, RangeQueries) {
  NameTree t;
  t.Upsert(P("[service=printer[load=2]]"), Rec(1));
  t.Upsert(P("[service=printer[load=7]]"), Rec(2));
  t.Upsert(P("[service=printer[load=5]]"), Rec(3));
  EXPECT_EQ(Ids(t.Lookup(P("[service=printer[load<5]]"))), std::set<uint32_t>{1});
  EXPECT_EQ(Ids(t.Lookup(P("[service=printer[load<=5]]"))), (std::set<uint32_t>{1, 3}));
  EXPECT_EQ(Ids(t.Lookup(P("[service=printer[load>5]]"))), std::set<uint32_t>{2});
  EXPECT_EQ(Ids(t.Lookup(P("[service=printer[load>=5]]"))), (std::set<uint32_t>{2, 3}));
}

TEST(NameTreeTest, IdenticalNamesFromDifferentAnnouncersCoexist) {
  NameTree t;
  t.Upsert(P("[service=camera][room=510]"), Rec(1));
  t.Upsert(P("[service=camera][room=510]"), Rec(2));
  EXPECT_EQ(t.record_count(), 2u);
  EXPECT_EQ(Ids(t.Lookup(P("[room=510]"))), (std::set<uint32_t>{1, 2}));
  EXPECT_TRUE(t.CheckInvariants().ok());
}

TEST(NameTreeTest, RefreshSameDataExtendsExpiry) {
  NameTree t;
  t.Upsert(P("[a=1]"), Rec(1, 0.0, Seconds(10)));
  NameRecord again = Rec(1, 0.0, Seconds(20));
  again.version = 2;
  auto out = t.Upsert(P("[a=1]"), again);
  EXPECT_EQ(out.kind, NameTree::UpsertOutcome::kRefreshed);
  EXPECT_EQ(t.Find(Id(1))->expires, Seconds(20));
  EXPECT_EQ(t.record_count(), 1u);
}

TEST(NameTreeTest, MetricChangeReportsChanged) {
  NameTree t;
  t.Upsert(P("[a=1]"), Rec(1, 5.0));
  NameRecord again = Rec(1, 2.0);
  again.version = 2;
  auto out = t.Upsert(P("[a=1]"), again);
  EXPECT_EQ(out.kind, NameTree::UpsertOutcome::kChanged);
  EXPECT_DOUBLE_EQ(t.Find(Id(1))->app_metric, 2.0);
}

TEST(NameTreeTest, StaleVersionIgnored) {
  NameTree t;
  NameRecord r = Rec(1, 5.0);
  r.version = 10;
  t.Upsert(P("[a=1]"), r);
  NameRecord stale = Rec(1, 99.0);
  stale.version = 3;
  auto out = t.Upsert(P("[a=1]"), stale);
  EXPECT_EQ(out.kind, NameTree::UpsertOutcome::kIgnored);
  EXPECT_DOUBLE_EQ(t.Find(Id(1))->app_metric, 5.0);
}

TEST(NameTreeTest, RenameImplementsServiceMobility) {
  NameTree t;
  t.Upsert(P("[service=camera][room=510]"), Rec(1));
  NameRecord moved = Rec(1);
  moved.version = 2;
  auto out = t.Upsert(P("[service=camera][room=520]"), moved);
  EXPECT_EQ(out.kind, NameTree::UpsertOutcome::kRenamed);
  EXPECT_TRUE(t.Lookup(P("[room=510]")).empty());
  EXPECT_EQ(Ids(t.Lookup(P("[room=520]"))), std::set<uint32_t>{1});
  EXPECT_EQ(t.record_count(), 1u);
  EXPECT_TRUE(t.CheckInvariants().ok()) << t.CheckInvariants();
}

TEST(NameTreeTest, RemoveDetachesAndPrunes) {
  NameTree t;
  t.Upsert(P("[service=camera[id=a]]"), Rec(1));
  t.Upsert(P("[service=camera[id=b]]"), Rec(2));
  EXPECT_TRUE(t.Remove(Id(1)));
  EXPECT_FALSE(t.Remove(Id(1)));
  EXPECT_EQ(Ids(t.Lookup(P("[service=camera[id=*]]"))), std::set<uint32_t>{2});
  EXPECT_TRUE(t.Remove(Id(2)));
  // Tree fully pruned.
  auto st = t.ComputeStats();
  EXPECT_EQ(st.attribute_nodes, 0u);
  EXPECT_EQ(st.value_nodes, 0u);
  EXPECT_TRUE(t.CheckInvariants().ok());
}

TEST(NameTreeTest, ExpireBeforeSweepsSoftState) {
  NameTree t;
  t.Upsert(P("[a=1]"), Rec(1, 0.0, Seconds(10)));
  t.Upsert(P("[b=2]"), Rec(2, 0.0, Seconds(30)));
  EXPECT_EQ(t.ExpireBefore(Seconds(20)), 1u);
  EXPECT_EQ(t.record_count(), 1u);
  EXPECT_EQ(t.Find(Id(1)), nullptr);
  EXPECT_NE(t.Find(Id(2)), nullptr);
  EXPECT_EQ(t.ExpireBefore(Seconds(20)), 0u);
  EXPECT_EQ(t.ExpireBefore(Seconds(31)), 1u);
  EXPECT_EQ(t.record_count(), 0u);
}

TEST(NameTreeTest, StatsTrackGrowthAndShrink) {
  NameTree t;
  auto empty = t.ComputeStats();
  t.Upsert(P("[service=camera[id=a]][room=510]"), Rec(1));
  auto one = t.ComputeStats();
  EXPECT_GT(one.bytes, empty.bytes);
  EXPECT_EQ(one.records, 1u);
  EXPECT_EQ(one.attribute_nodes, 3u);  // service, id, room
  EXPECT_EQ(one.value_nodes, 3u);      // camera, a, 510
  t.Remove(Id(1));
  auto back = t.ComputeStats();
  EXPECT_EQ(back.attribute_nodes, 0u);
  EXPECT_EQ(back.records, 0u);
}

TEST(NameTreeTest, DebugStringShowsStructure) {
  NameTree t;
  t.Upsert(P("[service=camera[id=a]]"), Rec(1));
  std::string s = t.DebugString();
  EXPECT_NE(s.find("service:"), std::string::npos);
  EXPECT_NE(s.find("= camera"), std::string::npos);
  EXPECT_NE(s.find("(1 record)"), std::string::npos);
}

// --- Property sweeps vs. the Matches() oracle. -----------------------------
//
// Per the semantics note on NameTree::Lookup, Figure-5 lookups over a
// superposed tree agree exactly with per-advertisement Matches() when
// advertisements are schema-complete (na == ra: every specifier carries every
// attribute at each level). When advertisements omit attributes that others
// advertise (na < ra), Lookup() is a subset of the Matches() oracle.

struct SweepParams {
  uint64_t seed;
  size_t num_names;
  UniformNameParams shape;
};

// Spells the fields out, e.g. "seed3_names40_shape1x2x1x2" (the shape is
// ra x rv x na x d). gtest_discover_tests names each ctest case after the
// printed parameter, so this is also the case name ctest shows.
void PrintTo(const SweepParams& sp, std::ostream* os) {
  const UniformNameParams& s = sp.shape;
  *os << "seed" << sp.seed << "_names" << sp.num_names << "_shape" << s.ra << "x" << s.rv << "x"
      << s.na << "x" << s.d;
}

class LookupExactOracleTest : public ::testing::TestWithParam<SweepParams> {};

TEST_P(LookupExactOracleTest, SchemaCompleteLookupsMatchOracleExactly) {
  const SweepParams& sp = GetParam();
  ASSERT_EQ(sp.shape.na, sp.shape.ra) << "exact suite requires schema-complete ads";
  Rng rng(sp.seed);
  NameTree tree;
  std::vector<NameSpecifier> ads;
  for (size_t i = 0; i < sp.num_names; ++i) {
    NameSpecifier ad = GenerateUniformName(rng, sp.shape);
    tree.Upsert(ad, Rec(static_cast<uint32_t>(i + 1)));
    ads.push_back(std::move(ad));
  }
  ASSERT_TRUE(tree.CheckInvariants().ok()) << tree.CheckInvariants();

  for (int q = 0; q < 60; ++q) {
    NameSpecifier query;
    if (q % 3 == 0) {
      query = GenerateUniformName(rng, sp.shape);
    } else {
      const NameSpecifier& base = ads[rng.NextBelow(ads.size())];
      query = DeriveQuery(rng, base, 0.8, 0.3);
    }
    std::set<uint32_t> expected;
    for (size_t i = 0; i < ads.size(); ++i) {
      if (Matches(ads[i], query)) {
        expected.insert(static_cast<uint32_t>(i + 1));
      }
    }
    EXPECT_EQ(Ids(tree.Lookup(query)), expected)
        << "query: " << query.ToString() << "\ntree:\n"
        << tree.DebugString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LookupExactOracleTest,
    ::testing::Values(SweepParams{1, 20, {2, 3, 2, 3}},  // na == ra throughout
                      SweepParams{2, 50, {2, 3, 2, 3}},
                      SweepParams{3, 40, {1, 2, 1, 2}},
                      SweepParams{4, 30, {2, 5, 2, 2}},
                      SweepParams{5, 25, {3, 2, 3, 2}},
                      SweepParams{6, 10, {2, 3, 2, 4}},
                      SweepParams{7, 80, {2, 4, 2, 3}}));

class LookupSubsetOracleTest : public ::testing::TestWithParam<SweepParams> {};

TEST_P(LookupSubsetOracleTest, LookupIsSubsetOfOracleAndFindsTheBaseAd) {
  const SweepParams& sp = GetParam();
  Rng rng(sp.seed);
  NameTree tree;
  std::vector<NameSpecifier> ads;
  for (size_t i = 0; i < sp.num_names; ++i) {
    NameSpecifier ad = GenerateUniformName(rng, sp.shape);
    tree.Upsert(ad, Rec(static_cast<uint32_t>(i + 1)));
    ads.push_back(std::move(ad));
  }

  for (int q = 0; q < 80; ++q) {
    size_t base_index = rng.NextBelow(ads.size());
    NameSpecifier query = DeriveQuery(rng, ads[base_index], 0.8, 0.3);

    std::set<uint32_t> oracle;
    for (size_t i = 0; i < ads.size(); ++i) {
      if (Matches(ads[i], query)) {
        oracle.insert(static_cast<uint32_t>(i + 1));
      }
    }
    std::set<uint32_t> looked_up = Ids(tree.Lookup(query));

    // Figure-5 lookups never return a record the per-ad oracle rejects.
    for (uint32_t id : looked_up) {
      EXPECT_TRUE(oracle.count(id) > 0)
          << "lookup returned non-matching ad " << id << " for " << query.ToString();
    }
    // A query derived from an advertisement always finds that advertisement:
    // every constraint follows one of the base ad's own chains.
    EXPECT_TRUE(looked_up.count(static_cast<uint32_t>(base_index + 1)) > 0)
        << "query " << query.ToString() << " missed its base ad "
        << ads[base_index].ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LookupSubsetOracleTest,
    ::testing::Values(SweepParams{11, 20, {3, 3, 2, 3}},  // the paper's Fig-12 shape
                      SweepParams{12, 50, {3, 3, 2, 3}},
                      SweepParams{13, 40, {4, 2, 2, 2}},
                      SweepParams{14, 30, {4, 5, 2, 2}},
                      SweepParams{15, 25, {5, 2, 3, 2}},
                      SweepParams{16, 10, {3, 3, 2, 4}}));

TEST(NameTreeTest, SuperpositionFiltersAdsOmittingAKnownAttribute) {
  // The documented Figure-5 divergence, pinned as intended behaviour: once
  // any advertisement defines an attribute at a position, a query on that
  // attribute excludes sibling advertisements that omit it...
  NameTree t;
  t.Upsert(P("[service=camera]"), Rec(1));            // omits room
  t.Upsert(P("[room=510]"), Rec(2));                  // defines room
  EXPECT_EQ(Ids(t.Lookup(P("[room=510]"))), std::set<uint32_t>{2});
  // ...even though per-ad matching would admit the omitting ad:
  EXPECT_TRUE(Matches(P("[service=camera]"), P("[room=510]")));
  // Remove the defining ad and the same query no longer constrains.
  t.Remove(Id(2));
  EXPECT_EQ(Ids(t.Lookup(P("[room=510]"))), std::set<uint32_t>{1});
}

class ChurnTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChurnTest, RandomChurnPreservesInvariants) {
  Rng rng(GetParam());
  NameTree tree;
  std::vector<std::pair<uint32_t, NameSpecifier>> live;
  uint64_t version = 1;
  for (int step = 0; step < 400; ++step) {
    double dice = rng.NextDouble();
    if (dice < 0.5 || live.empty()) {
      uint32_t id = static_cast<uint32_t>(rng.NextBelow(60)) + 1;
      NameSpecifier ad = GenerateUniformName(rng, {3, 3, 2, 2});
      NameRecord r = Rec(id);
      r.version = version++;
      tree.Upsert(ad, r);
      bool found = false;
      for (auto& [lid, lad] : live) {
        if (lid == id) {
          lad = ad;
          found = true;
        }
      }
      if (!found) {
        live.emplace_back(id, ad);
      }
    } else if (dice < 0.8) {
      size_t k = rng.NextBelow(live.size());
      tree.Remove(Id(live[k].first));
      live.erase(live.begin() + static_cast<long>(k));
    } else {
      // Random lookups mustn't disturb anything.
      tree.Lookup(GenerateUniformName(rng, {3, 3, 2, 2}));
    }
    if (step % 50 == 0) {
      ASSERT_TRUE(tree.CheckInvariants().ok()) << tree.CheckInvariants();
      ASSERT_EQ(tree.record_count(), live.size());
    }
  }
  ASSERT_TRUE(tree.CheckInvariants().ok()) << tree.CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnTest, ::testing::Values(11, 22, 33, 44, 55));

// The expiry min-heap makes the soft-state sweep O(expired + stale), not
// O(records): expiring 1 record out of 100k must do one unit of work, and a
// no-op sweep must do zero (a single heap-front peek).
// Detached() copies the public fields only: a stored record's terminal
// pointers are never copied, so detaching one without port bindings (the
// anycast winner, a multicast local) costs no allocation at all.
TEST(NameTreeTest, DetachingAStoredRecordDoesNotCopyItsTerminals) {
  NameTree t;
  NameRecord info = Rec(1, 2.5);
  info.endpoint.bindings.clear();
  t.Upsert(P("[service=camera[entity=transmitter]][room=510][building=ne43]"), info);
  const NameRecord* stored = t.Find(Id(1));
  ASSERT_NE(stored, nullptr);

  NameRecord copy;
  uint64_t allocs = 0;
  {
    AllocWindow window;
    copy = stored->Detached();
    allocs = window.count();
  }
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(copy.announcer, info.announcer);
  EXPECT_EQ(copy.endpoint, info.endpoint);
  EXPECT_EQ(copy.app_metric, 2.5);
  EXPECT_EQ(copy.route, info.route);
  EXPECT_EQ(copy.expires, info.expires);
  EXPECT_EQ(copy.version, info.version);
}

TEST(NameTreeTest, ExpirySweepTouchesOnlyDueRecords) {
  NameTree t;
  constexpr uint32_t kRecords = 100000;
  for (uint32_t i = 1; i <= kRecords; ++i) {
    NameSpecifier n;
    n.AddPath({{"unit", std::to_string(i)}});
    const TimePoint expires =
        i == 1 ? Seconds(10) : (i == 2 ? Seconds(100) : Seconds(1000000));
    ASSERT_EQ(t.Upsert(n, Rec(i, 0.0, expires)).kind, NameTree::UpsertOutcome::kNew);
  }
  EXPECT_EQ(t.ComputeStats().expiry_heap_entries, kRecords);

  // Exactly one record due: the sweep pops one heap entry and never looks at
  // the other 99999.
  const uint64_t before = t.expiry_scan_visits();
  EXPECT_EQ(t.ExpireBefore(Seconds(20)), 1u);
  EXPECT_EQ(t.expiry_scan_visits() - before, 1u);
  EXPECT_EQ(t.record_count(), kRecords - 1);
  EXPECT_EQ(t.ComputeStats().expiry_heap_entries, kRecords - 1);

  // Nothing due: no heap pops at all.
  EXPECT_EQ(t.ExpireBefore(Seconds(50)), 0u);
  EXPECT_EQ(t.expiry_scan_visits() - before, 1u);

  // A lease extension leaves the old heap entry behind as a stale marker;
  // sweeping past the OLD deadline visits just that marker, removes nothing,
  // and the record survives under its extended lease.
  ASSERT_TRUE(t.RefreshExpiry(Id(2), Seconds(1000000)));
  EXPECT_EQ(t.ComputeStats().expiry_heap_entries, kRecords);  // 99999 live + 1 stale
  const uint64_t before_stale = t.expiry_scan_visits();
  EXPECT_EQ(t.ExpireBefore(Seconds(200)), 0u);
  EXPECT_EQ(t.expiry_scan_visits() - before_stale, 1u);
  EXPECT_EQ(t.record_count(), kRecords - 1);
  EXPECT_NE(t.Find(Id(2)), nullptr);
  ASSERT_TRUE(t.CheckInvariants().ok()) << t.CheckInvariants();
}

// The store's per-space `lookups` counts LOOKUP-NAME calls only: record
// counts, finds and stat reads (what NameDiscovery and the debug view call
// after each advertisement) leave it alone.
TEST(ShardedNameTreeTest, LookupsCountOnlyLookupName) {
  ShardedNameTree store;
  store.AddSpace("");
  store.Upsert("", P("[service=camera]"), Rec(1));
  auto lookups = [&store] { return store.PerShardStats().at(0).lookups; };
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(store.RecordCount(""), 1u);
    EXPECT_EQ(store.TotalRecordCount(), 1u);
    EXPECT_TRUE(store.Find("", Id(1)).has_value());
    EXPECT_TRUE(store.GetName("", Id(1)).has_value());
    EXPECT_EQ(store.ComputeStats().records, 1u);
    (void)store.IndexStatsTotal();
  }
  EXPECT_EQ(lookups(), 0u);

  size_t matches = 0;
  store.ForEachShardMatch(
      "", P("[service=camera]"),
      [&](size_t, const NameTree&, const std::vector<const NameRecord*>& found) {
        matches += found.size();
      });
  EXPECT_EQ(matches, 1u);
  EXPECT_EQ(lookups(), 1u);
  EXPECT_EQ(store.Lookup("", P("[service=camera]")).size(), 1u);
  EXPECT_EQ(store.LookupNamed("", P("[service=camera]")).size(), 1u);
  EXPECT_EQ(lookups(), 3u);
}

}  // namespace
}  // namespace ins
