// Differential testing of the resolver's lookup structures.
//
// Drives randomized soft-state workloads — add / refresh / change / rename /
// remove / expire / lookup / get-name — through three implementations at
// once and demands identical answers:
//
//   * LinearNameTable  — the Matches()-scan reference model (baseline/);
//   * NameTree         — the paper's superposed tree (Figure 5/6);
//   * ShardedNameTree  — the resolver's store (one tree per routed space),
//                        with its change journal feeding a replica.
//
// The three-way equivalence is exact on schema-complete workloads (every
// advertisement uses all r_a attributes per level, i.e. n_a == r_a): that is
// when Figure 5's tree walk coincides with the per-advertisement Matches()
// predicate (see the semantics note in name_tree.h). A separate suite pins
// NameTree == ShardedNameTree on schema-INcomplete workloads, where the
// store's one tree must agree with a bare tree by construction.
//
// Workload invariants the generator maintains (both by protocol design and
// because the reference model replaces records wholesale): per-announcer
// versions strictly increase and expiry deadlines never move backwards.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ins/baseline/linear_name_table.h"
#include "ins/baseline/string_name_tree.h"
#include "ins/common/rng.h"
#include "ins/name/compiled_name.h"
#include "ins/name/parser.h"
#include "ins/nametree/journal.h"
#include "ins/nametree/name_tree.h"
#include "ins/nametree/sharded_name_tree.h"
#include "ins/workload/namegen.h"

namespace ins {
namespace {

// Schema-complete: every level uses all three attributes of its pool.
constexpr UniformNameParams kCompleteParams{3, 3, 3, 2};
// Schema-incomplete: names omit one of the three attributes per level.
constexpr UniformNameParams kSparseParams{3, 3, 2, 2};

constexpr size_t kSeeds = 10;
constexpr size_t kOpsPerSeed = 1200;

struct LiveName {
  AnnouncerId id;
  NameSpecifier name;
  uint64_t version = 1;
  TimePoint expires{0};
};

// One generated workload state: the three structures under test plus the
// bookkeeping needed to generate valid next operations.
class Harness {
 public:
  Harness(uint64_t seed, UniformNameParams params) : rng_(seed), params_(params) {
    // Small journal ring on purpose: stretches between replica syncs
    // regularly overflow it, so the snapshot-fallback path runs alongside
    // deltas.
    sharded_ = std::make_unique<ShardedNameTree>(/*journal_capacity=*/32);
    sharded_->AddSpace("");
    replica_ = std::make_unique<ShardedNameTree>();
    replica_->AddSpace("");
  }

  size_t replica_syncs() const { return replica_syncs_; }

  void RunOps(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      const uint64_t dice = rng_.NextBelow(100);
      if (dice < 30 || live_.empty()) {
        OpAdd();
      } else if (dice < 45) {
        OpRefresh();
      } else if (dice < 55) {
        OpChange();
      } else if (dice < 63) {
        OpRename();
      } else if (dice < 68) {
        OpRemove();
      } else if (dice < 75) {
        OpBatch();
      } else if (dice < 82) {
        OpExpire();
      } else if (dice < 92) {
        OpCompareLookup();
      } else {
        OpReplicateAndCompare();
      }
    }
    OpReplicateAndCompare();
    CompareAll("final");
    ASSERT_TRUE(tree_.CheckInvariants().ok());
    ASSERT_TRUE(sharded_->CheckInvariants().ok());
    ASSERT_TRUE(replica_->CheckInvariants().ok());

    // The workload genuinely drove the index: lookups ran, and literal
    // queries were served (or proven empty) by posting-list intersection —
    // not by silently falling back to the walk on every query.
    const PostingIndexStats stats = tree_.index_stats();
    EXPECT_GT(stats.TotalLookups(), 0u);
    EXPECT_GT(stats.index_lookups + stats.empty_lookups, 0u);
    // Scratch capacity pinned between lookups stays under the Trim caps.
    EXPECT_LE(scratch_.RetainedBytes(), size_t{16} << 20);
  }

 private:
  NameRecord MakeRecord(const LiveName& ln) const {
    NameRecord r;
    r.announcer = ln.id;
    r.endpoint.address = NodeAddress{ln.id.ip, 9000};
    r.app_metric = static_cast<double>(ln.version % 7);
    r.expires = ln.expires;
    r.version = ln.version;
    return r;
  }

  void UpsertEverywhere(const LiveName& ln) {
    NameRecord rec = MakeRecord(ln);
    oracle_.Upsert(ln.name, rec);
    tree_.Upsert(ln.name, rec);
    sharded_->Upsert("", ln.name, rec);
  }

  void OpAdd() {
    LiveName ln;
    const uint32_t n = next_announcer_++;
    ln.id = AnnouncerId{0x0a000000u + n, 7, n};
    ln.name = GenerateUniformName(rng_, params_);
    ln.version = 1;
    ln.expires = now_ + Seconds(static_cast<int64_t>(30 + rng_.NextBelow(300)));
    UpsertEverywhere(ln);
    live_.push_back(ln);
  }

  LiveName& PickLive() { return live_[rng_.NextBelow(live_.size())]; }

  void OpRefresh() {
    LiveName& ln = PickLive();
    ln.version += 1;
    ln.expires =
        std::max(ln.expires, now_ + Seconds(static_cast<int64_t>(30 + rng_.NextBelow(300))));
    UpsertEverywhere(ln);
  }

  void OpChange() {
    LiveName& ln = PickLive();
    ln.version += 1 + rng_.NextBelow(3);  // versions may skip, never repeat
    UpsertEverywhere(ln);
  }

  void OpRename() {
    LiveName& ln = PickLive();
    ln.version += 1;
    ln.name = GenerateUniformName(rng_, params_);
    UpsertEverywhere(ln);
  }

  void OpRemove() {
    size_t idx = rng_.NextBelow(live_.size());
    const AnnouncerId id = live_[idx].id;
    const bool a = oracle_.Remove(id);
    const bool b = tree_.Remove(id);
    const bool c = sharded_->Remove("", id);
    ASSERT_EQ(a, b);
    ASSERT_EQ(a, c);
    live_.erase(live_.begin() + static_cast<long>(idx));
  }

  void OpExpire() {
    now_ += Seconds(static_cast<int64_t>(rng_.NextBelow(120)));
    const size_t a = oracle_.ExpireBefore(now_);
    const size_t b = tree_.ExpireBefore(now_);
    const size_t c = sharded_->ExpireBefore(now_);
    ASSERT_EQ(a, b) << "expiry divergence at t=" << now_.count();
    ASSERT_EQ(a, c) << "expiry divergence at t=" << now_.count();
    std::erase_if(live_, [this](const LiveName& ln) { return ln.expires < now_; });
  }

  void OpBatch() {
    // A burst of distinct announcers: new ones, refreshes and renames. After
    // it, each updated announcer's previous copy is re-delivered to the store
    // and must lose to the newer version.
    std::vector<size_t> picked;
    std::vector<LiveName> superseded;
    const size_t want = 1 + rng_.NextBelow(6);
    for (size_t k = 0; k < want; ++k) {
      const uint64_t kind = rng_.NextBelow(3);
      if (kind == 0 || live_.empty()) {
        LiveName ln;
        const uint32_t n = next_announcer_++;
        ln.id = AnnouncerId{0x0a000000u + n, 7, n};
        ln.name = GenerateUniformName(rng_, params_);
        ln.version = 1;
        ln.expires = now_ + Seconds(static_cast<int64_t>(30 + rng_.NextBelow(300)));
        live_.push_back(ln);
        picked.push_back(live_.size() - 1);
      } else {
        const size_t idx = rng_.NextBelow(live_.size());
        if (std::find(picked.begin(), picked.end(), idx) != picked.end()) {
          continue;  // one entry per announcer per batch
        }
        LiveName& ln = live_[idx];
        superseded.push_back(ln);
        ln.version += 1;
        if (kind == 2) {
          ln.name = GenerateUniformName(rng_, params_);  // rename
        }
        picked.push_back(idx);
      }
    }
    for (size_t idx : picked) {
      // Every entry is fresh (new announcer or bumped version): none may be
      // ignored.
      UpsertEverywhere(live_[idx]);
    }
    for (const LiveName& old : superseded) {
      ASSERT_EQ(sharded_->Upsert("", old.name, MakeRecord(old)).kind,
                NameTree::UpsertOutcome::kIgnored)
          << "stale re-delivery of " << old.id.ToString() << " was applied";
    }
  }

  NameSpecifier MakeQuery() {
    // Mix of fresh uniform specifiers (same pools, so they intersect the
    // live set meaningfully) and wildcarded derivations of live names.
    if (!live_.empty() && rng_.NextBool(0.5)) {
      return DeriveQuery(rng_, PickLive().name, 0.8, 0.3);
    }
    return GenerateUniformName(rng_, params_);
  }

  static std::string Render(const std::vector<const NameRecord*>& recs) {
    std::ostringstream os;
    for (const NameRecord* r : recs) {
      os << r->announcer.ToString() << " v" << r->version << " e" << r->expires.count()
         << " m" << r->app_metric << "\n";
    }
    return os.str();
  }

  static std::string Render(const std::vector<NameRecord>& recs) {
    std::ostringstream os;
    for (const NameRecord& r : recs) {
      os << r.announcer.ToString() << " v" << r.version << " e" << r.expires.count() << " m"
         << r.app_metric << "\n";
    }
    return os.str();
  }

  void OpCompareLookup() {
    const NameSpecifier q = MakeQuery();
    const std::string oracle = Render(oracle_.Lookup(q));
    EXPECT_EQ(oracle, Render(tree_.Lookup(q))) << "LOOKUP-NAME diverged on " << q.ToString();
    // The pre-compiled query path (what ShardedNameTree compiles once per
    // store operation) must be byte-identical to the string entry point, with
    // both a caller-provided and the thread-local scratch.
    const CompiledName cq = CompiledName::ForQuery(q, tree_.symbols());
    EXPECT_EQ(oracle, Render(tree_.Lookup(cq, &scratch_)))
        << "compiled LOOKUP-NAME (explicit scratch) diverged on " << q.ToString();
    EXPECT_EQ(oracle, Render(tree_.Lookup(cq)))
        << "compiled LOOKUP-NAME (thread-local scratch) diverged on " << q.ToString();
    // Posting-index three-way: the index path (default Lookup above) and the
    // Figure-5 walk on the same tree must both match the Matches()-scan
    // oracle on every query.
    EXPECT_EQ(oracle, Render(tree_.LookupTreeWalk(cq, &scratch_)))
        << "tree walk diverged from index path on " << q.ToString();
    EXPECT_EQ(oracle, Render(sharded_->Lookup("", q)))
        << "sharded LOOKUP-NAME diverged on " << q.ToString();
    if (!live_.empty()) {
      // GET-NAME: all three agree on the record's canonical specifier.
      const LiveName& ln = live_[rng_.NextBelow(live_.size())];
      const NameRecord* rec = tree_.Find(ln.id);
      ASSERT_NE(rec, nullptr);
      auto sharded_name = sharded_->GetName("", ln.id);
      ASSERT_TRUE(sharded_name.has_value());
      EXPECT_EQ(ln.name.ToString(), tree_.ExtractName(rec).ToString());
      EXPECT_EQ(ln.name.ToString(), sharded_name->ToString());
    }
  }

  // Replicate-then-compare: catch the replica up from the primary's change
  // journal — an O(changes) delta while its cursor is still on the ring, a
  // full AXFR-style rebuild once it has fallen off — then demand the replica
  // matches the Matches()-scan oracle record-for-record. This is the exact
  // data path the resolver replication protocol serves, minus the wire.
  void OpReplicateAndCompare() {
    const NameJournal* journal = sharded_->journal("");
    ASSERT_NE(journal, nullptr);
    std::vector<JournalEntry> entries;
    if (!journal->ReadSince(replica_serial_, SIZE_MAX, &entries)) {
      replica_->RemoveSpace("");
      replica_->AddSpace("");
      const NameTree& tree = *sharded_->Tree("");
      for (const NameRecord* rec : tree.AllRecords()) {
        replica_->Upsert("", tree.ExtractName(rec), *rec);
      }
    } else {
      for (const JournalEntry& e : entries) {
        if (e.op == JournalOp::kUpsert) {
          auto name = ParseNameSpecifier(e.name_text);
          ASSERT_TRUE(name.ok()) << "unparseable journal name: " << e.name_text;
          NameRecord rec;
          rec.announcer = e.announcer;
          rec.endpoint = e.endpoint;
          rec.app_metric = e.app_metric;
          rec.expires = e.expires;
          rec.version = e.version;
          replica_->Upsert("", name.value(), rec);
        } else {
          replica_->Remove("", e.announcer);
        }
      }
    }
    replica_serial_ = journal->head_serial();
    ++replica_syncs_;

    const NameSpecifier match_all;
    EXPECT_EQ(Render(oracle_.Lookup(match_all)), Render(replica_->Lookup("", match_all)))
        << "replica diverged from oracle after sync " << replica_syncs_;
    EXPECT_EQ(oracle_.size(), replica_->RecordCount(""));
  }

  void CompareAll(const std::string& label) {
    const NameSpecifier match_all;  // empty query matches everything
    const std::string oracle = Render(oracle_.Lookup(match_all));
    EXPECT_EQ(oracle, Render(tree_.Lookup(match_all))) << label;
    EXPECT_EQ(oracle, Render(sharded_->Lookup("", match_all))) << label;
    EXPECT_EQ(oracle_.size(), tree_.record_count()) << label;
    EXPECT_EQ(oracle_.size(), sharded_->RecordCount("")) << label;
  }

  Rng rng_;
  UniformNameParams params_;
  TimePoint now_{0};
  uint32_t next_announcer_ = 1;
  std::vector<LiveName> live_;

  LinearNameTable oracle_;
  NameTree tree_;
  NameTree::LookupScratch scratch_;  // reused across every compiled lookup
  std::unique_ptr<ShardedNameTree> sharded_;
  // Journal-fed replica of sharded_ (see OpReplicateAndCompare).
  std::unique_ptr<ShardedNameTree> replica_;
  uint64_t replica_serial_ = 0;
  size_t replica_syncs_ = 0;
};

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

// Three-way equivalence, schema-complete workload.
TEST_P(DifferentialTest, OracleVsTreeVsShardedStore) {
  Harness h(GetParam(), kCompleteParams);
  h.RunOps(kOpsPerSeed);
  EXPECT_GT(h.replica_syncs(), 1u);  // the replication op really ran
}

// The store must track a bare tree exactly on ANY workload — including
// schema-incomplete names where advertisements omit attributes.
TEST_P(DifferentialTest, SingleShardIsByteIdenticalOnSparseWorkload) {
  Rng rng(GetParam() * 977 + 3);
  NameTree tree;
  ShardedNameTree sharded;
  sharded.AddSpace("");

  std::vector<LiveName> live;
  TimePoint now{0};
  for (size_t i = 0; i < kOpsPerSeed; ++i) {
    const uint64_t dice = rng.NextBelow(100);
    if (dice < 40 || live.empty()) {
      LiveName ln;
      const uint32_t n = static_cast<uint32_t>(i) + 1;
      ln.id = AnnouncerId{0x0b000000u + n, 11, n};
      ln.name = GenerateUniformName(rng, kSparseParams);
      ln.version = 1;
      ln.expires = now + Seconds(static_cast<int64_t>(20 + rng.NextBelow(200)));
      NameRecord rec;
      rec.announcer = ln.id;
      rec.expires = ln.expires;
      rec.version = ln.version;
      tree.Upsert(ln.name, rec);
      sharded.Upsert("", ln.name, rec);
      live.push_back(ln);
    } else if (dice < 60) {
      LiveName& ln = live[rng.NextBelow(live.size())];
      ln.version += 1;
      ln.name = GenerateUniformName(rng, kSparseParams);
      NameRecord rec;
      rec.announcer = ln.id;
      rec.expires = ln.expires;
      rec.version = ln.version;
      tree.Upsert(ln.name, rec);
      sharded.Upsert("", ln.name, rec);
    } else if (dice < 70) {
      now += Seconds(static_cast<int64_t>(rng.NextBelow(80)));
      ASSERT_EQ(tree.ExpireBefore(now), sharded.ExpireBefore(now));
      std::erase_if(live, [now](const LiveName& ln) { return ln.expires < now; });
    } else {
      // Arbitrary (sparse) query: the store must agree verbatim.
      NameSpecifier q = GenerateUniformName(rng, kSparseParams);
      std::vector<const NameRecord*> want = tree.Lookup(q);
      std::vector<NameRecord> got = sharded.Lookup("", q);
      ASSERT_EQ(want.size(), got.size()) << q.ToString();
      for (size_t k = 0; k < want.size(); ++k) {
        EXPECT_TRUE(want[k]->announcer == got[k].announcer);
        EXPECT_EQ(want[k]->version, got[k].version);
      }
    }
  }
  EXPECT_EQ(tree.record_count(), sharded.RecordCount(""));
  EXPECT_TRUE(tree.CheckInvariants().ok());
  EXPECT_TRUE(sharded.CheckInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u));

// ---------------------------------------------------------------------------
// Interned core vs the pre-interning string-keyed layout (baseline/
// string_name_tree.h, the ablation baseline): insert-only workloads across
// both schema shapes, identical results on every query. This pins the
// SymbolTable / CompiledName / flat-map rewrite to the old layout's
// observable behavior, independent of the Matches() oracle.
// ---------------------------------------------------------------------------

class InternedVsStringKeyedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InternedVsStringKeyedTest, IdenticalLookupResults) {
  for (const UniformNameParams& params : {kCompleteParams, kSparseParams}) {
    Rng rng(GetParam() * 7919 + 17);
    NameTree interned;
    StringNameTree stringly;
    for (uint32_t i = 1; i <= 400; ++i) {
      NameSpecifier name = GenerateUniformName(rng, params);
      NameRecord rec;
      rec.announcer = AnnouncerId{0x0f000000u + i, 13, i};
      rec.expires = Seconds(3600);
      rec.version = 1;
      interned.Upsert(name, rec);
      stringly.Insert(name, rec);
    }
    NameTree::LookupScratch scratch;
    for (int q = 0; q < 300; ++q) {
      NameSpecifier query = GenerateUniformName(rng, params);
      std::vector<const NameRecord*> a =
          interned.Lookup(CompiledName::ForQuery(query, interned.symbols()), &scratch);
      std::vector<const NameRecord*> b = stringly.Lookup(query);
      ASSERT_EQ(a.size(), b.size()) << query.ToString();
      for (size_t k = 0; k < a.size(); ++k) {
        EXPECT_TRUE(a[k]->announcer == b[k]->announcer) << query.ToString();
      }
    }
    EXPECT_TRUE(interned.CheckInvariants().ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InternedVsStringKeyedTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// A CompiledName built against a shared symbol table grafts identically into
// every tree attached to that table — the property ShardedNameTree relies on
// to compile once and apply to any space's tree.
TEST(SharedSymbolTableTest, CompileOncePortableAcrossTrees) {
  auto symbols = std::make_shared<SymbolTable>();
  NameTree left(symbols);
  NameTree right(symbols);
  ASSERT_EQ(&left.symbols(), symbols.get());
  ASSERT_EQ(&right.symbols(), symbols.get());

  Rng rng(99);
  for (uint32_t i = 1; i <= 200; ++i) {
    NameSpecifier name = GenerateUniformName(rng, kSparseParams);
    const CompiledName compiled = CompiledName::ForUpdate(name, symbols.get());
    NameRecord rec;
    rec.announcer = AnnouncerId{0x10000000u + i, 3, i};
    rec.expires = Seconds(3600);
    rec.version = 1;
    left.Upsert(name, compiled, rec);
    right.Upsert(name, compiled, rec);
  }
  for (int q = 0; q < 200; ++q) {
    NameSpecifier query = GenerateUniformName(rng, kSparseParams);
    const CompiledName cq = CompiledName::ForQuery(query, *symbols);
    std::vector<const NameRecord*> a = left.Lookup(cq);
    std::vector<const NameRecord*> b = right.Lookup(cq);
    ASSERT_EQ(a.size(), b.size());
    for (size_t k = 0; k < a.size(); ++k) {
      EXPECT_TRUE(a[k]->announcer == b[k]->announcer);
    }
  }
  // One table, no per-tree copies: both trees report zero owned symbol bytes.
  EXPECT_EQ(left.ComputeStats().symbol_bytes, 0u);
  EXPECT_EQ(right.ComputeStats().symbol_bytes, 0u);
  EXPECT_TRUE(left.CheckInvariants().ok());
  EXPECT_TRUE(right.CheckInvariants().ok());
}

}  // namespace
}  // namespace ins
