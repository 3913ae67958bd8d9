// Property tests for the posting-list secondary index (posting_index.h).
//
// Four families, each pinning one piece of the index's contract with the
// Figure-5 tree walk it replaces on the hot path:
//
//   * intersection invariance — a derived plan's result set is unchanged
//     under any reordering of its intersection terms (the rarest-first
//     evaluation order is an optimization, never a semantic);
//   * monotone shrinkage — strengthening a query (adding a conjunct at the
//     root or deepening a chain) never grows the result set;
//   * promotion/demotion round-trips — posting lists crossing the density
//     threshold re-encode between sorted-array and bitmap representations
//     without changing membership, with hysteresis on the way down;
//   * fallback equivalence — wildcard, range, and union-at-return queries
//     take the tree walk, and Lookup agrees with LookupTreeWalk and with a
//     Matches() scan exactly.
//
// Plus the LookupScratch retention regression: a degenerate query against a
// large tree must not leave megabytes pinned in the thread's scratch.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "ins/common/rng.h"
#include "ins/name/compiled_name.h"
#include "ins/name/matcher.h"
#include "ins/nametree/name_tree.h"
#include "ins/nametree/posting_index.h"
#include "ins/nametree/sharded_name_tree.h"
#include "ins/workload/namegen.h"

#include "alloc_window.h"

namespace ins {
namespace {

NameRecord MakeRecord(uint32_t n) {
  NameRecord r;
  r.announcer = AnnouncerId{0x0a000000u + n, 7, n};
  r.expires = Seconds(3600);
  r.version = 1;
  return r;
}

std::set<std::string> Announcers(const std::vector<const NameRecord*>& recs) {
  std::set<std::string> out;
  for (const NameRecord* r : recs) {
    out.insert(r->announcer.ToString());
  }
  return out;
}

// The Matches() scan over `names`, where names[i] was advertised with
// MakeRecord(i + 1): a reference that shares no code with either engine.
// Exact on the fallback workloads below: the wildcard/range one is
// schema-complete, and in the union-at-return one the records that omit
// `room` are the ones the union rule adds back.
std::set<std::string> MatchingAnnouncers(const std::vector<NameSpecifier>& names,
                                         const NameSpecifier& query) {
  std::set<std::string> out;
  for (uint32_t i = 0; i < names.size(); ++i) {
    if (Matches(names[i], query)) {
      out.insert(MakeRecord(i + 1).announcer.ToString());
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Intersection invariance under conjunct reordering.
// ---------------------------------------------------------------------------

TEST(PostingIndexPropertyTest, PlanResultInvariantUnderTermReordering) {
  Rng rng(17);
  NameTree tree;
  for (uint32_t i = 1; i <= 600; ++i) {
    tree.Upsert(GenerateUniformName(rng, UniformNameParams{4, 3, 3, 2}), MakeRecord(i));
  }
  const PostingIndex& index = tree.posting_index();

  size_t multi_term_plans = 0;
  std::vector<uint32_t> slots_a;
  std::vector<uint32_t> slots_b;
  std::vector<uint64_t> words;
  for (int q = 0; q < 400; ++q) {
    const NameSpecifier query = GenerateUniformName(rng, UniformNameParams{4, 3, 3, 2});
    const CompiledName cq = CompiledName::ForQuery(query, tree.symbols());
    QueryPlan plan;
    index.DerivePlan(cq, &plan);
    if (plan.kind != QueryPlan::Kind::kIndex || plan.terms.size() < 2) {
      continue;
    }
    ++multi_term_plans;
    index.Evaluate(plan, &slots_a, &words);

    // Every permutation round: shuffle, re-evaluate, same ascending slots.
    for (int round = 0; round < 4; ++round) {
      for (size_t i = plan.terms.size(); i > 1; --i) {
        std::swap(plan.terms[i - 1], plan.terms[rng.NextBelow(i)]);
      }
      index.Evaluate(plan, &slots_b, &words);
      ASSERT_EQ(slots_a, slots_b) << "term order changed the intersection on "
                                  << query.ToString();
    }

    // And the slots agree with the Figure-5 walk on the same tree.
    std::set<std::string> via_index;
    for (uint32_t s : slots_a) {
      via_index.insert(index.RecordAt(s)->announcer.ToString());
    }
    EXPECT_EQ(via_index, Announcers(tree.LookupTreeWalk(cq))) << query.ToString();
  }
  // The workload actually produced conjunctive multi-term plans.
  EXPECT_GT(multi_term_plans, 20u);
}

// ---------------------------------------------------------------------------
// The intersection kernel against a std::set_intersection oracle.
// ---------------------------------------------------------------------------

// A bare PostingIndex over a fixed slot universe whose postings are built
// straight through the writer API, so a test picks every list's members and
// representation. Over 2^20 slots a list promotes to a bitmap when it reaches
// 16,384 members and demotes below 8,192; AddBitmap uses that hysteresis to
// make bitmaps rarer than some arrays, which plain growth never does.
class SyntheticPostings {
 public:
  static constexpr uint32_t kUniverse = 1u << 20;
  static constexpr size_t kPromoteAt = kUniverse / PostingList::kPromoteDensity;
  static constexpr size_t kDemoteBelow = kUniverse / PostingList::kDemoteDensity;

  SyntheticPostings() {
    for (uint32_t i = 0; i < kUniverse; ++i) {
      index_.AcquireSlot(&record_);
    }
  }

  const PostingIndex& index() const { return index_; }

  // Adds a posting holding `members` (ascending, unique); returns its key.
  uint64_t Add(const std::vector<uint32_t>& members) {
    const SymbolId attribute = next_attribute_++;
    for (uint32_t s : members) {
      index_.AddTerm(PostingIndex::kRootFp, attribute, 0, /*terminal=*/false, s);
    }
    return PostingIndex::ValueFp(PostingIndex::kRootFp, attribute, 0);
  }

  // As Add, but the posting ends up a bitmap however few its members (at
  // least kDemoteBelow): filler slots push it over the promotion threshold
  // and are then removed again.
  uint64_t AddBitmap(Rng& rng, const std::vector<uint32_t>& members) {
    std::vector<uint32_t> filler;
    while (members.size() + filler.size() < kPromoteAt) {
      const uint32_t s = static_cast<uint32_t>(rng.NextBelow(kUniverse));
      if (!std::binary_search(members.begin(), members.end(), s)) {
        filler.push_back(s);
      }
      if (members.size() + filler.size() == kPromoteAt) {
        std::sort(filler.begin(), filler.end());
        filler.erase(std::unique(filler.begin(), filler.end()), filler.end());
      }
    }
    std::vector<uint32_t> all;
    std::merge(members.begin(), members.end(), filler.begin(), filler.end(),
               std::back_inserter(all));
    const SymbolId attribute = next_attribute_;
    const uint64_t key = Add(all);
    for (uint32_t s : filler) {
      index_.RemoveTerm(key, PostingIndex::AttrFp(PostingIndex::kRootFp, attribute),
                        /*terminal=*/false, s);
    }
    return key;
  }

 private:
  PostingIndex index_;
  NameRecord record_;
  SymbolId next_attribute_ = 0;
};

// `n` distinct slots in ascending order: all of `core`, then uniform draws.
std::vector<uint32_t> RandomMembers(Rng& rng, size_t n, const std::vector<uint32_t>& core,
                                    uint32_t universe = SyntheticPostings::kUniverse) {
  std::vector<uint32_t> v = core;
  while (v.size() < n) {
    for (size_t i = v.size(); i < n; ++i) {
      v.push_back(static_cast<uint32_t>(rng.NextBelow(universe)));
    }
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  return v;
}

std::vector<uint32_t> OracleIntersection(const std::vector<std::vector<uint32_t>>& lists) {
  std::vector<uint32_t> acc = lists[0];
  for (size_t i = 1; i < lists.size(); ++i) {
    std::vector<uint32_t> next;
    std::set_intersection(acc.begin(), acc.end(), lists[i].begin(), lists[i].end(),
                          std::back_inserter(next));
    acc.swap(next);
  }
  return acc;
}

// Evaluates the plan over `keys` and compares it with the oracle over the
// same members; when `all_orders`, every permutation of the term order too.
void ExpectKernelMatchesOracle(const SyntheticPostings& postings,
                               const std::vector<uint64_t>& keys,
                               const std::vector<std::vector<uint32_t>>& members,
                               bool all_orders, const std::string& label) {
  const std::vector<uint32_t> want = OracleIntersection(members);
  std::vector<size_t> order(keys.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  QueryPlan plan;
  plan.kind = QueryPlan::Kind::kIndex;
  std::vector<uint32_t> got;
  std::vector<uint64_t> words;
  do {
    plan.terms.clear();
    for (size_t i : order) {
      plan.terms.push_back(keys[i]);
    }
    postings.index().Evaluate(plan, &got, &words);
    ASSERT_EQ(got, want) << label;
  } while (all_orders && std::next_permutation(order.begin(), order.end()));
}

TEST(PostingIndexKernelTest, PairsMatchSetIntersectionAcrossLengthRatios) {
  Rng rng(101);
  SyntheticPostings postings;
  size_t nonempty = 0;
  size_t bitmaps = 0;
  for (size_t rare : {1, 5, 60, 700, 20000}) {
    for (size_t ratio : {1, 2, 15, 16, 17, 64, 1000, 10000}) {
      const size_t common = rare * ratio;
      if (common > 200000) {
        continue;
      }
      for (bool shared : {true, false}) {
        // A shared core keeps the answer non-empty; without one the lists
        // are independent and mostly disjoint.
        const std::vector<uint32_t> core =
            shared ? RandomMembers(rng, (rare + 2) / 3, {}) : std::vector<uint32_t>{};
        const std::vector<std::vector<uint32_t>> members{RandomMembers(rng, rare, core),
                                                         RandomMembers(rng, common, core)};
        const std::vector<uint64_t> keys{postings.Add(members[0]), postings.Add(members[1])};
        bitmaps += postings.index().FindPosting(keys[1])->is_bitmap() ? 1 : 0;
        nonempty += OracleIntersection(members).empty() ? 0 : 1;
        ExpectKernelMatchesOracle(postings, keys, members, /*all_orders=*/true,
                                  "rare " + std::to_string(rare) + " ratio " +
                                      std::to_string(ratio));
      }
    }
  }
  EXPECT_GT(nonempty, 10u);
  EXPECT_GT(bitmaps, 5u);  // sorted/bitmap and bitmap/bitmap pairs ran too
}

TEST(PostingIndexKernelTest, MixedPlansMatchSetIntersectionInEveryTermOrder) {
  Rng rng(103);
  SyntheticPostings postings;
  // Half of every list's members come from one shared pool, so lists
  // overlap well beyond the core and survivors of the rarest pair still get
  // filtered by the later lists.
  const std::vector<uint32_t> pool = RandomMembers(rng, 40000, {});
  size_t nonempty = 0;
  size_t bitmap_terms = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const size_t nterms = 3 + rng.NextBelow(3);
    const std::vector<uint32_t> core = RandomMembers(rng, rng.NextBelow(4), {});
    std::vector<std::vector<uint32_t>> members;
    std::vector<uint64_t> keys;
    for (size_t t = 0; t < nterms; ++t) {
      // Kinds: 0 a rare array, 1 an array, 2 a bitmap below the promotion
      // size (AddBitmap), 3 a bitmap by size.
      const uint64_t kind = rng.NextBelow(4);
      const size_t n = kind == 0   ? 1 + rng.NextBelow(50)
                       : kind == 1 ? 200 + rng.NextBelow(16000)
                       : kind == 2 ? SyntheticPostings::kDemoteBelow + rng.NextBelow(8000)
                                   : SyntheticPostings::kPromoteAt + rng.NextBelow(80000);
      std::vector<uint32_t> seed = core;
      for (size_t i = 0; i < n / 2; ++i) {
        seed.push_back(pool[rng.NextBelow(pool.size())]);
      }
      std::sort(seed.begin(), seed.end());
      seed.erase(std::unique(seed.begin(), seed.end()), seed.end());
      members.push_back(RandomMembers(rng, std::max(n, seed.size()), seed));
      keys.push_back(kind == 2 ? postings.AddBitmap(rng, members.back())
                               : postings.Add(members.back()));
      const bool is_bitmap = postings.index().FindPosting(keys.back())->is_bitmap();
      ASSERT_EQ(is_bitmap, kind >= 2);
      bitmap_terms += is_bitmap ? 1 : 0;
    }
    nonempty += OracleIntersection(members).empty() ? 0 : 1;
    ExpectKernelMatchesOracle(postings, keys, members, /*all_orders=*/nterms <= 4,
                              "trial " + std::to_string(trial));
    if (nterms > 4) {
      // Five terms: a sample of orders instead of all 120.
      for (int round = 0; round < 8; ++round) {
        for (size_t i = keys.size(); i > 1; --i) {
          const size_t j = rng.NextBelow(i);
          std::swap(keys[i - 1], keys[j]);
          std::swap(members[i - 1], members[j]);
        }
        ExpectKernelMatchesOracle(postings, keys, members, /*all_orders=*/false,
                                  "trial " + std::to_string(trial));
      }
    }
  }
  EXPECT_GT(nonempty, 5u);
  EXPECT_GT(bitmap_terms, 10u);
}

TEST(PostingIndexKernelTest, SingleTermEmptyAndManyTermPlansMatchSetIntersection) {
  Rng rng(107);
  SyntheticPostings postings;

  // One term, either representation: the posting itself.
  for (size_t n : {1, 300, 40000}) {
    const std::vector<std::vector<uint32_t>> members{RandomMembers(rng, n, {})};
    ExpectKernelMatchesOracle(postings, {postings.Add(members[0])}, members, false,
                              "single term of " + std::to_string(n));
  }

  // Disjoint rarest pairs: evens against odds, as arrays of comparable
  // length, as a skewed pair, and against a bitmap; then with more lists
  // behind them, which the kernel must never need to touch.
  std::vector<uint32_t> evens;
  std::vector<uint32_t> odds;
  for (uint32_t s = 0; s < 40000; s += 2) {
    evens.push_back(s);
    odds.push_back(s + 1);
  }
  const std::vector<uint32_t> few_odds(odds.begin(), odds.begin() + 9);
  const std::vector<uint32_t> some_evens(evens.begin(), evens.begin() + 5000);
  const uint64_t k_evens = postings.Add(evens);  // 20,000 members: a bitmap
  const uint64_t k_odds = postings.Add(odds);
  const uint64_t k_few_odds = postings.Add(few_odds);
  const uint64_t k_some_evens = postings.Add(some_evens);
  const std::vector<uint32_t> wide = RandomMembers(rng, 30000, {});
  const uint64_t k_wide = postings.Add(wide);
  ExpectKernelMatchesOracle(postings, {k_some_evens, k_few_odds}, {some_evens, few_odds}, true,
                            "disjoint skewed arrays");
  ExpectKernelMatchesOracle(postings, {k_evens, k_few_odds}, {evens, few_odds}, true,
                            "disjoint array and bitmap");
  ExpectKernelMatchesOracle(postings, {k_evens, k_odds}, {evens, odds}, true,
                            "disjoint bitmaps");
  ExpectKernelMatchesOracle(postings, {k_some_evens, k_few_odds, k_wide, k_odds},
                            {some_evens, few_odds, wide, odds}, true,
                            "disjoint pair ahead of more lists");

  // More than 64 terms: the kernel's term array moves to the heap.
  const std::vector<uint32_t> core = RandomMembers(rng, 6, {});
  std::vector<std::vector<uint32_t>> members;
  std::vector<uint64_t> keys;
  for (size_t t = 0; t < 70; ++t) {
    const size_t n = t % 10 == 0 ? SyntheticPostings::kPromoteAt + 1000
                                 : 20 + rng.NextBelow(3000);
    members.push_back(RandomMembers(rng, n, core));
    keys.push_back(postings.Add(members.back()));
  }
  ExpectKernelMatchesOracle(postings, keys, members, false, "70 terms");
  std::reverse(keys.begin(), keys.end());
  std::reverse(members.begin(), members.end());
  ExpectKernelMatchesOracle(postings, keys, members, false, "70 terms reversed");
  EXPECT_EQ(OracleIntersection(members), core);
}

// Once a scratch pair has grown to fit a workload, evaluating the same plans
// again allocates nothing, on every kernel path with at most 64 terms.
TEST(PostingIndexKernelTest, WarmEvaluateDoesNotAllocate) {
  Rng rng(109);
  SyntheticPostings postings;
  const std::vector<uint32_t> core = RandomMembers(rng, 4, {});
  auto add = [&](size_t n) { return postings.Add(RandomMembers(rng, n, core)); };
  const uint64_t rare = add(3);
  const uint64_t mid_a = add(1000);
  const uint64_t mid_b = add(1100);
  const uint64_t wide = add(15000);
  const uint64_t bitmap_a = add(SyntheticPostings::kPromoteAt + 500);
  const uint64_t bitmap_b = add(SyntheticPostings::kPromoteAt + 9000);
  const uint64_t thin_bitmap =
      postings.AddBitmap(rng, RandomMembers(rng, SyntheticPostings::kDemoteBelow + 10, core));
  const uint64_t thin_bitmap_b =
      postings.AddBitmap(rng, RandomMembers(rng, SyntheticPostings::kDemoteBelow + 900, core));
  const std::vector<std::vector<uint64_t>> plans{
      {mid_a},                                // one term
      {bitmap_a, bitmap_b},                   // all bitmaps
      {mid_a, mid_b},                         // comparable arrays
      {rare, wide},                           // skewed arrays
      {mid_a, bitmap_a},                      // array and bitmap
      {wide, thin_bitmap_b, thin_bitmap},     // bitmap pair, then an array
      {thin_bitmap, wide, mid_b, bitmap_b},   // array and bitmap pair, then both kinds
      {rare, mid_a, mid_b, wide, bitmap_a},   // skewed pair, then a few survivors
  };
  std::vector<QueryPlan> compiled(plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    compiled[i].kind = QueryPlan::Kind::kIndex;
    compiled[i].terms = plans[i];
  }
  ASSERT_TRUE(postings.index().FindPosting(thin_bitmap)->is_bitmap());
  ASSERT_TRUE(postings.index().FindPosting(thin_bitmap_b)->is_bitmap());
  ASSERT_FALSE(postings.index().FindPosting(wide)->is_bitmap());

  std::vector<uint32_t> slots;
  std::vector<uint64_t> words;
  for (const QueryPlan& plan : compiled) {
    postings.index().Evaluate(plan, &slots, &words);  // warm-up
  }
  uint64_t allocs = 0;
  size_t total = 0;
  {
    AllocWindow window;
    for (int round = 0; round < 3; ++round) {
      for (const QueryPlan& plan : compiled) {
        postings.index().Evaluate(plan, &slots, &words);
        total += slots.size();
      }
    }
    allocs = window.count();
  }
  EXPECT_EQ(allocs, 0u);
  EXPECT_GE(total, 3 * core.size() * compiled.size());
}

// ---------------------------------------------------------------------------
// Monotone shrinkage under query strengthening.
// ---------------------------------------------------------------------------

TEST(PostingIndexPropertyTest, StrengtheningAQueryNeverGrowsTheResult) {
  Rng rng(29);
  NameTree tree;
  for (uint32_t i = 1; i <= 500; ++i) {
    tree.Upsert(GenerateUniformName(rng, UniformNameParams{5, 3, 4, 2}), MakeRecord(i));
  }

  size_t strict_shrinks = 0;
  for (int q = 0; q < 300; ++q) {
    // Build a root conjunction one av-pair at a time; each extension must
    // yield a subset of the previous result (with the index serving the
    // literal plans and the walk cross-checked at every step).
    NameSpecifier query;
    std::set<std::string> prev;
    bool first = true;
    // Distinct root attributes (the per-level uniqueness invariant), drawn
    // from the generator's pools so the conjuncts genuinely select.
    std::vector<size_t> attrs{0, 1, 2, 3, 4};
    for (size_t i = attrs.size(); i > 1; --i) {
      std::swap(attrs[i - 1], attrs[rng.NextBelow(i)]);
    }
    const size_t conjuncts = 2 + rng.NextBelow(3);
    for (size_t k = 0; k < conjuncts; ++k) {
      query.AddPath({{"a0_" + std::to_string(attrs[k]),
                      "v" + std::to_string(rng.NextBelow(3))}});
      const CompiledName cq = CompiledName::ForQuery(query, tree.symbols());
      const std::set<std::string> now = Announcers(tree.Lookup(cq));
      EXPECT_EQ(now, Announcers(tree.LookupTreeWalk(cq))) << query.ToString();
      if (!first) {
        EXPECT_TRUE(std::includes(prev.begin(), prev.end(), now.begin(), now.end()))
            << "strengthened query grew the result: " << query.ToString();
        strict_shrinks += now.size() < prev.size() ? 1 : 0;
      }
      first = false;
      prev = now;
    }
  }
  // The property was not vacuous: conjuncts genuinely constrained results.
  EXPECT_GT(strict_shrinks, 50u);
}

TEST(PostingIndexPropertyTest, DeepeningAChainShrinksOrGoesUniversal) {
  // Nested strengthening is monotone EXCEPT through Figure 5's
  // `Ta = null -> continue` rule: when the deeper attribute is absent under
  // the matched node, the recursion level is universal and the conjunct
  // stops constraining entirely — the result lawfully jumps to all records.
  // The index must reproduce that exact dichotomy: every deepened query
  // either shrinks the result or returns the universal set, and always
  // agrees with the walk.
  Rng rng(31);
  NameTree tree;
  for (uint32_t i = 1; i <= 400; ++i) {
    tree.Upsert(GenerateChainName(rng, 3, 4, 3), MakeRecord(i));
  }
  const std::set<std::string> all = Announcers(tree.AllRecords());

  size_t shrinks = 0;
  size_t universal_jumps = 0;
  for (int q = 0; q < 200; ++q) {
    std::vector<std::pair<std::string, std::string>> chain;
    std::set<std::string> prev;
    bool first = true;
    for (size_t depth = 1; depth <= 3; ++depth) {
      chain.emplace_back("a" + std::to_string(depth - 1) + "_" +
                             std::to_string(rng.NextBelow(4)),
                         "v" + std::to_string(rng.NextBelow(3)));
      NameSpecifier query;
      query.AddPath(chain);
      const CompiledName cq = CompiledName::ForQuery(query, tree.symbols());
      const std::set<std::string> now = Announcers(tree.Lookup(cq));
      EXPECT_EQ(now, Announcers(tree.LookupTreeWalk(cq))) << query.ToString();
      if (!first) {
        const bool shrank =
            std::includes(prev.begin(), prev.end(), now.begin(), now.end());
        EXPECT_TRUE(shrank || now == all)
            << "deepened query grew the result without going universal: "
            << query.ToString();
        shrinks += shrank && now.size() < prev.size() ? 1 : 0;
        universal_jumps += !shrank ? 1 : 0;
      }
      first = false;
      prev = now;
    }
  }
  // Both arms of the dichotomy actually occurred in the sweep.
  EXPECT_GT(shrinks, 20u);
  EXPECT_GT(universal_jumps, 5u);
}

// ---------------------------------------------------------------------------
// Promotion / demotion round-trips at the density threshold.
// ---------------------------------------------------------------------------

TEST(PostingListTest, PromotionAndDemotionRoundTripPreservesMembership) {
  PostingList list;
  constexpr size_t kCapacity = 1024;

  // Every 3rd slot: dense enough to promote well past the minimum count.
  std::vector<uint32_t> members;
  for (uint32_t s = 0; s < kCapacity; s += 3) {
    members.push_back(s);
  }
  bool promoted = false;
  for (uint32_t s : members) {
    promoted |= list.Add(s, kCapacity);
    ASSERT_TRUE(list.CheckInvariants().ok());
  }
  EXPECT_TRUE(promoted);
  EXPECT_TRUE(list.is_bitmap());
  EXPECT_EQ(list.count(), members.size());

  // Membership and ascending iteration survive the encoding change.
  std::vector<uint32_t> seen;
  list.ForEachAscending([&](uint32_t s) { seen.push_back(s); });
  EXPECT_EQ(seen, members);
  for (uint32_t s = 0; s < kCapacity; ++s) {
    EXPECT_EQ(list.Contains(s), s % 3 == 0) << s;
  }

  // Remove down through the hysteresis band: the list must demote and the
  // survivors must be exactly the members never removed.
  bool demoted = false;
  while (members.size() > 4) {
    const uint32_t victim = members.back();
    members.pop_back();
    demoted |= list.Remove(victim, kCapacity);
    ASSERT_TRUE(list.CheckInvariants().ok());
  }
  EXPECT_TRUE(demoted);
  EXPECT_FALSE(list.is_bitmap());
  seen.clear();
  list.ForEachAscending([&](uint32_t s) { seen.push_back(s); });
  EXPECT_EQ(seen, members);
}

TEST(PostingListTest, OscillatingAtTheThresholdDoesNotThrash) {
  PostingList list;
  constexpr size_t kCapacity = 4096;
  for (uint32_t s = 0; s < 80; ++s) {
    list.Add(s, kCapacity);
  }
  ASSERT_TRUE(list.is_bitmap());  // 80 >= 64 and 80 * 64 >= 4096

  // One add/remove per step right at the promotion boundary: hysteresis
  // (demotion waits for half the density) keeps the representation stable.
  for (int step = 0; step < 200; ++step) {
    list.Remove(static_cast<uint32_t>(step % 80), kCapacity);
    EXPECT_TRUE(list.is_bitmap()) << "demoted at count 79, inside the hysteresis band";
    list.Add(static_cast<uint32_t>(step % 80), kCapacity);
    ASSERT_TRUE(list.CheckInvariants().ok());
  }
}

TEST(PostingIndexPropertyTest, TreeChurnPromotesAndDemotesWithIdenticalResults) {
  NameTree tree;
  // 300 records share [svc=hot]; the posting for that value path covers the
  // whole slot universe and must promote to a bitmap.
  for (uint32_t i = 1; i <= 300; ++i) {
    NameSpecifier n;
    n.AddPath({{"svc", "hot"}, {"unit", "u" + std::to_string(i)}});
    tree.Upsert(n, MakeRecord(i));
  }
  const PostingIndex& index = tree.posting_index();
  PostingIndexStats stats = tree.index_stats();
  EXPECT_GT(stats.promotions, 0u);

  const uint64_t vfp = PostingIndex::ValueFp(PostingIndex::kRootFp,
                                             tree.symbols().Find("svc"),
                                             tree.symbols().Find("hot"));
  const PostingList* posting = index.FindPosting(vfp);
  ASSERT_NE(posting, nullptr);
  EXPECT_TRUE(posting->is_bitmap());
  EXPECT_EQ(posting->count(), 300u);

  NameSpecifier q;
  q.AddPath({{"svc", "hot"}});
  const CompiledName cq = CompiledName::ForQuery(q, tree.symbols());
  EXPECT_EQ(Announcers(tree.Lookup(cq)), Announcers(tree.LookupTreeWalk(cq)));
  EXPECT_EQ(tree.Lookup(cq).size(), 300u);

  // Churn 290 of the records out: the posting must demote back to a sorted
  // array and keep answering identically.
  for (uint32_t i = 1; i <= 290; ++i) {
    ASSERT_TRUE(tree.Remove(AnnouncerId{0x0a000000u + i, 7, i}));
  }
  stats = tree.index_stats();
  EXPECT_GT(stats.demotions, 0u);
  posting = index.FindPosting(vfp);
  ASSERT_NE(posting, nullptr);
  EXPECT_FALSE(posting->is_bitmap());
  EXPECT_EQ(posting->count(), 10u);
  EXPECT_EQ(Announcers(tree.Lookup(cq)), Announcers(tree.LookupTreeWalk(cq)));
  EXPECT_EQ(tree.Lookup(cq).size(), 10u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

// Heavy rename churn on ONE announcer through the resolver's store: the
// posting universe (slot vector) must stay compact via free-list reuse, and
// every lookup must return the announcer's latest record only.
TEST(PostingIndexPropertyTest, RenameChurnKeepsSlotUniverseCompact) {
  ShardedNameTree store;
  store.AddSpace("");
  const AnnouncerId id{0x0b000001u, 2000, 0};
  for (uint64_t v = 1; v <= 400; ++v) {
    // The first attribute rotates with the version: every upsert renames.
    NameSpecifier name;
    name.AddPath({{"svc_" + std::to_string(v % 8), "on"}, {"unit", "0"}});
    NameRecord rec;
    rec.announcer = id;
    rec.version = v;
    rec.expires = Seconds(100000 + static_cast<int64_t>(v));
    ASSERT_NE(store.Upsert("", name, rec).kind, NameTree::UpsertOutcome::kIgnored);

    NameSpecifier query;
    query.AddPath({{"svc_" + std::to_string(v % 8), "on"}});
    const std::vector<NameRecord> found = store.Lookup("", query);
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].version, v);
  }

  EXPECT_EQ(store.RecordCount(""), 1u);
  EXPECT_TRUE(store.CheckInvariants().ok());
  // One live record: 400 renames may not have grown the index past a few
  // posting keys (free-list slot reuse, erase-at-zero key pruning).
  const PostingIndexStats stats = store.IndexStatsTotal();
  EXPECT_GT(stats.index_lookups, 0u);
  EXPECT_LE(stats.posting_keys, 4u);
  EXPECT_LT(stats.bytes, size_t{64} << 10);
}

// ---------------------------------------------------------------------------
// Fallback equivalence for range / wildcard / union-at-return queries.
// ---------------------------------------------------------------------------

TEST(PostingIndexPropertyTest, WildcardAndRangeQueriesFallBackAndAgree) {
  Rng rng(43);
  NameTree tree;
  std::vector<NameSpecifier> names;
  for (uint32_t i = 1; i <= 400; ++i) {
    NameSpecifier n;
    n.AddPath({{"svc", "s" + std::to_string(rng.NextBelow(6))},
               {"load", std::to_string(rng.NextBelow(100))}});
    tree.Upsert(n, MakeRecord(i));
    names.push_back(n);
  }

  const PostingIndexStats before = tree.index_stats();
  for (int q = 0; q < 100; ++q) {
    NameSpecifier wild;
    wild.AddPathValue({}, "svc", Value::Wildcard());
    NameSpecifier range;
    range.AddPathValue({{"svc", "s" + std::to_string(rng.NextBelow(6))}}, "load",
                       Value::Range(Value::Kind::kLess,
                                    static_cast<double>(rng.NextBelow(100))));
    for (const NameSpecifier& query : {wild, range}) {
      const CompiledName cq = CompiledName::ForQuery(query, tree.symbols());
      const std::set<std::string> got = Announcers(tree.Lookup(cq));
      EXPECT_EQ(got, Announcers(tree.LookupTreeWalk(cq))) << query.ToString();
      EXPECT_EQ(got, MatchingAnnouncers(names, query)) << query.ToString();
    }
  }
  const PostingIndexStats after = tree.index_stats();
  EXPECT_EQ(after.fallback_wildcard - before.fallback_wildcard, 100u);
  EXPECT_EQ(after.fallback_range - before.fallback_range, 100u);
  EXPECT_EQ(after.index_lookups, before.index_lookups);  // none served by lists
}

TEST(PostingIndexPropertyTest, UnionAtReturnQueriesFallBackAndAgree) {
  // Records attached at an interior node ([svc=cam]) below which OTHER
  // records continue ([svc=cam [room=r]]): a query reaching past the interior
  // attachment triggers Figure 5's union-at-return rule, which plans cannot
  // express — the index must detect it (sub > end with children) and fall
  // back, agreeing with the walk exactly.
  NameTree tree;
  std::vector<NameSpecifier> names;
  for (uint32_t i = 1; i <= 40; ++i) {
    NameSpecifier n;
    if (i % 4 == 0) {
      n.AddPath({{"svc", "cam"}});  // ends at the interior node
    } else {
      n.AddPath({{"svc", "cam"}, {"room", "r" + std::to_string(i % 5)}});
    }
    tree.Upsert(n, MakeRecord(i));
    names.push_back(n);
  }

  const PostingIndexStats before = tree.index_stats();
  for (uint32_t r = 0; r < 5; ++r) {
    NameSpecifier q;
    q.AddPath({{"svc", "cam"}, {"room", "r" + std::to_string(r)}});
    const CompiledName cq = CompiledName::ForQuery(q, tree.symbols());
    const std::vector<const NameRecord*> got = tree.Lookup(cq);
    EXPECT_EQ(Announcers(got), Announcers(tree.LookupTreeWalk(cq))) << q.ToString();
    EXPECT_EQ(Announcers(got), MatchingAnnouncers(names, q)) << q.ToString();
    // The interior attachments themselves are part of the answer (union).
    EXPECT_GE(got.size(), 10u) << q.ToString();
  }
  const PostingIndexStats after = tree.index_stats();
  EXPECT_EQ(after.fallback_union - before.fallback_union, 5u);
}

// ---------------------------------------------------------------------------
// Plan-cache behavior and scratch retention.
// ---------------------------------------------------------------------------

TEST(PostingIndexPropertyTest, PlanCacheHitsRepeatQueriesAndInvalidatesOnWrites) {
  NameTree tree;
  for (uint32_t i = 1; i <= 100; ++i) {
    NameSpecifier n;
    n.AddPath({{"svc", "s" + std::to_string(i % 4)}, {"unit", "u" + std::to_string(i)}});
    tree.Upsert(n, MakeRecord(i));
  }
  NameSpecifier q;
  q.AddPath({{"svc", "s1"}});
  const CompiledName cq = CompiledName::ForQuery(q, tree.symbols());
  NameTree::LookupScratch scratch;

  (void)tree.Lookup(cq, &scratch);
  const PostingIndexStats first = tree.index_stats();
  EXPECT_EQ(first.plan_misses, 1u);
  for (int i = 0; i < 10; ++i) {
    (void)tree.Lookup(cq, &scratch);
  }
  PostingIndexStats stats = tree.index_stats();
  EXPECT_EQ(stats.plan_misses, 1u);  // all repeats hit the cached plan
  EXPECT_EQ(stats.plan_hits, 10u);

  // Any mutation bumps the index version; the cached plan must be re-derived.
  tree.Upsert([&] {
    NameSpecifier n;
    n.AddPath({{"svc", "s1"}, {"unit", "u_new"}});
    return n;
  }(), MakeRecord(999));
  (void)tree.Lookup(cq, &scratch);
  stats = tree.index_stats();
  EXPECT_EQ(stats.plan_misses, 2u);
}

TEST(LookupScratchTest, DegenerateQueryDoesNotPinScratchMemory) {
  // Regression for the pooled-vector high-water-mark leak: one broad query
  // against a large tree used to leave every candidate vector at full
  // capacity in the pool forever (hundreds of MB per long-lived thread on a
  // 10^6-name store). Trim() now caps what survives between lookups.
  NameTree tree;
  for (uint32_t i = 1; i <= 50000; ++i) {
    NameSpecifier n;
    n.AddPath({{"common", "c"}, {"unit", "u" + std::to_string(i)}});
    tree.Upsert(n, MakeRecord(i));
  }

  NameSpecifier q;
  q.AddPath({{"common", "c"}});
  const CompiledName cq = CompiledName::ForQuery(q, tree.symbols());
  NameTree::LookupScratch scratch;

  // Both engines produce the full 50k result; neither may pin it afterwards.
  EXPECT_EQ(tree.LookupTreeWalk(cq, &scratch).size(), 50000u);
  EXPECT_EQ(tree.Lookup(cq, &scratch).size(), 50000u);
  // A wildcard query walks and collects through the pooled vectors too.
  NameSpecifier wild;
  wild.AddPathValue({}, "common", Value::Wildcard());
  EXPECT_EQ(tree.Lookup(CompiledName::ForQuery(wild, tree.symbols()), &scratch).size(),
            50000u);

  // Static budget from the Trim caps: pool + stamped set + index scratch,
  // with generous headroom for the plan cache. Far below the ~MB-per-vector
  // the un-capped pool retained.
  constexpr size_t kBudget =
      NameTree::LookupScratch::kMaxRetainedPoolVectors *
          NameTree::LookupScratch::kMaxRetainedVecEntries * sizeof(void*) +
      NameTree::LookupScratch::kMaxRetainedSetSlots * 16 +
      NameTree::LookupScratch::kMaxRetainedSlotEntries * (sizeof(uint32_t) + sizeof(uint64_t)) +
      (1 << 20);
  EXPECT_LE(scratch.RetainedBytes(), kBudget);
  // And the real point: repeated large lookups reach a steady state instead
  // of ratcheting the high-water mark.
  const size_t steady = scratch.RetainedBytes();
  for (int i = 0; i < 5; ++i) {
    (void)tree.Lookup(cq, &scratch);
  }
  EXPECT_LE(scratch.RetainedBytes(), steady + (64 << 10));
}

}  // namespace
}  // namespace ins
