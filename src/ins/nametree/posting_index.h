// The per-tree secondary index: posting lists keyed by value-path
// fingerprints, turning conjunctive literal LOOKUP-NAME queries into
// posting-list intersections instead of tree walks (ROADMAP item: hold >= 1M
// lookups/s at 10^5-10^6 names). Evaluation sorts a plan's lists by length,
// intersects the two rarest, and filters the survivors through the rest, so
// a lookup touches two lists plus a few probes per survivor in the others;
// plans made only of bitmaps take a word-parallel AND instead.
//
// Keys. A name-tree node is identified by the hash chain of the (attribute,
// value) SymbolId pairs on its root path: ValueFp(parent_fp, a, v). Chained
// fingerprints — rather than flat (a, v) pairs — preserve the tree's
// hierarchical semantics: `[a=1[b=2]]` and `[b=2]` name different nodes and
// therefore different postings. Three maps mirror the tree exactly:
//
//   sub_[vfp]         posting list of the records with a terminal at or
//                     below node vfp == the records whose specifier contains
//                     that value path (the tree's Sub(p') sets);
//   end_count_[vfp]   how many records are attached exactly at vfp;
//   attr_count_[afp]  how many records graft through attribute-path afp.
//
// Counts (not lists) suffice for end/attr because plan derivation only needs
// the structural facts LOOKUP-NAME branches on: an attribute path exists in
// the tree iff attr_count > 0, a value node exists iff sub_ holds its key,
// and a value node has no attribute children iff sub == end (every record
// under it is attached right there, in which case End == Sub and the sub
// posting doubles as the End set). The remaining case — records attached at
// an interior node with deeper query levels (the union-at-return rule) —
// falls back to the tree walk, as do wildcard and range levels.
//
// Record ids. Records get dense u32 slots from a free-list allocator (the
// bitmap universe); posting lists store slots sorted ascending and promote
// to bitmaps above a density threshold with hysteresis on the way back down.
//
// Concurrency. A PostingIndex is a private member of one NameTree and is
// mutated only through that tree's write path; it follows the tree's rule of
// one writer, or any number of readers. The version() counter — bumped on
// every mutation — is what keys QueryPlanCache validity. The lookup counters
// are relaxed atomics because const lookups may run on several threads at
// once (each with its own LookupScratch).

#ifndef INS_NAMETREE_POSTING_INDEX_H_
#define INS_NAMETREE_POSTING_INDEX_H_

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ins/common/status.h"
#include "ins/name/compiled_name.h"
#include "ins/nametree/query_plan.h"

namespace ins {

struct NameRecord;

// One posting: the set of record slots on one value path, sorted-array or
// bitmap representation chosen by density. Membership, insertion, and
// removal are representation-independent; only cost changes.
class PostingList {
 public:
  // Sorted lists promote to bitmaps when they are both big enough to matter
  // and dense enough that capacity/8 bytes of bitmap beat 4*count bytes of
  // array; demotion waits for half that density (hysteresis, so a workload
  // oscillating at the threshold does not re-encode per update).
  static constexpr uint32_t kPromoteMinCount = 64;
  static constexpr size_t kPromoteDensity = 64;  // promote at count >= cap/64
  static constexpr size_t kDemoteDensity = 128;  // demote at count < cap/128

  uint32_t count() const { return count_; }
  bool is_bitmap() const { return is_bitmap_; }

  // `capacity` is the current slot-universe size (index slot vector length);
  // promotion decisions are taken against it at mutation time. Returns true
  // when the representation changed (promotion/demotion).
  bool Add(uint32_t slot, size_t capacity);
  bool Remove(uint32_t slot, size_t capacity);

  bool Contains(uint32_t slot) const;

  // Calls fn(slot) for every member in ascending slot order.
  template <typename Fn>
  void ForEachAscending(Fn&& fn) const {
    if (!is_bitmap_) {
      for (uint32_t s : sorted_) {
        fn(s);
      }
      return;
    }
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t bits = words_[w];
      while (bits != 0) {
        const int b = __builtin_ctzll(bits);
        fn(static_cast<uint32_t>(w * 64 + static_cast<size_t>(b)));
        bits &= bits - 1;
      }
    }
  }

  // Representation internals for the intersection kernels.
  const std::vector<uint32_t>& sorted() const { return sorted_; }
  const std::vector<uint64_t>& words() const { return words_; }

  size_t MemoryBytes() const {
    return sorted_.capacity() * sizeof(uint32_t) + words_.capacity() * sizeof(uint64_t);
  }

  Status CheckInvariants() const;

 private:
  void Promote(size_t capacity);
  void Demote();

  bool is_bitmap_ = false;
  uint32_t count_ = 0;
  std::vector<uint32_t> sorted_;  // ascending, unique; empty in bitmap mode
  std::vector<uint64_t> words_;   // bitmap mode only
};

// Counter snapshot aggregated across shards/sides for the index.* metrics
// family and test assertions.
struct PostingIndexStats {
  // Lookup outcomes (read-side events, counted where the lookup ran).
  uint64_t index_lookups = 0;      // served by posting-list intersection
  uint64_t empty_lookups = 0;      // plan proved the result empty
  uint64_t universal_lookups = 0;  // no level constrained; AllRecords served
  uint64_t fallback_wildcard = 0;  // tree walk: wildcard level
  uint64_t fallback_range = 0;     // tree walk: range level
  uint64_t fallback_union = 0;     // tree walk: union-at-return level
  uint64_t plan_hits = 0;          // QueryPlanCache hits
  uint64_t plan_misses = 0;        // plans derived fresh
  // Structural events (write-side).
  uint64_t promotions = 0;
  uint64_t demotions = 0;
  // Size of the read side.
  size_t posting_keys = 0;  // distinct value paths with a posting
  size_t bytes = 0;

  uint64_t TotalLookups() const {
    return index_lookups + empty_lookups + universal_lookups + fallback_wildcard +
           fallback_range + fallback_union;
  }
  uint64_t TotalFallbacks() const {
    return fallback_wildcard + fallback_range + fallback_union;
  }

  PostingIndexStats& operator+=(const PostingIndexStats& o);
};

class PostingIndex {
 public:
  // Fingerprint chain seeds/salts. Attribute and value paths are salted
  // differently so AttrFp(p, a) never collides with a ValueFp by key reuse.
  static constexpr uint64_t kRootFp = UINT64_C(0x9ae16a3b2f90404f);

  static uint64_t AttrFp(uint64_t parent_fp, SymbolId attribute) {
    return Chain(parent_fp ^ UINT64_C(0xa0761d6478bd642f), attribute, 0);
  }
  static uint64_t ValueFp(uint64_t parent_fp, SymbolId attribute, SymbolId token) {
    return Chain(parent_fp, attribute, token);
  }

  PostingIndex();

  PostingIndex(const PostingIndex&) = delete;
  PostingIndex& operator=(const PostingIndex&) = delete;

  // Process-unique instance id: after tree teardown, a plan cached against
  // one index must never validate against another that happens to reuse its
  // address.
  uint64_t id() const { return id_; }
  // Bumped on every mutation; a cached plan is valid only at exact version.
  uint64_t version() const { return version_; }

  // ---- Writer side (called under the owning tree's write discipline) ----

  // Assigns a dense slot for a new record (free-list reuse keeps the
  // universe compact across churn, which keeps bitmaps small).
  uint32_t AcquireSlot(const NameRecord* rec);
  void ReleaseSlot(uint32_t slot);

  // One grafted tree node: record `slot` grafts (attribute, token) under
  // `parent_fp`; `terminal` when the record attaches at this node. Returns
  // the node's value fingerprint (the parent_fp for its children).
  uint64_t AddTerm(uint64_t parent_fp, SymbolId attribute, SymbolId token, bool terminal,
                   uint32_t slot);

  // Exact inverse of AddTerm: `vfp`/`afp` are the fingerprints AddTerm
  // derived. Empty postings and zero counts are erased so key presence keeps
  // mirroring the pruned tree.
  void RemoveTerm(uint64_t vfp, uint64_t afp, bool terminal, uint32_t slot);

  // ---- Reader side ----

  // Derives the plan for `query` (ForQuery-compiled) against current state.
  void DerivePlan(const CompiledName& query, QueryPlan* out) const;

  // Intersects the plan's posting lists into ascending `out_slots`. The plan
  // must have kind kIndex and be current (same version). `word_scratch` backs
  // the all-bitmap kernel and the two-rarest-arrays kernel. Once both vectors
  // have grown to a workload's largest answer, a call allocates nothing
  // (plans of more than 64 terms excepted).
  void Evaluate(const QueryPlan& plan, std::vector<uint32_t>* out_slots,
                std::vector<uint64_t>* word_scratch) const;

  const NameRecord* RecordAt(uint32_t slot) const { return slots_[slot]; }
  size_t slot_capacity() const { return slots_.size(); }

  const PostingList* FindPosting(uint64_t vfp) const {
    auto it = sub_.find(vfp);
    return it == sub_.end() ? nullptr : &it->second;
  }

  // ---- Accounting / verification ----

  // Lookup-outcome counters, incremented by the owning tree's lookup path
  // (relaxed atomics: concurrent const lookups share them).
  void CountOutcome(QueryPlan::Kind kind, bool plan_cache_hit) const;

  PostingIndexStats Stats() const;
  size_t MemoryBytes() const;

  // Compares the index against expectations rebuilt from the owning tree:
  // exact key sets and exact posting membership. `expected_sub` values must
  // be sorted ascending and unique.
  Status VerifyAgainst(
      const std::unordered_map<uint64_t, std::vector<uint32_t>>& expected_sub,
      const std::unordered_map<uint64_t, uint32_t>& expected_end,
      const std::unordered_map<uint64_t, uint32_t>& expected_attr,
      size_t live_records) const;

 private:
  static uint64_t Chain(uint64_t parent_fp, SymbolId attribute, SymbolId token) {
    uint64_t h = parent_fp ^ ((static_cast<uint64_t>(attribute) << 32) |
                              (static_cast<uint64_t>(token) + 1));
    h *= UINT64_C(0x9e3779b97f4a7c15);
    h ^= h >> 32;
    h *= UINT64_C(0xd6e8feb86659fd93);
    return h ^ (h >> 29);
  }

  enum class LevelResult { kUniversal, kConstrained, kEmpty, kFallback };

  // One recursion level of plan derivation; mirrors NameTree::LookupLevel's
  // branch structure using index state only. Appends intersection terms to
  // `out->terms`; on kFallback, `out->kind` holds the fallback reason.
  LevelResult DeriveLevel(const CompiledName& query, uint32_t begin, uint32_t count,
                          uint64_t parent_fp, QueryPlan* out) const;

  void BumpVersion() { ++version_; }

  uint64_t id_ = 0;
  uint64_t version_ = 0;

  std::vector<const NameRecord*> slots_;  // slot -> record (null when free)
  std::vector<uint32_t> free_slots_;
  size_t live_slots_ = 0;

  std::unordered_map<uint64_t, PostingList> sub_;
  std::unordered_map<uint64_t, uint32_t> end_count_;
  std::unordered_map<uint64_t, uint32_t> attr_count_;

  uint64_t promotions_ = 0;
  uint64_t demotions_ = 0;

  // Read-side counters (see CountOutcome).
  mutable std::atomic<uint64_t> index_lookups_{0};
  mutable std::atomic<uint64_t> empty_lookups_{0};
  mutable std::atomic<uint64_t> universal_lookups_{0};
  mutable std::atomic<uint64_t> fallback_wildcard_{0};
  mutable std::atomic<uint64_t> fallback_range_{0};
  mutable std::atomic<uint64_t> fallback_union_{0};
  mutable std::atomic<uint64_t> plan_hits_{0};
  mutable std::atomic<uint64_t> plan_misses_{0};
};

}  // namespace ins

#endif  // INS_NAMETREE_POSTING_INDEX_H_
