#include "ins/nametree/posting_index.h"

#include <algorithm>
#include <cassert>

namespace ins {

// ---------------------------------------------------------------------------
// PostingList

bool PostingList::Add(uint32_t slot, size_t capacity) {
  if (is_bitmap_) {
    const size_t w = slot / 64;
    if (w >= words_.size()) {
      words_.resize(w + 1, 0);
    }
    assert((words_[w] & (UINT64_C(1) << (slot % 64))) == 0);
    words_[w] |= UINT64_C(1) << (slot % 64);
    ++count_;
    return false;
  }
  if (sorted_.empty() || slot > sorted_.back()) {
    // Fresh slots are allocated in increasing order, so bulk population is
    // O(1) amortized per posting entry.
    sorted_.push_back(slot);
  } else {
    auto it = std::lower_bound(sorted_.begin(), sorted_.end(), slot);
    assert(it == sorted_.end() || *it != slot);
    sorted_.insert(it, slot);
  }
  ++count_;
  if (count_ >= kPromoteMinCount &&
      static_cast<size_t>(count_) * kPromoteDensity >= capacity) {
    Promote(capacity);
    return true;
  }
  return false;
}

bool PostingList::Remove(uint32_t slot, size_t capacity) {
  assert(count_ > 0);
  if (is_bitmap_) {
    const size_t w = slot / 64;
    assert(w < words_.size() && (words_[w] & (UINT64_C(1) << (slot % 64))) != 0);
    words_[w] &= ~(UINT64_C(1) << (slot % 64));
    --count_;
    if (count_ < kPromoteMinCount / 2 ||
        static_cast<size_t>(count_) * kDemoteDensity < capacity) {
      Demote();
      return true;
    }
    return false;
  }
  auto it = std::lower_bound(sorted_.begin(), sorted_.end(), slot);
  assert(it != sorted_.end() && *it == slot);
  sorted_.erase(it);
  --count_;
  return false;
}

bool PostingList::Contains(uint32_t slot) const {
  if (is_bitmap_) {
    const size_t w = slot / 64;
    return w < words_.size() && (words_[w] & (UINT64_C(1) << (slot % 64))) != 0;
  }
  return std::binary_search(sorted_.begin(), sorted_.end(), slot);
}

void PostingList::Promote(size_t capacity) {
  words_.assign((std::max(capacity, size_t{1}) + 63) / 64, 0);
  for (uint32_t s : sorted_) {
    const size_t w = s / 64;
    if (w >= words_.size()) {
      words_.resize(w + 1, 0);
    }
    words_[w] |= UINT64_C(1) << (s % 64);
  }
  std::vector<uint32_t>().swap(sorted_);
  is_bitmap_ = true;
}

void PostingList::Demote() {
  sorted_.clear();
  sorted_.reserve(count_);
  ForEachAscending([this](uint32_t s) { sorted_.push_back(s); });
  std::vector<uint64_t>().swap(words_);
  is_bitmap_ = false;
}

Status PostingList::CheckInvariants() const {
  if (is_bitmap_) {
    if (!sorted_.empty()) {
      return InternalError("bitmap posting retains a sorted array");
    }
    uint64_t bits = 0;
    for (uint64_t w : words_) {
      bits += static_cast<uint64_t>(__builtin_popcountll(w));
    }
    if (bits != count_) {
      return InternalError("bitmap posting count drifted from popcount");
    }
    return Status::Ok();
  }
  if (!words_.empty()) {
    return InternalError("sorted posting retains bitmap words");
  }
  if (sorted_.size() != count_) {
    return InternalError("sorted posting count drifted from array size");
  }
  if (!std::is_sorted(sorted_.begin(), sorted_.end()) ||
      std::adjacent_find(sorted_.begin(), sorted_.end()) != sorted_.end()) {
    return InternalError("sorted posting not strictly ascending");
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// PostingIndexStats

PostingIndexStats& PostingIndexStats::operator+=(const PostingIndexStats& o) {
  index_lookups += o.index_lookups;
  empty_lookups += o.empty_lookups;
  universal_lookups += o.universal_lookups;
  fallback_wildcard += o.fallback_wildcard;
  fallback_range += o.fallback_range;
  fallback_union += o.fallback_union;
  plan_hits += o.plan_hits;
  plan_misses += o.plan_misses;
  promotions += o.promotions;
  demotions += o.demotions;
  posting_keys += o.posting_keys;
  bytes += o.bytes;
  return *this;
}

// ---------------------------------------------------------------------------
// PostingIndex: writer side

PostingIndex::PostingIndex() {
  static std::atomic<uint64_t> next_id{1};
  id_ = next_id.fetch_add(1, std::memory_order_relaxed);
}

uint32_t PostingIndex::AcquireSlot(const NameRecord* rec) {
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.push_back(nullptr);
  }
  slots_[slot] = rec;
  ++live_slots_;
  BumpVersion();
  return slot;
}

void PostingIndex::ReleaseSlot(uint32_t slot) {
  assert(slot < slots_.size() && slots_[slot] != nullptr);
  slots_[slot] = nullptr;
  free_slots_.push_back(slot);
  --live_slots_;
  BumpVersion();
}

uint64_t PostingIndex::AddTerm(uint64_t parent_fp, SymbolId attribute, SymbolId token,
                               bool terminal, uint32_t slot) {
  ++attr_count_[AttrFp(parent_fp, attribute)];
  const uint64_t vfp = ValueFp(parent_fp, attribute, token);
  if (sub_[vfp].Add(slot, slots_.size())) {
    ++promotions_;
  }
  if (terminal) {
    ++end_count_[vfp];
  }
  BumpVersion();
  return vfp;
}

void PostingIndex::RemoveTerm(uint64_t vfp, uint64_t afp, bool terminal, uint32_t slot) {
  auto sub_it = sub_.find(vfp);
  assert(sub_it != sub_.end());
  if (sub_it->second.Remove(slot, slots_.size())) {
    ++demotions_;
  }
  if (sub_it->second.count() == 0) {
    // Key presence mirrors the pruned tree: an empty posting would make plan
    // derivation disagree with LOOKUP-NAME's "value advertised nowhere".
    sub_.erase(sub_it);
  }
  if (terminal) {
    auto end_it = end_count_.find(vfp);
    assert(end_it != end_count_.end() && end_it->second > 0);
    if (--end_it->second == 0) {
      end_count_.erase(end_it);
    }
  }
  auto attr_it = attr_count_.find(afp);
  assert(attr_it != attr_count_.end() && attr_it->second > 0);
  if (--attr_it->second == 0) {
    attr_count_.erase(attr_it);
  }
  BumpVersion();
}

// ---------------------------------------------------------------------------
// Plan derivation
//
// Mirrors NameTree::LookupLevel conjunct by conjunct using index state only.
// The structural facts it branches on are exact mirrors of the tree:
//   attr_count_ holds afp      <=> the attribute node exists (Ta != null)
//   sub_ holds vfp             <=> the value node exists
//   sub count == end count     <=> the value node has no attribute children
//                                  (every record under it attaches there),
//                                  in which case End == Sub.

PostingIndex::LevelResult PostingIndex::DeriveLevel(const CompiledName& query,
                                                    uint32_t begin, uint32_t count,
                                                    uint64_t parent_fp,
                                                    QueryPlan* out) const {
  const std::vector<CompiledAvNode>& nodes = query.nodes();
  bool constrained = false;
  bool fallback = false;
  for (uint32_t qi = begin; qi < begin + count; ++qi) {
    const CompiledAvNode& n = nodes[qi];
    if (n.attribute == kInvalidSymbol ||
        attr_count_.find(AttrFp(parent_fp, n.attribute)) == attr_count_.end()) {
      continue;  // `if Ta = null then continue`: conjunct is unconstraining
    }
    if (n.kind != Value::Kind::kLiteral) {
      // Wildcard / range levels stay on the tree path. Keep scanning: a
      // later empty literal still proves the whole level empty, in which
      // case the tree walk is unnecessary.
      if (!fallback) {
        out->kind = n.kind == Value::Kind::kWildcard ? QueryPlan::Kind::kFallbackWildcard
                                                     : QueryPlan::Kind::kFallbackRange;
        fallback = true;
      }
      continue;
    }
    const uint64_t vfp = ValueFp(parent_fp, n.attribute, n.token);
    auto sub_it = n.token == kInvalidSymbol ? sub_.end() : sub_.find(vfp);
    if (sub_it == sub_.end()) {
      // Attribute present but this value advertised nowhere under it: the
      // level — and with it the conjunct's whole subtree product — is empty.
      return LevelResult::kEmpty;
    }
    if (n.child_count == 0) {
      out->terms.push_back(vfp);  // query chain ends: Sub(p')
      constrained = true;
      continue;
    }
    auto end_it = end_count_.find(vfp);
    const uint32_t end = end_it == end_count_.end() ? 0 : end_it->second;
    if (sub_it->second.count() == end) {
      out->terms.push_back(vfp);  // tree chain ends: End(p') == Sub(p')
      constrained = true;
      continue;
    }
    if (end != 0) {
      // Union-at-return: conjunct value is Recurse(C) ∪ End(p'), and End is
      // not materialized as a posting. Tree walk.
      if (!fallback) {
        out->kind = QueryPlan::Kind::kFallbackUnion;
        fallback = true;
      }
      continue;
    }
    // No records attached at this interior node: the conjunct value is
    // exactly the recursive level's value, so its terms flatten into this
    // intersection (conjunct-level intersection is associative).
    switch (DeriveLevel(query, n.child_begin, n.child_count, vfp, out)) {
      case LevelResult::kEmpty:
        return LevelResult::kEmpty;  // ∅ ∪ End(p') = ∅ when end == 0
      case LevelResult::kConstrained:
        constrained = true;
        break;
      case LevelResult::kFallback:
        fallback = true;  // reason already recorded in out->kind
        break;
      case LevelResult::kUniversal:
        break;  // no constraint below: S ∩ (universal ∪ ∅) = S
    }
  }
  if (fallback) {
    return LevelResult::kFallback;
  }
  return constrained ? LevelResult::kConstrained : LevelResult::kUniversal;
}

void PostingIndex::DerivePlan(const CompiledName& query, QueryPlan* out) const {
  out->terms.clear();
  out->kind = QueryPlan::Kind::kUniversal;
  switch (DeriveLevel(query, 0, query.root_count(), kRootFp, out)) {
    case LevelResult::kUniversal:
      out->kind = QueryPlan::Kind::kUniversal;
      out->terms.clear();
      break;
    case LevelResult::kEmpty:
      out->kind = QueryPlan::Kind::kEmpty;
      out->terms.clear();
      break;
    case LevelResult::kConstrained:
      out->kind = QueryPlan::Kind::kIndex;
      break;
    case LevelResult::kFallback:
      out->terms.clear();  // kind holds the fallback reason
      break;
  }
}

// ---------------------------------------------------------------------------
// Evaluation

namespace {

// Galloping membership probe over a sorted posting, resuming from *pos.
// Driver slots arrive ascending, so each cursor sweeps its list once per
// evaluation regardless of how many probes land in it.
inline bool SortedAdvanceContains(const std::vector<uint32_t>& v, size_t* pos,
                                  uint32_t slot) {
  const size_t n = v.size();
  size_t i = *pos;
  if (i >= n) {
    return false;
  }
  if (v[i] < slot) {
    size_t step = 1;
    size_t j = i + 1;
    while (j < n && v[j] < slot) {
      i = j;
      j += step;
      step <<= 1;
    }
    const size_t hi = std::min(j, n - 1) + 1;  // v[hi-1] >= slot or hi == n
    i = static_cast<size_t>(
        std::lower_bound(v.begin() + static_cast<ptrdiff_t>(i) + 1,
                         v.begin() + static_cast<ptrdiff_t>(hi), slot) -
        v.begin());
    *pos = i;
    if (i >= n) {
      return false;
    }
  }
  return v[i] == slot;
}

// Two sorted lists whose lengths differ by more than this factor are
// intersected by galloping the longer one from the shorter one's members.
constexpr size_t kGallopRatio = 16;

// The marking pass below zeroes one scratch word per 64 slots of the shorter
// list's span. Zeroing runs at several words per cycle and a gallop probe
// costs tens of cycles, so past this many words per member galloping wins.
constexpr size_t kMaxMarkWordsPerMember = 64;

// Writes a ∩ b (both ascending, non-empty) into the empty `out`; `words` is
// scratch.
void IntersectSorted(const std::vector<uint32_t>& a, const std::vector<uint32_t>& b,
                     std::vector<uint32_t>* out, std::vector<uint64_t>* words) {
  const std::vector<uint32_t>& small = a.size() <= b.size() ? a : b;
  const std::vector<uint32_t>& large = a.size() <= b.size() ? b : a;
  assert(!small.empty() && "empty postings are erased");
  const uint32_t first = small.front();
  const uint32_t last = small.back();
  const size_t base = first / 64;
  const size_t span_words = last / 64 - base + 1;
  if (large.size() / kGallopRatio > small.size() ||
      span_words / kMaxMarkWordsPerMember > small.size()) {
    size_t pos = 0;
    for (uint32_t s : small) {
      if (SortedAdvanceContains(large, &pos, s)) {
        out->push_back(s);
      }
    }
    return;
  }
  // Comparable lengths: mark the shorter list in a bitmap over its span,
  // then bit-test the longer one's members inside that span. A two-pointer
  // merge does the same linear work, but each of its steps loads through a
  // pointer the previous comparison moved, so it runs at load latency; these
  // bit tests do not depend on one another.
  words->assign(span_words, 0);
  uint64_t* w = words->data();
  for (uint32_t s : small) {
    w[s / 64 - base] |= UINT64_C(1) << (s % 64);
  }
  for (auto it = std::lower_bound(large.begin(), large.end(), first);
       it != large.end() && *it <= last; ++it) {
    if ((w[*it / 64 - base] >> (*it % 64)) & 1) {
      out->push_back(*it);
    }
  }
}

// Writes a ∩ b into the empty `out`, ascending, whatever the two lists'
// representations; `words` is scratch.
void IntersectPair(const PostingList& a, const PostingList& b, std::vector<uint32_t>* out,
                   std::vector<uint64_t>* words) {
  if (!a.is_bitmap() && !b.is_bitmap()) {
    IntersectSorted(a.sorted(), b.sorted(), out, words);
    return;
  }
  // At least one bitmap: stream the other list (the array, if there is one)
  // through O(1) bit tests.
  const PostingList& bitmap = b.is_bitmap() ? b : a;
  const PostingList& streamed = b.is_bitmap() ? a : b;
  streamed.ForEachAscending([&](uint32_t s) {
    if (bitmap.Contains(s)) {
      out->push_back(s);
    }
  });
}

// Keeps the members of `slots` (ascending) that `list` also holds.
void FilterInPlace(const PostingList& list, std::vector<uint32_t>* slots) {
  size_t k = 0;
  if (list.is_bitmap()) {
    for (uint32_t s : *slots) {
      (*slots)[k] = s;
      k += static_cast<size_t>(list.Contains(s));
    }
  } else {
    size_t pos = 0;
    for (uint32_t s : *slots) {
      (*slots)[k] = s;
      k += static_cast<size_t>(SortedAdvanceContains(list.sorted(), &pos, s));
    }
  }
  slots->resize(k);
}

}  // namespace

void PostingIndex::Evaluate(const QueryPlan& plan, std::vector<uint32_t>* out_slots,
                            std::vector<uint64_t>* word_scratch) const {
  assert(plan.kind == QueryPlan::Kind::kIndex && !plan.terms.empty());
  out_slots->clear();

  constexpr size_t kMaxInlineTerms = 64;
  const PostingList* inline_lists[kMaxInlineTerms];
  std::vector<const PostingList*> heap_lists;
  const PostingList** lists = inline_lists;
  if (plan.terms.size() > kMaxInlineTerms) {
    heap_lists.resize(plan.terms.size());
    lists = heap_lists.data();
  }

  size_t rarest = 0;
  bool all_bitmap = true;
  for (size_t i = 0; i < plan.terms.size(); ++i) {
    auto it = sub_.find(plan.terms[i]);
    assert(it != sub_.end() && "plan evaluated against the index version it was derived from");
    lists[i] = &it->second;
    all_bitmap = all_bitmap && lists[i]->is_bitmap();
    if (lists[i]->count() < lists[rarest]->count()) {
      rarest = i;
    }
  }
  const size_t nterms = plan.terms.size();

  if (nterms == 1) {
    out_slots->reserve(lists[0]->count());
    lists[0]->ForEachAscending([&](uint32_t s) { out_slots->push_back(s); });
    return;
  }

  if (all_bitmap) {
    // Word-parallel AND. Words past any operand's tail are zero in the
    // result, so the kernel runs over the shortest operand.
    size_t nwords = lists[0]->words().size();
    for (size_t i = 1; i < nterms; ++i) {
      nwords = std::min(nwords, lists[i]->words().size());
    }
    word_scratch->assign(lists[rarest]->words().begin(),
                         lists[rarest]->words().begin() + static_cast<ptrdiff_t>(nwords));
    for (size_t i = 0; i < nterms; ++i) {
      if (i == rarest) {
        continue;
      }
      const std::vector<uint64_t>& w = lists[i]->words();
      for (size_t k = 0; k < nwords; ++k) {
        (*word_scratch)[k] &= w[k];
      }
    }
    for (size_t w = 0; w < nwords; ++w) {
      uint64_t bits = (*word_scratch)[w];
      while (bits != 0) {
        const int b = __builtin_ctzll(bits);
        out_slots->push_back(static_cast<uint32_t>(w * 64 + static_cast<size_t>(b)));
        bits &= bits - 1;
      }
    }
    return;
  }

  // Rarest-first: intersect the two shortest lists, then filter the few
  // survivors through the rest in ascending length, stopping once none is
  // left. A lookup pays for two lists and a few probes per survivor, not for
  // every slot of every list in the plan.
  std::sort(lists, lists + nterms, [](const PostingList* a, const PostingList* b) {
    return a->count() < b->count();
  });
  out_slots->reserve(lists[0]->count());
  IntersectPair(*lists[0], *lists[1], out_slots, word_scratch);
  for (size_t i = 2; i < nterms && !out_slots->empty(); ++i) {
    FilterInPlace(*lists[i], out_slots);
  }
}

// ---------------------------------------------------------------------------
// Accounting / verification

void PostingIndex::CountOutcome(QueryPlan::Kind kind, bool plan_cache_hit) const {
  (plan_cache_hit ? plan_hits_ : plan_misses_).fetch_add(1, std::memory_order_relaxed);
  switch (kind) {
    case QueryPlan::Kind::kIndex:
      index_lookups_.fetch_add(1, std::memory_order_relaxed);
      break;
    case QueryPlan::Kind::kEmpty:
      empty_lookups_.fetch_add(1, std::memory_order_relaxed);
      break;
    case QueryPlan::Kind::kUniversal:
      universal_lookups_.fetch_add(1, std::memory_order_relaxed);
      break;
    case QueryPlan::Kind::kFallbackWildcard:
      fallback_wildcard_.fetch_add(1, std::memory_order_relaxed);
      break;
    case QueryPlan::Kind::kFallbackRange:
      fallback_range_.fetch_add(1, std::memory_order_relaxed);
      break;
    case QueryPlan::Kind::kFallbackUnion:
      fallback_union_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

PostingIndexStats PostingIndex::Stats() const {
  PostingIndexStats st;
  st.index_lookups = index_lookups_.load(std::memory_order_relaxed);
  st.empty_lookups = empty_lookups_.load(std::memory_order_relaxed);
  st.universal_lookups = universal_lookups_.load(std::memory_order_relaxed);
  st.fallback_wildcard = fallback_wildcard_.load(std::memory_order_relaxed);
  st.fallback_range = fallback_range_.load(std::memory_order_relaxed);
  st.fallback_union = fallback_union_.load(std::memory_order_relaxed);
  st.plan_hits = plan_hits_.load(std::memory_order_relaxed);
  st.plan_misses = plan_misses_.load(std::memory_order_relaxed);
  st.promotions = promotions_;
  st.demotions = demotions_;
  st.posting_keys = sub_.size();
  st.bytes = MemoryBytes();
  return st;
}

size_t PostingIndex::MemoryBytes() const {
  // Hash nodes: key + value + the libstdc++ node header; buckets: one
  // pointer each. The same estimate style ComputeStats uses for std::map.
  constexpr size_t kHashNode = 16;
  size_t bytes = slots_.capacity() * sizeof(const NameRecord*) +
                 free_slots_.capacity() * sizeof(uint32_t);
  bytes += sub_.bucket_count() * sizeof(void*);
  for (const auto& [fp, list] : sub_) {
    bytes += sizeof(fp) + sizeof(PostingList) + kHashNode + list.MemoryBytes();
  }
  bytes += end_count_.bucket_count() * sizeof(void*) +
           end_count_.size() * (sizeof(uint64_t) + sizeof(uint32_t) + kHashNode);
  bytes += attr_count_.bucket_count() * sizeof(void*) +
           attr_count_.size() * (sizeof(uint64_t) + sizeof(uint32_t) + kHashNode);
  return bytes;
}

Status PostingIndex::VerifyAgainst(
    const std::unordered_map<uint64_t, std::vector<uint32_t>>& expected_sub,
    const std::unordered_map<uint64_t, uint32_t>& expected_end,
    const std::unordered_map<uint64_t, uint32_t>& expected_attr,
    size_t live_records) const {
  if (live_slots_ != live_records) {
    return InternalError("posting index live-slot count drifted from record count");
  }
  size_t occupied = 0;
  for (const NameRecord* rec : slots_) {
    occupied += rec != nullptr ? 1 : 0;
  }
  if (occupied != live_records || occupied + free_slots_.size() != slots_.size()) {
    return InternalError("posting index slot allocator inconsistent");
  }

  if (sub_.size() != expected_sub.size()) {
    return InternalError("posting index sub key count mismatch: index " +
                         std::to_string(sub_.size()) + ", tree " +
                         std::to_string(expected_sub.size()));
  }
  std::vector<uint32_t> got;
  for (const auto& [fp, want] : expected_sub) {
    auto it = sub_.find(fp);
    if (it == sub_.end()) {
      return InternalError("posting missing for a live value path");
    }
    INS_RETURN_IF_ERROR(it->second.CheckInvariants());
    got.clear();
    it->second.ForEachAscending([&](uint32_t s) { got.push_back(s); });
    if (got != want) {
      return InternalError("posting membership diverged from the tree");
    }
  }

  if (end_count_.size() != expected_end.size()) {
    return InternalError("posting index end-count key count mismatch");
  }
  for (const auto& [fp, want] : expected_end) {
    auto it = end_count_.find(fp);
    if (it == end_count_.end() || it->second != want) {
      return InternalError("posting index end count diverged from the tree");
    }
  }

  if (attr_count_.size() != expected_attr.size()) {
    return InternalError("posting index attr-count key count mismatch");
  }
  for (const auto& [fp, want] : expected_attr) {
    auto it = attr_count_.find(fp);
    if (it == attr_count_.end() || it->second != want) {
      return InternalError("posting index attr count diverged from the tree");
    }
  }
  return Status::Ok();
}

}  // namespace ins
