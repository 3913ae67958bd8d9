#include "ins/nametree/sharded_name_tree.h"

#include <utility>

namespace ins {

void ShardedNameTree::AddSpace(const std::string& vspace) {
  spaces_.try_emplace(vspace, symbols_, journal_capacity_);
}

bool ShardedNameTree::RemoveSpace(const std::string& vspace) {
  return spaces_.erase(vspace) > 0;
}

bool ShardedNameTree::Routes(const std::string& vspace) const {
  return spaces_.count(vspace) > 0;
}

std::vector<std::string> ShardedNameTree::RoutedSpaces() const {
  std::vector<std::string> out;
  out.reserve(spaces_.size());
  for (const auto& [space, s] : spaces_) {
    out.push_back(space);
  }
  return out;
}

ShardedNameTree::Space* ShardedNameTree::SpaceOf(const std::string& vspace) {
  auto it = spaces_.find(vspace);
  return it == spaces_.end() ? nullptr : &it->second;
}

const ShardedNameTree::Space* ShardedNameTree::SpaceOf(const std::string& vspace) const {
  return const_cast<ShardedNameTree*>(this)->SpaceOf(vspace);
}

NameJournal* ShardedNameTree::journal(const std::string& vspace) {
  Space* s = SpaceOf(vspace);
  return s == nullptr ? nullptr : s->journal.get();
}

const NameJournal* ShardedNameTree::journal(const std::string& vspace) const {
  return const_cast<ShardedNameTree*>(this)->journal(vspace);
}

uint64_t ShardedNameTree::JournalHead(const std::string& vspace) const {
  const NameJournal* j = journal(vspace);
  return j == nullptr ? 0 : j->head_serial();
}

void ShardedNameTree::JournalUpsert(Space& s, const NameSpecifier& name,
                                    const NameRecord& record) {
  if (s.journal == nullptr) {
    return;
  }
  JournalEntry e;
  e.op = JournalOp::kUpsert;
  e.name_text = name.ToString();
  e.announcer = record.announcer;
  e.endpoint = record.endpoint;
  e.app_metric = record.app_metric;
  e.route_metric = record.route.overlay_metric;
  e.expires = record.expires;
  e.version = record.version;
  s.journal->Append(std::move(e));
}

void ShardedNameTree::JournalTombstone(Space& s, JournalOp op, const AnnouncerId& id) {
  if (s.journal == nullptr) {
    return;
  }
  JournalEntry e;
  e.op = op;
  e.announcer = id;
  s.journal->Append(std::move(e));
}

ShardedNameTree::UpsertResult ShardedNameTree::Upsert(const std::string& vspace,
                                                      const NameSpecifier& name,
                                                      const NameRecord& info) {
  UpsertResult r;
  Space* s = SpaceOf(vspace);
  if (s == nullptr) {
    r.routed = false;
    return r;
  }
  ++s->updates;
  const NameTree::UpsertOutcome out = s->tree.Upsert(name, info);
  r.kind = out.kind;
  // A same-version kRefreshed carries no payload: its callers never consume
  // it and the refresh path stays copy-free. A kRefreshed that ADVANCED the
  // version is the announcer's liveness heartbeat: it is detached so the
  // journal records it and digest serials move, which is how replicas past
  // the first hop keep starved copies leased (version-unchanged refreshes
  // never reach them otherwise — they are neither flooded nor journaled).
  if (out.record == nullptr || out.kind == NameTree::UpsertOutcome::kIgnored ||
      (out.kind == NameTree::UpsertOutcome::kRefreshed && !out.version_advanced)) {
    return r;
  }
  r.name = s->tree.ExtractName(out.record);
  r.record = out.record->Detached();
  JournalUpsert(*s, *r.name, *r.record);
  return r;
}

bool ShardedNameTree::Remove(const std::string& vspace, const AnnouncerId& id) {
  Space* s = SpaceOf(vspace);
  if (s == nullptr || s->tree.Find(id) == nullptr) {
    return false;
  }
  ++s->updates;
  s->tree.Remove(id);
  JournalTombstone(*s, JournalOp::kDelete, id);
  return true;
}

bool ShardedNameTree::RefreshExpiry(const std::string& vspace, const AnnouncerId& id,
                                    TimePoint expires) {
  Space* s = SpaceOf(vspace);
  if (s == nullptr || s->tree.Find(id) == nullptr) {
    return false;
  }
  ++s->updates;
  return s->tree.RefreshExpiry(id, expires);
}

size_t ShardedNameTree::ExpireBefore(
    TimePoint now, std::vector<std::pair<std::string, AnnouncerId>>* expired) {
  size_t removed = 0;
  std::vector<AnnouncerId> swept;
  for (auto& [space, s] : spaces_) {
    if (!s.tree.HasExpiryDueBefore(now)) {
      continue;
    }
    ++s.updates;
    swept.clear();
    s.tree.ExpireBefore(now, &swept);
    removed += swept.size();
    for (const AnnouncerId& id : swept) {
      JournalTombstone(s, JournalOp::kExpire, id);
      if (expired != nullptr) {
        expired->emplace_back(space, id);
      }
    }
  }
  return removed;
}

void ShardedNameTree::ForEachShardMatch(const std::string& vspace, const NameSpecifier& query,
                                        const ShardMatchFn& fn) const {
  const Space* s = SpaceOf(vspace);
  if (s == nullptr) {
    return;
  }
  ++s->lookups;
  fn(0, s->tree, s->tree.Lookup(query));
}

std::vector<NameRecord> ShardedNameTree::Lookup(const std::string& vspace,
                                                const NameSpecifier& query) const {
  std::vector<NameRecord> out;
  ForEachShardMatch(vspace, query,
                    [&out](size_t, const NameTree&, const std::vector<const NameRecord*>& found) {
                      out.reserve(found.size());
                      for (const NameRecord* rec : found) {
                        out.push_back(rec->Detached());
                      }
                    });
  return out;
}

std::vector<ShardedNameTree::NamedRecord> ShardedNameTree::LookupNamed(
    const std::string& vspace, const NameSpecifier& query) const {
  std::vector<NamedRecord> out;
  ForEachShardMatch(vspace, query,
                    [&out](size_t, const NameTree& tree,
                           const std::vector<const NameRecord*>& found) {
                      out.reserve(found.size());
                      for (const NameRecord* rec : found) {
                        out.push_back(NamedRecord{tree.ExtractName(rec), rec->Detached()});
                      }
                    });
  return out;
}

std::optional<NameSpecifier> ShardedNameTree::GetName(const std::string& vspace,
                                                      const AnnouncerId& id) const {
  const Space* s = SpaceOf(vspace);
  const NameRecord* rec = s == nullptr ? nullptr : s->tree.Find(id);
  if (rec == nullptr) {
    return std::nullopt;
  }
  return s->tree.ExtractName(rec);
}

std::optional<NameRecord> ShardedNameTree::Find(const std::string& vspace,
                                                const AnnouncerId& id) const {
  const Space* s = SpaceOf(vspace);
  const NameRecord* rec = s == nullptr ? nullptr : s->tree.Find(id);
  if (rec == nullptr) {
    return std::nullopt;
  }
  return rec->Detached();
}

size_t ShardedNameTree::RecordCount(const std::string& vspace) const {
  const Space* s = SpaceOf(vspace);
  return s == nullptr ? 0 : s->tree.record_count();
}

size_t ShardedNameTree::TotalRecordCount() const {
  size_t n = 0;
  for (const auto& [space, s] : spaces_) {
    n += s.tree.record_count();
  }
  return n;
}

std::vector<ShardedNameTree::ShardStats> ShardedNameTree::PerShardStats() const {
  std::vector<ShardStats> out;
  out.reserve(spaces_.size());
  for (const auto& [space, s] : spaces_) {
    const NameTree::Stats ts = s.tree.ComputeStats();
    out.push_back(ShardStats{space, ts.records, ts.bytes, s.lookups, s.updates});
  }
  return out;
}

NameTree::Stats ShardedNameTree::ComputeStats() const {
  NameTree::Stats total;
  for (const auto& [space, s] : spaces_) {
    const NameTree::Stats ts = s.tree.ComputeStats();
    total.attribute_nodes += ts.attribute_nodes;
    total.value_nodes += ts.value_nodes;
    total.records += ts.records;
    total.expiry_heap_entries += ts.expiry_heap_entries;
    total.bytes += ts.bytes;
    total.index_bytes += ts.index_bytes;
  }
  // The shared intern table is part of the store's footprint; count it
  // exactly once (per-tree stats skip it because it is shared).
  total.symbol_bytes = symbols_->MemoryBytes();
  total.bytes += total.symbol_bytes;
  return total;
}

PostingIndexStats ShardedNameTree::IndexStatsTotal() const {
  PostingIndexStats total;
  for (const auto& [space, s] : spaces_) {
    total += s.tree.index_stats();
  }
  return total;
}

Status ShardedNameTree::CheckInvariants() const {
  for (const auto& [space, s] : spaces_) {
    Status st = s.tree.CheckInvariants();
    if (!st.ok()) {
      return st;
    }
  }
  return Status::Ok();
}

NameTree* ShardedNameTree::Tree(const std::string& vspace) {
  Space* s = SpaceOf(vspace);
  return s == nullptr ? nullptr : &s->tree;
}

const NameTree* ShardedNameTree::Tree(const std::string& vspace) const {
  const Space* s = SpaceOf(vspace);
  return s == nullptr ? nullptr : &s->tree;
}

}  // namespace ins
