// The resolver's record store: one NameTree per routed virtual space.
//
// The paper gives each virtual space its own name-tree and scales by
// spreading spaces across resolvers (§2.5, Figure 9); this store is that
// layout. Each routed space holds one tree plus, when journaling is on, that
// space's change journal (journal.h). The protocol thread is the only
// mutator, so the store takes no locks. Every tree shares one append-only
// intern table, which ComputeStats counts once.
//
// The class keeps the name ShardedNameTree (each space's tree is a "shard"),
// and ForEachShardMatch, IndexStatsTotal, TotalRecordCount, ComputeStats and
// Find keep their signatures: the inr_hop benchmark calls them.

#ifndef INS_NAMETREE_SHARDED_NAME_TREE_H_
#define INS_NAMETREE_SHARDED_NAME_TREE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ins/common/clock.h"
#include "ins/common/status.h"
#include "ins/name/name_specifier.h"
#include "ins/nametree/journal.h"
#include "ins/nametree/name_tree.h"

namespace ins {

class ShardedNameTree {
 public:
  // `journal_capacity` is the ring capacity of the per-vspace change journal
  // (journal.h). 0 — the default — disables journaling entirely: write paths
  // skip capture and journal() returns nullptr. Enabled by the replication
  // subsystem.
  explicit ShardedNameTree(size_t journal_capacity = 0) : journal_capacity_(journal_capacity) {}

  ShardedNameTree(const ShardedNameTree&) = delete;
  ShardedNameTree& operator=(const ShardedNameTree&) = delete;

  // ---- Routed spaces ----

  // Registers a space (a no-op when already routed).
  void AddSpace(const std::string& vspace);
  bool RemoveSpace(const std::string& vspace);
  bool Routes(const std::string& vspace) const;
  std::vector<std::string> RoutedSpaces() const;

  // ---- Writes ----

  struct UpsertResult {
    NameTree::UpsertOutcome::Kind kind = NameTree::UpsertOutcome::kIgnored;
    // Detached copies of the stored record and its canonical name
    // (GET-NAME). Populated for kNew / kChanged / kRenamed — the outcomes
    // callers propagate — and for version-advancing refreshes; left empty
    // for same-version refreshes and kIgnored to keep the soft-state refresh
    // path cheap.
    std::optional<NameSpecifier> name;
    std::optional<NameRecord> record;
    bool routed = true;  // false: the name's space is not routed here
  };

  // Inserts, refreshes or renames `info.announcer` in the tree of `vspace`.
  // A version older than the stored one is ignored (kIgnored).
  UpsertResult Upsert(const std::string& vspace, const NameSpecifier& name,
                      const NameRecord& info);

  bool Remove(const std::string& vspace, const AnnouncerId& id);

  // Extends `id`'s expiry to max(current, expires).
  bool RefreshExpiry(const std::string& vspace, const AnnouncerId& id, TimePoint expires);

  // Sweeps every space; `expired` (optional) receives who was removed.
  size_t ExpireBefore(TimePoint now,
                      std::vector<std::pair<std::string, AnnouncerId>>* expired = nullptr);

  // ---- Change journal (journal_capacity > 0) ----

  // The change journal of a routed space: every kNew/kChanged/kRenamed
  // upsert, Remove, and expiry sweep appends one serial-stamped entry
  // (refreshes do not — see journal.h). nullptr when the space is unrouted
  // or journaling is off.
  NameJournal* journal(const std::string& vspace);
  const NameJournal* journal(const std::string& vspace) const;
  // Convenience: the journal's head serial, 0 when absent.
  uint64_t JournalHead(const std::string& vspace) const;

  // ---- Reads ----

  // LOOKUP-NAME in `vspace`: detached record copies, sorted by announcer.
  // Empty when the space is unrouted.
  std::vector<NameRecord> Lookup(const std::string& vspace,
                                 const NameSpecifier& query) const;

  struct NamedRecord {
    NameSpecifier name;  // GET-NAME of the record
    NameRecord record;
  };
  // Lookup plus GET-NAME per match, sorted by announcer.
  std::vector<NamedRecord> LookupNamed(const std::string& vspace,
                                       const NameSpecifier& query) const;

  // GET-NAME for a single announcer; nullopt when absent.
  std::optional<NameSpecifier> GetName(const std::string& vspace,
                                       const AnnouncerId& id) const;

  // Detached copy of the record for `id`; nullopt when absent.
  std::optional<NameRecord> Find(const std::string& vspace, const AnnouncerId& id) const;

  size_t RecordCount(const std::string& vspace) const;
  size_t TotalRecordCount() const;

  // LOOKUP-NAME without copies: runs `fn(0, tree, matches)` once on the
  // tree of `vspace`, matches sorted by announcer; never runs when the space
  // is unrouted.
  using ShardMatchFn = std::function<void(
      size_t shard_index, const NameTree& tree,
      const std::vector<const NameRecord*>& matches)>;
  void ForEachShardMatch(const std::string& vspace, const NameSpecifier& query,
                         const ShardMatchFn& fn) const;

  // ---- Accounting and invariants ----

  struct ShardStats {
    std::string vspace;
    size_t records = 0;
    size_t bytes = 0;        // tree bytes (the Fig-13 accounting)
    uint64_t lookups = 0;    // LOOKUP-NAME calls served by this space
    uint64_t updates = 0;    // writes applied to this space's tree
  };
  // One entry per routed space, in space order.
  std::vector<ShardStats> PerShardStats() const;
  // Aggregate over every tree, the shared intern table counted once.
  NameTree::Stats ComputeStats() const;
  // Posting-index counters summed across every tree.
  PostingIndexStats IndexStatsTotal() const;
  Status CheckInvariants() const;

  // The tree of a routed space; nullptr when unrouted.
  NameTree* Tree(const std::string& vspace);
  const NameTree* Tree(const std::string& vspace) const;

 private:
  struct Space {
    Space(std::shared_ptr<SymbolTable> symbols, size_t journal_capacity)
        : tree(std::move(symbols)),
          journal(journal_capacity > 0 ? std::make_unique<NameJournal>(journal_capacity)
                                       : nullptr) {}
    NameTree tree;
    std::unique_ptr<NameJournal> journal;
    mutable uint64_t lookups = 0;
    uint64_t updates = 0;
  };

  Space* SpaceOf(const std::string& vspace);
  const Space* SpaceOf(const std::string& vspace) const;

  // Journal capture: no-ops when the space has no journal.
  static void JournalUpsert(Space& s, const NameSpecifier& name, const NameRecord& record);
  static void JournalTombstone(Space& s, JournalOp op, const AnnouncerId& id);

  size_t journal_capacity_;
  // The intern table every space's tree shares.
  std::shared_ptr<SymbolTable> symbols_ = std::make_shared<SymbolTable>();
  std::map<std::string, Space> spaces_;
};

}  // namespace ins

#endif  // INS_NAMETREE_SHARDED_NAME_TREE_H_
