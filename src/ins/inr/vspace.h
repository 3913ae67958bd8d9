// Virtual-space management (paper §2.5).
//
// A virtual space is an application-specified set of names sharing common
// attributes; internally an INR stores each space it routes in a separate,
// self-contained name-tree. Applications name their space via the well-known
// `vspace` attribute. Traffic for a space this resolver does not route is
// forwarded to the resolver that does, found by querying the DSR and cached
// (the Figure-15 "remote destination, different virtual space" path).

#ifndef INS_INR_VSPACE_H_
#define INS_INR_VSPACE_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "ins/common/executor.h"
#include "ins/common/metrics.h"
#include "ins/nametree/name_tree.h"
#include "ins/nametree/sharded_name_tree.h"
#include "ins/overlay/ping.h"

namespace ins {

// The well-known attribute naming a specifier's virtual space.
inline constexpr char kVspaceAttribute[] = "vspace";

class VspaceManager {
 public:
  // cb receives the owning INR's address, or an invalid address if no
  // resolver routes the space. May fire synchronously on a cache hit.
  using ResolveCallback = std::function<void(const NodeAddress& owner)>;

  VspaceManager(Executor* executor, SendFn send, NodeAddress dsr, MetricsRegistry* metrics,
                size_t journal_capacity = 0);

  // Spaces this resolver routes. Adding an existing space is a no-op.
  void AddSpace(const std::string& vspace);
  bool RemoveSpace(const std::string& vspace);
  bool Routes(const std::string& vspace) const { return store_.Routes(vspace); }
  std::vector<std::string> RoutedSpaces() const { return store_.RoutedSpaces(); }

  // The record store: one name-tree per routed space. All record
  // reads/writes on the resolver path go through this.
  ShardedNameTree& store() { return store_; }
  const ShardedNameTree& store() const { return store_; }

  // The name-tree of a routed space; nullptr when not routed.
  NameTree* Tree(const std::string& vspace) { return store_.Tree(vspace); }
  const NameTree* Tree(const std::string& vspace) const { return store_.Tree(vspace); }

  // The root [vspace=...] value of `name` (not a copy); "" when absent (the default space).
  static const std::string& VspaceOf(const NameSpecifier& name);

  // Resolves which INR routes `vspace`, caching the answer. Requests to the
  // DSR are coalesced per space.
  void ResolveOwner(const std::string& vspace, ResolveCallback cb);
  void HandleDsrVspaceResponse(const DsrVspaceResponse& resp);
  void HandleDsrReplicaSetResponse(const DsrReplicaSetResponse& resp);
  // Drops a cached owner (e.g. after a forward to it fails).
  void InvalidateOwner(const std::string& vspace);

  // Replica mode: ResolveOwner queries the DSR for the whole replica set
  // instead of the single owner, caches its first `replica_k` members (the
  // DSR answers every registrant in join order — only the first k ARE the
  // set) for `cache_ttl` (instead of forever), and answers with the first
  // member not currently believed dead. Off (the seed single-owner path,
  // byte-identical) unless enabled.
  void EnableReplicaMode(Duration cache_ttl, size_t replica_k);
  bool replica_mode() const { return replica_mode_; }

  // Per-address liveness shared across vspaces: NoteReplicaDead steers every
  // cached set away from `inr` immediately (metric availability.failovers
  // counts the steers); NoteReplicaAlive (digest heard, neighbor back up, or
  // a fresh DSR answer listing it) makes it eligible again.
  void NoteReplicaDead(const NodeAddress& inr);
  void NoteReplicaAlive(const NodeAddress& inr);
  bool IsDeadReplica(const NodeAddress& inr) const {
    return dead_replicas_.count(inr) > 0;
  }

  // The cached live replica set for `vspace` (empty when uncached/expired).
  std::vector<NodeAddress> CachedReplicas(const std::string& vspace) const;

  // Fired when AddSpace creates a new space, so the owner can refresh its
  // DSR registration.
  std::function<void()> on_spaces_changed;

  size_t owner_cache_size() const { return owner_cache_.size(); }

 private:
  struct OwnerEntry {
    std::vector<NodeAddress> replicas;  // join order; front = primary
    TimePoint expires = TimePoint::max();
  };

  // First cached replica not in dead_replicas_ (counting a non-front pick as
  // a failover); invalid when every member is believed dead.
  NodeAddress PickLive(const OwnerEntry& entry);
  // Takes `vspace` by value: callers pass the pending_by_id_ entry this
  // function erases.
  void FinishResolve(std::string vspace, uint64_t request_id,
                     std::vector<NodeAddress> replicas);

  Executor* executor_;
  SendFn send_;
  NodeAddress dsr_;
  MetricsRegistry* metrics_;

  ShardedNameTree store_;
  std::unordered_map<std::string, OwnerEntry> owner_cache_;
  uint64_t next_request_id_ = 1;
  std::unordered_map<uint64_t, std::string> pending_by_id_;
  std::map<std::string, std::vector<ResolveCallback>> pending_callbacks_;

  bool replica_mode_ = false;
  Duration replica_cache_ttl_ = Seconds(5);
  size_t replica_k_ = 0;
  std::set<NodeAddress> dead_replicas_;
};

}  // namespace ins

#endif  // INS_INR_VSPACE_H_
