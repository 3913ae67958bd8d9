#include "ins/inr/vspace.h"

namespace ins {

VspaceManager::VspaceManager(Executor* executor, SendFn send, NodeAddress dsr,
                             MetricsRegistry* metrics, size_t journal_capacity)
    : executor_(executor),
      send_(std::move(send)),
      dsr_(dsr),
      metrics_(metrics),
      store_(journal_capacity) {}

void VspaceManager::AddSpace(const std::string& vspace) {
  if (store_.Routes(vspace)) {
    return;
  }
  store_.AddSpace(vspace);
  owner_cache_.erase(vspace);  // we are the owner now
  metrics_->SetGauge("vspace.routed", static_cast<int64_t>(store_.RoutedSpaces().size()));
  if (on_spaces_changed) {
    on_spaces_changed();
  }
}

bool VspaceManager::RemoveSpace(const std::string& vspace) {
  if (!store_.RemoveSpace(vspace)) {
    return false;
  }
  metrics_->SetGauge("vspace.routed", static_cast<int64_t>(store_.RoutedSpaces().size()));
  if (on_spaces_changed) {
    on_spaces_changed();
  }
  return true;
}

const std::string& VspaceManager::VspaceOf(const NameSpecifier& name) {
  static const std::string kDefaultSpace;
  const AvPair* root = FindPair(name.roots(), kVspaceAttribute);
  return root != nullptr && root->value.is_literal() ? root->value.literal() : kDefaultSpace;
}

void VspaceManager::EnableReplicaMode(Duration cache_ttl, size_t replica_k) {
  replica_mode_ = true;
  replica_cache_ttl_ = cache_ttl;
  replica_k_ = replica_k;
}

NodeAddress VspaceManager::PickLive(const OwnerEntry& entry) {
  for (const NodeAddress& replica : entry.replicas) {
    if (dead_replicas_.count(replica) == 0) {
      if (!entry.replicas.empty() && !(replica == entry.replicas.front())) {
        metrics_->Increment("availability.failovers");
      }
      return replica;
    }
  }
  return kInvalidAddress;
}

void VspaceManager::NoteReplicaDead(const NodeAddress& inr) {
  if (dead_replicas_.insert(inr).second) {
    metrics_->SetGauge("availability.dead_replicas",
                       static_cast<int64_t>(dead_replicas_.size()));
  }
}

void VspaceManager::NoteReplicaAlive(const NodeAddress& inr) {
  if (dead_replicas_.erase(inr) > 0) {
    metrics_->SetGauge("availability.dead_replicas",
                       static_cast<int64_t>(dead_replicas_.size()));
  }
}

std::vector<NodeAddress> VspaceManager::CachedReplicas(const std::string& vspace) const {
  auto it = owner_cache_.find(vspace);
  if (it == owner_cache_.end() || it->second.expires <= executor_->Now()) {
    return {};
  }
  return it->second.replicas;
}

void VspaceManager::ResolveOwner(const std::string& vspace, ResolveCallback cb) {
  auto cached = owner_cache_.find(vspace);
  if (cached != owner_cache_.end()) {
    if (cached->second.expires > executor_->Now()) {
      const NodeAddress live = PickLive(cached->second);
      if (live.IsValid()) {
        metrics_->Increment("vspace.owner_cache_hits");
        cb(live);
        return;
      }
      // Every cached member is believed dead: fall through and re-ask the
      // DSR, which by now has dead reports (or proofs of life) of its own.
    }
    owner_cache_.erase(cached);
  }
  metrics_->Increment("vspace.owner_cache_misses");
  bool in_flight = pending_callbacks_.count(vspace) > 0;
  pending_callbacks_[vspace].push_back(std::move(cb));
  if (in_flight) {
    return;  // coalesce with the outstanding DSR query
  }
  uint64_t id = next_request_id_++;
  pending_by_id_[id] = vspace;
  if (replica_mode_) {
    DsrReplicaSetRequest req;
    req.request_id = id;
    req.vspace = vspace;
    send_(dsr_, Envelope{MessageBody(std::move(req))});
  } else {
    DsrVspaceRequest req;
    req.request_id = id;
    req.vspace = vspace;
    send_(dsr_, Envelope{MessageBody(std::move(req))});
  }
}

void VspaceManager::FinishResolve(std::string vspace, uint64_t request_id,
                                  std::vector<NodeAddress> replicas) {
  pending_by_id_.erase(request_id);
  NodeAddress answer = kInvalidAddress;
  if (!replicas.empty()) {
    // The DSR answers the FULL join-ordered registrant list; the replica set
    // is its first k entries (suspects are already filtered out, so a dead
    // member's slot passes to the next-oldest live registrant).
    if (replica_mode_ && replica_k_ > 0 && replicas.size() > replica_k_) {
      replicas.resize(replica_k_);
    }
    OwnerEntry entry;
    entry.replicas = std::move(replicas);
    entry.expires =
        replica_mode_ ? executor_->Now() + replica_cache_ttl_ : TimePoint::max();
    // The DSR listing a member is a (suspect-filtered) sign of life.
    for (const NodeAddress& replica : entry.replicas) {
      NoteReplicaAlive(replica);
    }
    answer = PickLive(entry);
    owner_cache_[vspace] = std::move(entry);
  }
  auto cbit = pending_callbacks_.find(vspace);
  if (cbit == pending_callbacks_.end()) {
    return;
  }
  std::vector<ResolveCallback> cbs = std::move(cbit->second);
  pending_callbacks_.erase(cbit);
  for (ResolveCallback& cb : cbs) {
    cb(answer);
  }
}

void VspaceManager::HandleDsrVspaceResponse(const DsrVspaceResponse& resp) {
  auto idit = pending_by_id_.find(resp.request_id);
  if (idit == pending_by_id_.end()) {
    return;  // stale or duplicate response
  }
  std::vector<NodeAddress> replicas;
  if (resp.inr.IsValid()) {
    replicas.push_back(resp.inr);
  }
  FinishResolve(idit->second, resp.request_id, std::move(replicas));
}

void VspaceManager::HandleDsrReplicaSetResponse(const DsrReplicaSetResponse& resp) {
  auto idit = pending_by_id_.find(resp.request_id);
  if (idit == pending_by_id_.end()) {
    return;  // stale, duplicate, or a LoadBalancer maintenance response
  }
  FinishResolve(idit->second, resp.request_id, resp.replicas);
}

void VspaceManager::InvalidateOwner(const std::string& vspace) {
  owner_cache_.erase(vspace);
}

}  // namespace ins
