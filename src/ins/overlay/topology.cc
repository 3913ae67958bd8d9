#include "ins/overlay/topology.h"

#include <limits>
#include <memory>

#include "ins/common/logging.h"

namespace ins {

namespace {
constexpr Duration kPingTimeout = Milliseconds(500);
constexpr int kMissedKeepalivesForFailure = 3;
// DSR refreshes are shaved by up to this fraction so re-registrations from
// many resolvers (e.g. after a DSR restart) do not arrive in lockstep.
constexpr double kRegisterJitter = 0.25;
// How often a root (joined, no parent) re-checks the DSR for an
// earlier-joined resolver to merge under (partition split healing).
constexpr Duration kRootWatchInterval = Seconds(20);

// Per-node deterministic seed: same cluster seed + same address = same
// jitter sequence, so simulated runs stay bit-reproducible.
uint64_t JitterSeed(uint64_t salt, const NodeAddress& self) {
  return salt ^ ((static_cast<uint64_t>(self.ip) << 16) | self.port) ^
         0x746f706f6c6f6779ull;  // "topology"
}
}  // namespace

TopologyManager::TopologyManager(Executor* executor, PingAgent* ping_agent, SendFn send,
                                 NodeAddress self, TopologyConfig config,
                                 MetricsRegistry* metrics)
    : executor_(executor),
      ping_agent_(ping_agent),
      send_(std::move(send)),
      self_(self),
      config_(config),
      metrics_(metrics),
      rng_(JitterSeed(config.rng_salt, self)),
      join_backoff_(config.join_backoff, &rng_) {}

TopologyManager::~TopologyManager() {
  executor_->Cancel(register_task_);
  executor_->Cancel(keepalive_task_);
  executor_->Cancel(join_retry_task_);
}

void TopologyManager::Start(std::vector<std::string> vspaces) {
  vspaces_ = std::move(vspaces);
  started_ = true;
  join_backoff_.Reset();
  RegisterWithDsr();
  RequestActiveList();
  keepalive_task_ =
      executor_->ScheduleAfter(config_.keepalive_interval, [this] { KeepaliveTick(); });
  ScheduleWatchdog(join_backoff_.Next());
}

void TopologyManager::Stop() {
  if (!started_) {
    return;
  }
  started_ = false;
  joined_ = false;
  self_join_order_ = 0;
  order_lapsed_ = false;
  requested_parent_ = kInvalidAddress;
  executor_->Cancel(register_task_);
  executor_->Cancel(keepalive_task_);
  executor_->Cancel(join_retry_task_);
  register_task_ = keepalive_task_ = join_retry_task_ = kInvalidTaskId;
  std::vector<NodeAddress> peers = NeighborAddresses();
  for (const NodeAddress& p : peers) {
    RemoveNeighbor(p, /*notify_peer=*/true);
  }
}

void TopologyManager::CrashStop() {
  started_ = false;
  joined_ = false;
  self_join_order_ = 0;
  order_lapsed_ = false;
  requested_parent_ = kInvalidAddress;
  executor_->Cancel(register_task_);
  executor_->Cancel(keepalive_task_);
  executor_->Cancel(join_retry_task_);
  register_task_ = keepalive_task_ = join_retry_task_ = kInvalidTaskId;
  neighbors_.clear();
}

void TopologyManager::SetVspaces(std::vector<std::string> vspaces) {
  vspaces_ = std::move(vspaces);
  if (started_) {
    RegisterWithDsr();  // push the new set immediately
  }
}

void TopologyManager::RegisterWithDsr() {
  DsrRegister reg;
  reg.inr = self_;
  reg.active = true;
  reg.vspaces = vspaces_;
  reg.lifetime_s = config_.dsr_lifetime_s;
  send_(config_.dsr, Envelope{MessageBody(reg)});

  executor_->Cancel(register_task_);
  // Jittered refresh (never above the nominal interval, so the soft-state
  // lifetime still covers it): decorrelates re-registration bursts after a
  // partition heal or a DSR restart.
  register_task_ = executor_->ScheduleAfter(
      ApplyJitter(config_.dsr_refresh_interval, kRegisterJitter, rng_),
      [this] { RegisterWithDsr(); });
}

void TopologyManager::RequestActiveList() {
  join_request_id_ = next_request_id_++;
  DsrListRequest req;
  req.request_id = join_request_id_;
  send_(config_.dsr, Envelope{MessageBody(req)});
}

void TopologyManager::NoteSelfOrder(const DsrListResponse& resp) {
  if (resp.join_orders.size() != resp.active_inrs.size()) {
    return;  // malformed; position information alone is not trustworthy
  }
  for (size_t i = 0; i < resp.active_inrs.size(); ++i) {
    if (resp.active_inrs[i] != self_) {
      continue;
    }
    uint64_t order = resp.join_orders[i];
    if (self_join_order_ != 0 && order != self_join_order_) {
      // Our registration expired (partition, DSR restart) and was re-created
      // under a fresh order: edges built on the old order are now suspect.
      order_lapsed_ = true;
      metrics_->Increment("topology.order_lapses");
    }
    self_join_order_ = order;
    return;
  }
}

void TopologyManager::NoteNeighborAlive(const NodeAddress& src) {
  auto it = neighbors_.find(src);
  if (it != neighbors_.end()) {
    it->second.last_heard = executor_->Now();
  }
}

void TopologyManager::NoteTreeEdgeTraffic(const NodeAddress& src) {
  auto it = neighbors_.find(src);
  if (it != neighbors_.end()) {
    it->second.last_heard = executor_->Now();
    return;
  }
  if (src == requested_parent_) {
    return;  // edge forming: their full-state push can outrun the PeerAccept
  }
  if (!started_) {
    return;
  }
  metrics_->Increment("topology.half_open_repairs");
  send_(src, Envelope{MessageBody(PeerClose{self_})});
}

void TopologyManager::HandleDsrListResponse(const DsrListResponse& resp) {
  NoteSelfOrder(resp);
  if (resp.request_id != join_request_id_ || join_request_id_ == 0) {
    return;
  }
  join_request_id_ = 0;
  if (!joined_ || !parent().has_value()) {
    // Joining, re-joining after parent loss, or a root checking whether a
    // healed partition exposed an earlier tree to merge under.
    StartJoinProbe(resp);
  }
}

void TopologyManager::StartJoinProbe(const DsrListResponse& resp) {
  // Parent candidates are the resolvers that joined strictly before us: the
  // DSR's linear order is what makes the overlay a tree, and adopting a
  // later joiner could close a cycle when several nodes re-join at once. If
  // we are absent from the list (our registration lapsed or is in flight),
  // every listed resolver registered before our next refresh will — so all
  // of them are safe candidates.
  std::vector<NodeAddress> candidates;
  for (const NodeAddress& a : resp.active_inrs) {
    if (a == self_) {
      break;
    }
    candidates.push_back(a);
  }
  if (candidates.empty()) {
    // Nobody joined before us: we are (or remain) the tree root. Withdraw
    // any outstanding parent request — a stale requested_parent_ would both
    // leak a half-open edge on the other side and permanently shield that
    // peer from NoteTreeEdgeTraffic's repair path.
    if (requested_parent_.IsValid() && neighbors_.count(requested_parent_) == 0) {
      send_(requested_parent_, Envelope{MessageBody(PeerClose{self_})});
    }
    requested_parent_ = kInvalidAddress;
    if (!joined_) {
      joined_ = true;
      join_backoff_.Reset();
      metrics_->Increment("topology.joined_as_root");
    }
    return;
  }
  if (joined_) {
    metrics_->Increment("topology.root_watch_probes");
  }

  // INR-ping every candidate; peer with the minimum-RTT responder.
  struct Probe {
    size_t outstanding;
    double best_ms = std::numeric_limits<double>::infinity();
    NodeAddress best;
  };
  auto probe = std::make_shared<Probe>();
  probe->outstanding = candidates.size();
  for (const NodeAddress& target : candidates) {
    ping_agent_->SendPing(target, kPingTimeout,
                          [this, probe, target](std::optional<Duration> rtt) {
                            if (rtt.has_value() && ToMillis(*rtt) < probe->best_ms) {
                              probe->best_ms = ToMillis(*rtt);
                              probe->best = target;
                            }
                            if (--probe->outstanding > 0) {
                              return;
                            }
                            if (!probe->best.IsValid()) {
                              // Everyone timed out (crashed, or across a
                              // partition); the watchdog retries with
                              // backoff, and their DSR entries expire.
                              metrics_->Increment("topology.join_retries");
                              return;
                            }
                            AdoptParent(probe->best);
                          });
  }
}

void TopologyManager::ScheduleWatchdog(Duration delay) {
  executor_->Cancel(join_retry_task_);
  join_retry_task_ = executor_->ScheduleAfter(delay, [this] { EnsureJoinedTick(); });
}

void TopologyManager::EnsureJoinedTick() {
  if (!started_) {
    return;
  }
  if (!joined_) {
    metrics_->Increment("topology.join_watchdog_retries");
    RequestActiveList();
    ScheduleWatchdog(join_backoff_.Next());
    return;
  }
  if (!parent().has_value()) {
    // Root watch: a healed partition (or DSR restart) may have exposed a
    // resolver that orders before us; poll and merge under it if so.
    RequestActiveList();
    ScheduleWatchdog(ApplyJitter(kRootWatchInterval, 0.25, rng_));
    return;
  }
  join_backoff_.Reset();
  ScheduleWatchdog(config_.keepalive_interval * 2);
}

void TopologyManager::OnParentLost() {
  joined_ = false;
  join_backoff_.Reset();
  metrics_->Increment("topology.rejoins");
  if (flight_ != nullptr) {
    flight_->Record(executor_->Now(), FlightEventKind::kParentLost,
                    FlightSeverity::kWarning, "rejoining");
  }
  RequestActiveList();
  ScheduleWatchdog(join_backoff_.Next());
}

void TopologyManager::AdoptParent(const NodeAddress& parent) {
  // If an earlier PeerRequest went to someone else (handshake lost, or a
  // retry picked a different peer), withdraw it so no stale half-open edge
  // survives on the other side.
  if (requested_parent_.IsValid() && requested_parent_ != parent &&
      neighbors_.count(requested_parent_) == 0) {
    send_(requested_parent_, Envelope{MessageBody(PeerClose{self_})});
  }
  requested_parent_ = parent;
  metrics_->Increment("topology.peer_requests_sent");
  send_(parent, Envelope{MessageBody(PeerRequest{self_})});
}

void TopologyManager::HandlePeerRequest(const NodeAddress& src, const PeerRequest& req) {
  (void)src;
  // A fresh PeerRequest over an edge we think already exists means the
  // requester no longer holds its side: it crashed and restarted on the same
  // address before our keepalives noticed, or its accept never reached us on
  // a previous attempt. Re-adding in place would keep the stale link state —
  // most dangerously a parent role now pointing at what is about to become
  // our child (the restarted node chose US as parent), and would skip
  // on_neighbor_up, leaving the restarted node without the full-state push
  // its empty name tree depends on. Reset the edge so the add below runs the
  // complete new-neighbor path, and re-join if the stale edge was our parent.
  if (auto it = neighbors_.find(req.requester); it != neighbors_.end()) {
    const bool was_parent = it->second.is_parent;
    metrics_->Increment("topology.edge_resets");
    RemoveNeighbor(req.requester, /*notify_peer=*/false);
    if (was_parent && started_) {
      OnParentLost();
    }
  }
  AddNeighbor(req.requester, /*is_parent=*/false);
  send_(req.requester, Envelope{MessageBody(PeerAccept{self_})});
}

void TopologyManager::HandlePeerAccept(const NodeAddress& src, const PeerAccept& acc) {
  (void)src;
  const bool already_neighbor = neighbors_.count(acc.accepter) > 0;
  if (acc.accepter != requested_parent_) {
    if (already_neighbor) {
      neighbors_[acc.accepter].last_heard = executor_->Now();
      return;
    }
    // Accept for a request we since withdrew: refuse, so no half-open edge
    // survives on the accepter's side.
    metrics_->Increment("topology.stale_accepts");
    send_(acc.accepter, Envelope{MessageBody(PeerClose{self_})});
    return;
  }
  if (order_lapsed_ && !already_neighbor) {
    // Our join order lapsed and we are about to add a brand-new edge: close
    // the old edges first. They were built under the old order, and one of
    // them could connect us to a subtree that now contains our new parent —
    // keeping both would close a cycle. The closed children re-join under
    // the current order.
    DissolveNeighborsExcept(acc.accepter);
    metrics_->Increment("topology.lapse_dissolves");
  }
  order_lapsed_ = false;
  AddNeighbor(acc.accepter, /*is_parent=*/true);
  // Handshake complete: the edge is in neighbors_, which now covers the
  // forming-edge race in NoteTreeEdgeTraffic. Keeping requested_parent_ set
  // past this point is dangerous — if a later keepalive timeout removes this
  // peer while we are root, its PeerKeepalives would hit the forming-edge
  // shield forever and the half-open repair (PeerClose) would never fire,
  // leaving the peer with a permanent stale parent edge.
  requested_parent_ = kInvalidAddress;
  if (!joined_) {
    joined_ = true;
    metrics_->Increment("topology.joined");
  }
  join_backoff_.Reset();
}

void TopologyManager::HandlePeerClose(const NodeAddress& src, const PeerClose& close) {
  (void)src;
  if (neighbors_.count(close.closer) == 0) {
    return;
  }
  bool was_parent = neighbors_[close.closer].is_parent;
  RemoveNeighbor(close.closer, /*notify_peer=*/false);
  if (was_parent && started_) {
    OnParentLost();  // reconnect the tree
  }
}

void TopologyManager::AddNeighbor(const NodeAddress& addr, bool is_parent) {
  auto [it, inserted] = neighbors_.try_emplace(addr);
  it->second.address = addr;
  it->second.last_heard = executor_->Now();
  if (is_parent) {
    // At most one parent at a time.
    for (auto& [a, n] : neighbors_) {
      n.is_parent = false;
    }
    it->second.is_parent = true;
  }
  if (inserted) {
    metrics_->Increment("topology.neighbors_added");
    metrics_->SetGauge("topology.neighbors", static_cast<int64_t>(neighbors_.size()));
    if (flight_ != nullptr) {
      flight_->Record(executor_->Now(), FlightEventKind::kEdgeRepair, FlightSeverity::kInfo,
                      is_parent ? "parent" : "child", addr);
    }
    if (on_neighbor_up) {
      on_neighbor_up(addr);
    }
  }
}

void TopologyManager::RemoveNeighbor(const NodeAddress& addr, bool notify_peer) {
  auto it = neighbors_.find(addr);
  if (it == neighbors_.end()) {
    return;
  }
  neighbors_.erase(it);
  if (notify_peer) {
    send_(addr, Envelope{MessageBody(PeerClose{self_})});
  }
  metrics_->Increment("topology.neighbors_removed");
  metrics_->SetGauge("topology.neighbors", static_cast<int64_t>(neighbors_.size()));
  if (flight_ != nullptr) {
    flight_->Record(executor_->Now(), FlightEventKind::kEdgeDown, FlightSeverity::kWarning,
                    notify_peer ? "closed" : "detected", addr);
  }
  if (on_neighbor_down) {
    on_neighbor_down(addr);
  }
}

void TopologyManager::DissolveNeighborsExcept(const NodeAddress& keep) {
  std::vector<NodeAddress> peers = NeighborAddresses();
  for (const NodeAddress& p : peers) {
    if (p != keep) {
      RemoveNeighbor(p, /*notify_peer=*/true);
    }
  }
}

void TopologyManager::KeepaliveTick() {
  TimePoint now = executor_->Now();
  Duration dead_after = config_.keepalive_interval * kMissedKeepalivesForFailure;

  std::vector<NodeAddress> dead;
  for (auto& [addr, n] : neighbors_) {
    if (now - n.last_heard > dead_after) {
      dead.push_back(addr);
    }
  }
  for (const NodeAddress& addr : dead) {
    bool was_parent = neighbors_[addr].is_parent;
    INS_LOG(kDebug) << self_.ToString() << ": neighbor " << addr.ToString() << " failed";
    metrics_->Increment("topology.neighbor_failures");
    RemoveNeighbor(addr, /*notify_peer=*/false);
    if (was_parent && started_) {
      OnParentLost();
    }
  }

  for (auto& [addr, n] : neighbors_) {
    // The keepalive asserts the edge. If the peer lost it — most notably by
    // crashing and restarting on the same address, where it would still
    // answer our pings — it replies PeerClose and we re-join cleanly.
    send_(addr, Envelope{MessageBody(PeerKeepalive{self_})});
    NodeAddress target = addr;
    ping_agent_->SendPing(target, kPingTimeout,
                          [this, target](std::optional<Duration> rtt) {
                            if (!rtt.has_value()) {
                              return;
                            }
                            auto it = neighbors_.find(target);
                            if (it != neighbors_.end()) {
                              it->second.last_heard = executor_->Now();
                            }
                          });
  }

  keepalive_task_ =
      executor_->ScheduleAfter(config_.keepalive_interval, [this] { KeepaliveTick(); });
}

std::vector<NodeAddress> TopologyManager::NeighborAddresses() const {
  std::vector<NodeAddress> out;
  out.reserve(neighbors_.size());
  for (const auto& [addr, n] : neighbors_) {
    out.push_back(addr);
  }
  return out;
}

std::optional<NodeAddress> TopologyManager::parent() const {
  for (const auto& [addr, n] : neighbors_) {
    if (n.is_parent) {
      return addr;
    }
  }
  return std::nullopt;
}

}  // namespace ins
