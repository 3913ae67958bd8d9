#include "ins/inr/load_balancer.h"

#include "ins/common/logging.h"
#include "ins/inr/name_discovery.h"

namespace ins {

LoadBalancer::LoadBalancer(Executor* executor, SendFn send, NodeAddress self,
                           NodeAddress dsr, VspaceManager* vspaces, NameDiscovery* discovery,
                           MetricsRegistry* metrics, LoadBalancerConfig config)
    : executor_(executor),
      send_(std::move(send)),
      self_(self),
      dsr_(dsr),
      vspaces_(vspaces),
      discovery_(discovery),
      metrics_(metrics),
      config_(config) {}

LoadBalancer::~LoadBalancer() { Stop(); }

void LoadBalancer::Start() {
  // Replica-set maintenance runs whenever replica mode is on, even with the
  // load-balancing heuristics themselves disabled.
  if (config_.replica_k >= 2) {
    replica_task_ =
        executor_->ScheduleAfter(config_.replica_interval, [this] { ReplicaTick(); });
  }
  if (!config_.enabled) {
    return;
  }
  last_lookups_ = metrics_->Counter("forwarding.lookups");
  last_update_entries_ = metrics_->Counter("discovery.update_entries_received");
  tick_task_ = executor_->ScheduleAfter(config_.eval_interval, [this] { Tick(); });
}

void LoadBalancer::Stop() {
  executor_->Cancel(tick_task_);
  tick_task_ = kInvalidTaskId;
  executor_->Cancel(replica_task_);
  replica_task_ = kInvalidTaskId;
}

void LoadBalancer::Tick() {
  const double interval_s = ToSeconds(config_.eval_interval);
  const uint64_t lookups = metrics_->Counter("forwarding.lookups");
  const uint64_t updates = metrics_->Counter("discovery.update_entries_received");
  const double lookup_rate = static_cast<double>(lookups - last_lookups_) / interval_s;
  const double update_rate = static_cast<double>(updates - last_update_entries_) / interval_s;
  last_lookups_ = lookups;
  last_update_entries_ = updates;
  metrics_->SetGauge("lb.lookup_rate", static_cast<int64_t>(lookup_rate));
  metrics_->SetGauge("lb.update_entry_rate", static_cast<int64_t>(update_rate));

  if (pending_action_ == PendingAction::kNone) {
    if (update_rate > config_.delegate_update_entries_per_sec &&
        vspaces_->RoutedSpaces().size() > 1) {
      // Update processing saturates every resolver of a space; shed a space.
      RequestCandidates(PendingAction::kDelegate);
    } else if (lookup_rate > config_.spawn_lookups_per_sec) {
      RequestCandidates(PendingAction::kSpawn);
    }
  }

  if (config_.terminate_below_lookups_per_sec > 0) {
    if (lookup_rate < config_.terminate_below_lookups_per_sec) {
      if (++idle_intervals_ >= config_.idle_intervals_before_terminate &&
          on_should_terminate) {
        metrics_->Increment("lb.terminations_requested");
        on_should_terminate();
        return;  // do not reschedule; the resolver is going away
      }
    } else {
      idle_intervals_ = 0;
    }
  }

  tick_task_ = executor_->ScheduleAfter(config_.eval_interval, [this] { Tick(); });
}

void LoadBalancer::ReplicaTick() {
  // Refresh the DSR's (suspect-filtered) view of every routed space's set.
  // The response fans out inside the Inr: the forwarder's cache and the
  // replication agent's membership ride the same answer this tick asks for.
  for (const std::string& vspace : vspaces_->RoutedSpaces()) {
    DsrReplicaSetRequest req;
    req.request_id = kReplicaRequestTag | next_request_id_++;
    req.vspace = vspace;
    send_(dsr_, Envelope{MessageBody(std::move(req))});
  }
  metrics_->Increment("replica.maintenance_ticks");
  replica_task_ =
      executor_->ScheduleAfter(config_.replica_interval, [this] { ReplicaTick(); });
}

void LoadBalancer::HandleDsrReplicaSetResponse(const DsrReplicaSetResponse& resp) {
  if ((resp.request_id & kReplicaRequestTag) == 0) {
    return;  // a forwarder-side resolution, not a maintenance answer
  }
  if (!vspaces_->Routes(resp.vspace)) {
    return;  // delegated away while the request was in flight
  }
  // Only the set's primary (front = lowest DSR join order) recruits; one
  // recruiter per set keeps members from racing duplicate invites.
  if (resp.replicas.empty() || !(resp.replicas.front() == self_)) {
    return;
  }
  size_t have = resp.replicas.size();
  const size_t want = static_cast<size_t>(config_.replica_k);
  for (const NodeAddress& candidate : resp.candidates) {
    if (have >= want) {
      break;
    }
    if (candidate == self_) {
      continue;
    }
    // Recruit, then seed the recruit with the space's full state so it
    // serves lookups before the first digest round (messages are ordered,
    // so the invite's AddSpace lands before the state push).
    send_(candidate, Envelope{MessageBody(ReplicaInvite{self_, resp.vspace})});
    discovery_->SendVspaceStateTo(candidate, resp.vspace);
    ++have;
    metrics_->Increment("replica.invites_sent");
    INS_LOG(kDebug) << self_.ToString() << ": invited " << candidate.ToString()
                    << " into replica set of '" << resp.vspace << "'";
  }
}

void LoadBalancer::RequestCandidates(PendingAction action) {
  pending_action_ = action;
  candidates_request_id_ = next_request_id_++;
  DsrCandidatesRequest req;
  req.request_id = candidates_request_id_;
  send_(dsr_, Envelope{MessageBody(req)});
}

std::string LoadBalancer::PickSpaceToDelegate() const {
  // The seed's heuristic: shed the space holding the most records — the most
  // state to stop maintaining, and the best proxy for sustained update load
  // under soft-state refresh. Per-space write counts only break ties, so
  // delegation choices match the pre-sharding resolver exactly.
  std::string best;
  uint64_t best_updates = 0;
  size_t best_names = 0;
  for (const ShardedNameTree::ShardStats& st : vspaces_->store().PerShardStats()) {
    if (best.empty() || st.records > best_names ||
        (st.records == best_names && st.updates > best_updates)) {
      best_updates = st.updates;
      best_names = st.records;
      best = st.vspace;
    }
  }
  return best;
}

void LoadBalancer::HandleDsrCandidatesResponse(const DsrCandidatesResponse& resp) {
  if (resp.request_id != candidates_request_id_) {
    return;
  }
  candidates_request_id_ = 0;
  PendingAction action = pending_action_;
  pending_action_ = PendingAction::kNone;

  NodeAddress candidate;
  for (const NodeAddress& c : resp.candidates) {
    if (c != self_) {
      candidate = c;
      break;
    }
  }
  if (!candidate.IsValid()) {
    metrics_->Increment("lb.no_candidates");
    return;
  }

  if (action == PendingAction::kSpawn) {
    // A helper for the same spaces: load spreads as clients (re)attach.
    SpawnRequest req;
    req.requester = self_;
    req.vspaces = vspaces_->RoutedSpaces();
    send_(candidate, Envelope{MessageBody(std::move(req))});
    ++spawns_requested_;
    metrics_->Increment("lb.spawns_requested");
    INS_LOG(kDebug) << self_.ToString() << ": spawning helper INR on "
                    << candidate.ToString();
    return;
  }

  if (action == PendingAction::kDelegate) {
    std::string vspace = PickSpaceToDelegate();
    if (vspace.empty()) {
      return;
    }
    SpawnRequest spawn;
    spawn.requester = self_;
    spawn.vspaces = {vspace};
    send_(candidate, Envelope{MessageBody(std::move(spawn))});

    // Hand over the space: announce the delegation, transfer the name state,
    // then stop routing it ourselves (the DSR registration refresh drops it).
    send_(candidate, Envelope{MessageBody(DelegateVspace{self_, vspace})});
    discovery_->SendVspaceStateTo(candidate, vspace);
    vspaces_->RemoveSpace(vspace);
    ++delegations_;
    metrics_->Increment("lb.delegations");
    INS_LOG(kDebug) << self_.ToString() << ": delegated vspace '" << vspace << "' to "
                    << candidate.ToString();
  }
}

// --- SpawnListener -----------------------------------------------------------

SpawnListener::SpawnListener(Executor* executor, Transport* transport, NodeAddress dsr,
                             Factory factory)
    : executor_(executor), transport_(transport), dsr_(dsr), factory_(std::move(factory)) {
  transport_->SetReceiveHandler(
      [this](const NodeAddress& src, const Bytes& data) { OnMessage(src, data); });
  RegisterWithDsr();
}

SpawnListener::~SpawnListener() {
  executor_->Cancel(register_task_);
  if (!consumed_) {
    transport_->SetReceiveHandler(nullptr);
  }
}

void SpawnListener::RegisterWithDsr() {
  DsrRegister reg;
  reg.inr = transport_->local_address();
  reg.active = false;  // candidate only
  reg.lifetime_s = 60;
  transport_->Send(dsr_, Encode(reg));
  register_task_ = executor_->ScheduleAfter(Seconds(20), [this] { RegisterWithDsr(); });
}

void SpawnListener::OnMessage(const NodeAddress& src, const Bytes& data) {
  auto env = DecodeMessage(data);
  if (!env.ok()) {
    return;
  }
  if (const auto* ping = std::get_if<Ping>(&env->body)) {
    transport_->Send(src, Encode(PingAgent::PongFor(*ping)));
    return;
  }
  if (const auto* spawn = std::get_if<SpawnRequest>(&env->body)) {
    if (consumed_) {
      return;
    }
    consumed_ = true;
    executor_->Cancel(register_task_);
    // The factory installs the spawned resolver's own receive handler.
    factory_(*spawn);
    return;
  }
}

}  // namespace ins
