#include "ins/inr/inr.h"

#include <algorithm>
#include <sstream>

#include "ins/common/logging.h"
#include "ins/name/parser.h"

namespace ins {

namespace {
constexpr size_t kCacheCapacity = 128;
// Refresh period and soft-state lifetime of the netmon self-advertisement.
constexpr Duration kNetmonRefresh = Seconds(15);
constexpr uint32_t kNetmonLifetimeS = 45;
}  // namespace

Inr::Inr(Executor* executor, Transport* transport, InrConfig config)
    : executor_(executor),
      transport_(transport),
      config_(std::move(config)),
      trace_ring_(config_.trace_ring_capacity),
      flight_(config_.flight_recorder_capacity),
      timeseries_(config_.metrics_timeseries_capacity),
      log_tag_(transport->local_address().ToString()),
      messages_(metrics_.RegisterCounter("inr.messages")),
      bytes_received_(metrics_.RegisterCounter("inr.bytes_received")) {
  // Per-stage latency attribution: sampled packets crossing this node leave
  // their stage spans in latency.stage.* histograms.
  trace_ring_.EnableStageAttribution(&metrics_);
  flight_.set_node(transport->local_address());
  if (!config_.topology.dsr.IsValid()) {
    config_.topology.dsr = config_.dsr;
  }
  if (config_.replication.enabled) {
    // The balancer owns set maintenance (it already talks to the DSR about
    // capacity); replica_k is configured once, on the replication config.
    config_.load_balancer.replica_k = config_.replication.replica_k;
  }
  SendFn send = [this](const NodeAddress& dst, const Envelope& env) {
    transport_->Send(dst, EncodeMessage(env));
  };

  ping_agent_ = std::make_unique<PingAgent>(executor_, send);
  topology_ = std::make_unique<TopologyManager>(executor_, ping_agent_.get(), send,
                                                address(), config_.topology, &metrics_);
  // Journaling costs one entry copy per state-changing write; only pay it
  // when replication will consume the journal.
  const size_t journal_capacity =
      config_.replication.enabled ? config_.replication.journal_capacity : 0;
  vspaces_ = std::make_unique<VspaceManager>(executor_, send, config_.dsr, &metrics_,
                                             journal_capacity);
  cache_ = std::make_unique<PacketCache>(kCacheCapacity);
  discovery_ = std::make_unique<NameDiscovery>(executor_, send, address(), vspaces_.get(),
                                               topology_.get(), &metrics_,
                                               config_.discovery);
  forwarding_ = std::make_unique<ForwardingAgent>(executor_, send, address(),
                                                  vspaces_.get(), topology_.get(),
                                                  cache_.get(), &metrics_, &trace_ring_);
  load_balancer_ = std::make_unique<LoadBalancer>(executor_, send, address(), config_.dsr,
                                                  vspaces_.get(), discovery_.get(),
                                                  &metrics_, config_.load_balancer);
  replication_ = std::make_unique<ReplicationAgent>(executor_, send, address(), config_.dsr,
                                                    vspaces_.get(), topology_.get(),
                                                    discovery_.get(), &metrics_,
                                                    config_.replication);
  if (config_.replication.enabled) {
    // Digests carry liveness, deltas carry changes: the periodic O(names)
    // re-announcement becomes redundant bytes.
    discovery_->SetPeriodicSuppressed(true);
  }
  if (replication_->replica_mode()) {
    // Replica-set owner caching: TTL'd entries instead of the seed's
    // forever-cache, plus dead-replica steering on the forwarding path.
    vspaces_->EnableReplicaMode(config_.replication.owner_cache_ttl,
                                static_cast<size_t>(config_.replication.replica_k));
  }
  admission_ = std::make_unique<AdmissionController>(
      executor_, &metrics_, config_.admission,
      [this](const NodeAddress& src, const Envelope& env, Duration queued) {
        DispatchEnvelope(src, env, queued);
      },
      &trace_ring_, address());
  topology_->AttachFlightRecorder(&flight_);
  replication_->AttachFlightRecorder(&flight_);
  admission_->AttachFlightRecorder(&flight_);

  for (const std::string& vspace : config_.vspaces) {
    vspaces_->AddSpace(vspace);
  }
  // Keep the DSR registration's vspace list current as spaces come and go.
  vspaces_->on_spaces_changed = [this] {
    if (running_) {
      topology_->SetVspaces(vspaces_->RoutedSpaces());
    }
  };
  // A new overlay neighbor immediately learns everything we know. A peer
  // that comes (back) up is also evidently not a dead replica anymore.
  topology_->on_neighbor_up = [this](const NodeAddress& peer) {
    vspaces_->NoteReplicaAlive(peer);
    discovery_->SendFullStateTo(peer);
  };
  // A dead link stops being a usable next hop right away. The replication
  // cursor for the peer dies with the edge, so a re-formed edge starts from
  // serial 0 — a full resynchronization, never a silent gap. Vspaces the
  // peer co-replicated with us are the exception: their records are
  // RETAINED (and served directly) so the set survives its member.
  topology_->on_neighbor_down = [this](const NodeAddress& peer) {
    const std::set<std::string> keep = replication_->NotePeerDown(peer);
    discovery_->PurgeRoutesVia(peer, keep);
    replication_->ForgetPeer(peer);
  };
  // Default idle-termination policy: shut down gracefully.
  load_balancer_->on_should_terminate = [this] { Stop(); };

  // Real transports report their transport.* counters (drops, batch sizes)
  // into this node's registry; sim transports ignore the call.
  transport_->AttachMetrics(&metrics_);
  transport_->SetReceiveHandler(
      [this](const NodeAddress& src, const Bytes& data) { OnMessage(src, data); });
}

Inr::~Inr() {
  Stop();
  transport_->SetReceiveHandler(nullptr);
}

void Inr::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  // Ask the DSR which spaces our (possibly still-live) soft-state
  // registration routes, BEFORE topology_->Start() re-registers with the
  // config's initial list and overwrites it. A fresh INR gets back at most
  // what it already routes; a restarted one recovers the assignments its
  // crashed predecessor held, instead of black-holing them until an operator
  // notices.
  DsrAssignmentsRequest recover;
  recover.request_id = static_cast<uint64_t>(address().ip) << 16 | address().port;
  recover.inr = address();
  transport_->Send(config_.dsr, Encode(recover));
  topology_->Start(vspaces_->RoutedSpaces());
  discovery_->Start();
  load_balancer_->Start();
  replication_->Start();
  if (config_.netmon.advertise) {
    AdvertiseNetmon();
  }
  flight_.Record(executor_->Now(), FlightEventKind::kInrStart, FlightSeverity::kInfo);
  INS_LOG(kDebug) << "INR " << address().ToString() << " started";
}

void Inr::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  admission_->Clear();
  if (netmon_task_ != kInvalidTaskId) {
    executor_->Cancel(netmon_task_);
    netmon_task_ = kInvalidTaskId;
  }
  load_balancer_->Stop();
  replication_->Stop();
  discovery_->Stop();
  topology_->Stop();
  // Tell the DSR to drop us immediately (lifetime 0 = unregister).
  DsrRegister reg;
  reg.inr = address();
  reg.active = true;
  reg.lifetime_s = 0;
  transport_->Send(config_.dsr, Encode(reg));
  flight_.Record(executor_->Now(), FlightEventKind::kInrStop, FlightSeverity::kInfo);
  INS_LOG(kDebug) << "INR " << address().ToString() << " stopped";
}

void Inr::Crash() {
  if (!running_) {
    return;
  }
  running_ = false;  // OnMessage now drops everything: the node is silent
  admission_->Clear();
  if (netmon_task_ != kInvalidTaskId) {
    executor_->Cancel(netmon_task_);
    netmon_task_ = kInvalidTaskId;
  }
  load_balancer_->Stop();
  replication_->Stop();
  discovery_->Stop();
  topology_->CrashStop();
  flight_.Record(executor_->Now(), FlightEventKind::kInrCrash, FlightSeverity::kCritical);
  INS_LOG(kDebug) << "INR " << address().ToString() << " crashed (injected)";
}

void Inr::OnMessage(const NodeAddress& src, const Bytes& data) {
  if (!running_) {
    // A terminated resolver goes silent: it must not answer pings, or peers
    // would never notice it left if its PeerClose was lost.
    metrics_.Increment("inr.messages_while_stopped");
    return;
  }
  ScopedLogNode log_scope(log_tag_);
  messages_.Increment();
  bytes_received_.Increment(data.size());
  auto env = DecodeMessage(data);
  if (!env.ok()) {
    metrics_.Increment("inr.decode_errors");
    return;
  }
  if (const Packet* packet = std::get_if<Packet>(&env->body);
      packet != nullptr && packet->traced()) {
    TraceEvent ev;
    ev.trace_id = packet->trace_id;
    ev.at = executor_->Now();
    ev.node = address();
    ev.kind = TraceEventKind::kReceived;
    ev.peer = src;
    ev.value = packet->hop_limit;
    trace_ring_.Record(ev);
  }
  admission_->Admit(src, std::move(env).value());
}

void Inr::DispatchEnvelope(const NodeAddress& src, const Envelope& env, Duration queued) {
  if (!running_) {
    return;  // crashed/stopped while this message sat in the admission queue
  }
  ScopedLogNode log_scope(log_tag_);
  if (auto* packet = std::get_if<Packet>(&env.body)) {
    // Time spent queued comes out of the packet's deadline budget: resolving
    // a request its client already abandoned is pure added load.
    if (queued > Duration{0} && packet->deadline_budget_ms != 0) {
      Packet charged = *packet;
      const auto queued_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(queued).count();
      if (!ConsumeDeadlineBudget(charged, static_cast<uint32_t>(queued_ms))) {
        forwarding_->NoteDrop(charged, ForwardingDropReason::kDeadline);
        return;
      }
      forwarding_->HandleData(src, charged);
      return;
    }
    forwarding_->HandleData(src, *packet);
  } else if (auto* ad = std::get_if<Advertisement>(&env.body)) {
    discovery_->HandleAdvertisement(src, *ad);
  } else if (auto* update = std::get_if<NameUpdate>(&env.body)) {
    // Still processed when `src` is not an overlay neighbor (delegation
    // seeds a new vspace owner this way), but the sender is told to close
    // its half-open edge if it thinks this was a tree link.
    topology_->NoteTreeEdgeTraffic(src);
    discovery_->HandleNameUpdate(src, *update);
  } else if (auto* disc = std::get_if<DiscoveryRequest>(&env.body)) {
    HandleDiscoveryRequest(src, *disc);
  } else if (auto* dmreq = std::get_if<MetricsDeltaRequest>(&env.body)) {
    HandleMetricsDeltaRequest(src, *dmreq);
  } else if (auto* ping = std::get_if<Ping>(&env.body)) {
    topology_->NoteNeighborAlive(src);
    transport_->Send(src, Encode(PingAgent::PongFor(*ping)));
  } else if (auto* pong = std::get_if<Pong>(&env.body)) {
    topology_->NoteNeighborAlive(src);
    ping_agent_->HandlePong(src, *pong);
  } else if (auto* preq = std::get_if<PeerRequest>(&env.body)) {
    topology_->HandlePeerRequest(src, *preq);
  } else if (auto* pacc = std::get_if<PeerAccept>(&env.body)) {
    topology_->HandlePeerAccept(src, *pacc);
  } else if (auto* pclose = std::get_if<PeerClose>(&env.body)) {
    topology_->HandlePeerClose(src, *pclose);
  } else if (auto* keepalive = std::get_if<PeerKeepalive>(&env.body)) {
    // From a neighbor: proof of life. From anyone else: a half-open edge
    // (classically an amnesiac restart of this node, which keeps answering
    // the sender's pings) — NoteTreeEdgeTraffic replies PeerClose.
    topology_->NoteTreeEdgeTraffic(keepalive->from);
  } else if (auto* digest = std::get_if<JournalDigest>(&env.body)) {
    // A digest refreshes a live tree edge's keepalive but never provokes a
    // PeerClose: replica peers digest each other without holding an overlay
    // edge, and a freshly restarted peer (its membership view is gone) would
    // otherwise answer its old co-replica's digest with a close that tears
    // down the very join handshake it is trying to form with the sender.
    // Half-open edges are still reaped by the keepalive timeout.
    if (topology_->IsNeighbor(digest->from)) {
      topology_->NoteTreeEdgeTraffic(digest->from);
    }
    replication_->HandleDigest(src, *digest);
  } else if (auto* dreq = std::get_if<JournalDeltaRequest>(&env.body)) {
    replication_->HandleDeltaRequest(src, *dreq);
  } else if (auto* dresp = std::get_if<JournalDeltaResponse>(&env.body)) {
    replication_->HandleDeltaResponse(src, *dresp);
  } else if (auto* list = std::get_if<DsrListResponse>(&env.body)) {
    topology_->HandleDsrListResponse(*list);
  } else if (auto* vresp = std::get_if<DsrVspaceResponse>(&env.body)) {
    vspaces_->HandleDsrVspaceResponse(*vresp);
  } else if (auto* rset = std::get_if<DsrReplicaSetResponse>(&env.body)) {
    // One response feeds three consumers, each filtering by its own pending
    // ids or routed spaces: the forwarder's owner cache, the replication
    // agent's membership view, and the load balancer's set top-up.
    vspaces_->HandleDsrReplicaSetResponse(*rset);
    replication_->NoteReplicaSet(rset->vspace, rset->replicas);
    load_balancer_->HandleDsrReplicaSetResponse(*rset);
    // Un-recruitment: an invite-joined space whose set is full WITHOUT this
    // resolver (join order beyond k — e.g. a partition made both sides top
    // up, and the heal restored the original members) is relinquished. The
    // members hold every record, so dropping the stranded copy loses
    // nothing, and the convergence contract stays k-wide instead of
    // accreting routers across fault rounds.
    // The answer lists every (non-suspect) registrant in join order; only
    // the first replica_k are the set.
    const size_t k = static_cast<size_t>(config_.replication.replica_k);
    const bool set_full = rset->replicas.size() >= k;
    const auto set_end = rset->replicas.begin() +
                         static_cast<long>(std::min(rset->replicas.size(), k));
    const bool self_in_set =
        std::find(rset->replicas.begin(), set_end, address()) != set_end;
    if (set_full && !self_in_set && invited_spaces_.count(rset->vspace) != 0 &&
        vspaces_->Routes(rset->vspace)) {
      metrics_.Increment("replica.relinquished");
      invited_spaces_.erase(rset->vspace);
      replication_->DropSpace(rset->vspace);
      vspaces_->RemoveSpace(rset->vspace);
    }
  } else if (auto* invite = std::get_if<ReplicaInvite>(&env.body)) {
    // The set's primary recruited this resolver: start routing the vspace.
    // The inviter follows up with a full state push (SendVspaceStateTo), and
    // the next DSR registration advertises the new membership.
    if (replication_->replica_mode() && !vspaces_->Routes(invite->vspace)) {
      metrics_.Increment("replica.joined");
      invited_spaces_.insert(invite->vspace);
      vspaces_->AddSpace(invite->vspace);
    }
  } else if (auto* cands = std::get_if<DsrCandidatesResponse>(&env.body)) {
    load_balancer_->HandleDsrCandidatesResponse(*cands);
  } else if (auto* del = std::get_if<DelegateVspace>(&env.body)) {
    metrics_.Increment("inr.vspaces_accepted");
    vspaces_->AddSpace(del->vspace);
  } else if (auto* assigned = std::get_if<DsrAssignmentsResponse>(&env.body)) {
    // Crash-recovery answer: resume routing every space our pre-crash
    // registration held. AddSpace fires on_spaces_changed, which re-registers
    // the recovered list with the DSR right away.
    for (const std::string& vspace : assigned->vspaces) {
      if (!vspaces_->Routes(vspace)) {
        metrics_.Increment("inr.vspaces_recovered");
        // A resumed space beyond the configured list was acquired at runtime
        // (replica invite or delegation). The invite memo died with the old
        // process, so mark it relinquishable again: if the set is genuinely
        // ours the DSR answer will include us and nothing happens, while a
        // stale recruitment (the set healed full while we were down) gets
        // dropped instead of leaving a journal-less router that black-holes
        // tunnelled lookups. A delegated space keeps us as its earliest
        // live registrant, so it can never relinquish itself this way.
        if (std::find(config_.vspaces.begin(), config_.vspaces.end(), vspace) ==
            config_.vspaces.end()) {
          invited_spaces_.insert(vspace);
        }
        vspaces_->AddSpace(vspace);
      }
    }
  } else {
    metrics_.Increment("inr.unexpected_messages");
  }
}

void Inr::HandleDiscoveryRequest(const NodeAddress& src, const DiscoveryRequest& req) {
  metrics_.Increment("inr.discovery_requests");
  NodeAddress reply_to = req.reply_to.IsValid() ? req.reply_to : src;

  if (!vspaces_->Routes(req.vspace)) {
    DiscoveryRequest forward = req;
    forward.reply_to = reply_to;
    vspaces_->ResolveOwner(req.vspace, [this, forward, reply_to](const NodeAddress& owner) {
      if (owner.IsValid() && owner != address()) {
        transport_->Send(owner, Encode(forward));
        return;
      }
      // Nobody routes the space: answer with an empty result.
      DiscoveryResponse resp;
      resp.request_id = forward.request_id;
      resp.vspace = forward.vspace;
      transport_->Send(reply_to, Encode(resp));
    });
    return;
  }

  NameSpecifier filter;  // empty = match everything
  if (!req.filter_text.empty()) {
    auto parsed = ParseNameSpecifier(req.filter_text);
    if (!parsed.ok()) {
      metrics_.Increment("inr.bad_discovery_filters");
      return;
    }
    filter = std::move(parsed).value();
  }

  DiscoveryResponse resp;
  resp.request_id = req.request_id;
  resp.vspace = req.vspace;
  for (ShardedNameTree::NamedRecord& named : vspaces_->store().LookupNamed(req.vspace, filter)) {
    DiscoveryResponse::Item item;
    item.name_text = named.name.ToString();
    item.endpoint = named.record.endpoint;
    item.app_metric = named.record.app_metric;
    resp.items.push_back(std::move(item));
  }
  transport_->Send(reply_to, Encode(resp));
}

void Inr::RefreshInventoryGauges() {
  size_t names = 0;
  const std::vector<std::string> spaces = vspaces_->RoutedSpaces();
  for (const std::string& vspace : spaces) {
    names += vspaces_->store().RecordCount(vspace);
  }
  metrics_.SetGauge("inr.names", static_cast<int64_t>(names));
  metrics_.SetGauge("inr.neighbors",
                    static_cast<int64_t>(topology_->NeighborAddresses().size()));
  metrics_.SetGauge("inr.vspaces", static_cast<int64_t>(spaces.size()));
  // The instruments' own blind spots: events lost to ring overwrites.
  metrics_.SetGauge("inr.trace_ring.overwritten",
                    static_cast<int64_t>(trace_ring_.overwritten()));
  metrics_.SetGauge("inr.flight.overwritten", static_cast<int64_t>(flight_.overwritten()));
}

void Inr::HandleMetricsDeltaRequest(const NodeAddress& src, const MetricsDeltaRequest& req) {
  metrics_.Increment("inr.metrics_requests");
  metrics_.Increment("timeseries.samples");
  // Inventory gauges are poll-time state, not per-event accounting: refresh
  // them only when a snapshot is about to leave the node.
  RefreshInventoryGauges();
  const NodeAddress reply_to = req.reply_to.IsValid() ? req.reply_to : src;
  // Each poll appends one sample; the sample's sequence number is the
  // client's next baseline. A client whose baseline fell out of the retained
  // window — or references a previous incarnation of this resolver — gets a
  // full snapshot and starts over.
  const MetricsSnapshot now = metrics_.Snapshot();
  // Copy the baseline out of the ring before Append: the new sample may land
  // in (and overwrite) the very slot the baseline occupies.
  const MetricsSample* retained =
      req.since_seq == 0 ? nullptr : timeseries_.SampleAt(req.since_seq);
  const bool have_baseline = retained != nullptr;
  const MetricsSnapshot baseline = have_baseline ? retained->snapshot : MetricsSnapshot{};
  const uint64_t seq = timeseries_.Append(now, executor_->Now());
  if (!have_baseline) {
    metrics_.Increment("timeseries.full_served");
    transport_->Send(reply_to, Encode(BuildMetricsFull(req.request_id, address(), seq, now)));
    return;
  }
  metrics_.Increment("timeseries.delta_served");
  transport_->Send(reply_to, Encode(BuildMetricsDelta(req.request_id, address(), seq,
                                                      req.since_seq, baseline, now)));
}

void Inr::AdvertiseNetmon() {
  Advertisement ad;
  ad.vspace = config_.netmon.vspace;
  ad.name_text = "[service=netmon][node=" + address().ToString() + "]";
  // IP + fixed discriminator: re-advertisements from the same resolver
  // refresh one record instead of accreting new ones.
  ad.announcer = AnnouncerId{address().ip, 0, 0xADu};
  ad.endpoint.address = address();
  ad.lifetime_s = kNetmonLifetimeS;
  ad.version = ++netmon_version_;
  discovery_->HandleAdvertisement(address(), ad);
  netmon_task_ = executor_->ScheduleAfter(kNetmonRefresh, [this] {
    netmon_task_ = kInvalidTaskId;
    if (running_) {
      AdvertiseNetmon();
    }
  });
}

std::string Inr::DebugString() const {
  std::ostringstream os;
  os << "INR " << transport_->local_address().ToString() << "\n";
  os << "neighbors:";
  for (const NodeAddress& n : topology_->NeighborAddresses()) {
    os << " " << n.ToString();
  }
  os << "\n";
  for (const std::string& vspace : vspaces_->RoutedSpaces()) {
    const ShardedNameTree& store = vspaces_->store();
    os << "vspace '" << vspace << "': " << store.RecordCount(vspace) << " names\n";
    os << store.Tree(vspace)->DebugString();
  }
  os << "shards:\n";
  for (const ShardedNameTree::ShardStats& st : vspaces_->store().PerShardStats()) {
    os << "  '" << st.vspace << "': " << st.records << " records, "
       << st.bytes << " bytes, " << st.lookups << " lookups, " << st.updates
       << " updates\n";
  }
  os << "counters:\n";
  for (const auto& [name, value] : metrics_.counters()) {
    os << "  " << name << " = " << value << "\n";
  }
  return os.str();
}

}  // namespace ins
