#include "ins/inr/replication.h"

#include <algorithm>
#include <iterator>
#include <limits>

#include "ins/common/logging.h"

namespace ins {

ReplicationAgent::ReplicationAgent(Executor* executor, SendFn send, NodeAddress self,
                                   NodeAddress dsr, VspaceManager* vspaces,
                                   TopologyManager* topology, NameDiscovery* discovery,
                                   MetricsRegistry* metrics, ReplicationConfig config)
    : executor_(executor),
      send_(std::move(send)),
      self_(self),
      dsr_(dsr),
      vspaces_(vspaces),
      topology_(topology),
      discovery_(discovery),
      metrics_(metrics),
      config_(config) {}

ReplicationAgent::~ReplicationAgent() { Stop(); }

void ReplicationAgent::Start() {
  if (!config_.enabled || running_) {
    return;
  }
  running_ = true;
  digest_task_ = executor_->ScheduleAfter(config_.digest_interval, [this] { DigestTick(); });
  retry_task_ = executor_->ScheduleAfter(config_.transfer_timeout, [this] { RetryTick(); });
}

void ReplicationAgent::Stop() {
  running_ = false;
  executor_->Cancel(digest_task_);
  executor_->Cancel(retry_task_);
  digest_task_ = retry_task_ = kInvalidTaskId;
  peers_.clear();
  replica_members_.clear();
  replica_last_heard_.clear();
  dead_peer_spaces_.clear();
  UpdatePeerGauges();
}

void ReplicationAgent::DigestTick() {
  SendDigests();
  CheckReplicaLiveness();
  digest_task_ = executor_->ScheduleAfter(config_.digest_interval, [this] { DigestTick(); });
}

void ReplicationAgent::SendDigests() {
  JournalDigest digest;
  digest.from = self_;
  for (const std::string& vspace : vspaces_->RoutedSpaces()) {
    digest.items.push_back({vspace, vspaces_->store().JournalHead(vspace)});
  }
  std::set<NodeAddress> neighbors;
  for (const NodeAddress& peer : topology_->NeighborAddresses()) {
    neighbors.insert(peer);
    metrics_->Increment("replication.digests_sent");
    send_(peer, Envelope{MessageBody(digest)});
  }
  if (!replica_mode()) {
    return;
  }
  // Replica-set members are usually NOT overlay neighbors; the digest (and
  // with it the lease renewal + liveness signal) must reach them explicitly.
  std::set<NodeAddress> extra;
  for (const auto& [vspace, members] : replica_members_) {
    for (const NodeAddress& member : members) {
      if (neighbors.count(member) == 0) {
        extra.insert(member);
      }
    }
  }
  for (const NodeAddress& member : extra) {
    metrics_->Increment("replica.digests_sent");
    send_(member, Envelope{MessageBody(digest)});
  }
}

void ReplicationAgent::UpdatePeerGauges() {
  std::set<NodeAddress> distinct;
  for (const auto& [key, ps] : peers_) {
    distinct.insert(key.first);
  }
  metrics_->SetGauge("replication.peer_spaces", static_cast<int64_t>(peers_.size()));
  metrics_->SetGauge("replication.peers", static_cast<int64_t>(distinct.size()));
}

bool ReplicationAgent::IsReplicaPeer(const NodeAddress& addr) const {
  for (const auto& [vspace, members] : replica_members_) {
    if (std::find(members.begin(), members.end(), addr) != members.end()) {
      return true;
    }
  }
  return false;
}

void ReplicationAgent::NoteReplicaSet(const std::string& vspace,
                                      const std::vector<NodeAddress>& members) {
  if (!replica_mode() || !running_ || !vspaces_->Routes(vspace)) {
    return;
  }
  // The DSR answers the FULL join-ordered registrant list; only the first
  // replica_k entries ARE the set. For a widely-routed space (think "") the
  // tail is every other resolver in the overlay — treating those as members
  // would make everyone digest everyone and retain everyone's routes.
  const auto set_end =
      members.begin() +
      std::min(members.size(), static_cast<size_t>(config_.replica_k));
  // Only an actual member adopts the set. A resolver that merely routes the
  // space (every router asks the DSR for the set to fill its owner cache)
  // must NOT treat the members as replica peers: it would digest them
  // off-tree, declare them dead on digest silence, and — worst — retain
  // every route via a dead member in NotePeerDown, leaving stale
  // distance-vector entries that re-propagate and loop once the member
  // restarts empty.
  //
  // Absence from the set does NOT revoke an adopted membership, though: a
  // member that was reported dead across a partition is suspect at the DSR,
  // so the answer omits it until its own registration refresh clears the
  // suspicion — self-demoting in that window would stop member-to-member
  // anti-entropy and let the journal-applied copies age out. Membership ends
  // only with the space itself (DropSpace).
  if (std::find(members.begin(), set_end, self_) == set_end) {
    if (replica_members_.count(vspace) == 0) {
      return;
    }
  } else {
    std::vector<NodeAddress> others;
    for (auto it = members.begin(); it != set_end; ++it) {
      if (*it == self_) {
        continue;
      }
      others.push_back(*it);
      // Seed the failure detector at learn time; only real digests advance it.
      replica_last_heard_.emplace(*it, executor_->Now());
    }
    replica_members_[vspace] = std::move(others);
  }
  std::set<NodeAddress> all;
  for (const auto& [space, mem] : replica_members_) {
    all.insert(mem.begin(), mem.end());
  }
  for (auto it = replica_last_heard_.begin(); it != replica_last_heard_.end();) {
    it = all.count(it->first) == 0 ? replica_last_heard_.erase(it) : std::next(it);
  }
  metrics_->SetGauge("replica.members", static_cast<int64_t>(all.size()));
}

void ReplicationAgent::DropSpace(const std::string& vspace) {
  if (replica_members_.erase(vspace) == 0) {
    return;
  }
  std::set<NodeAddress> all;
  for (const auto& [space, mem] : replica_members_) {
    all.insert(mem.begin(), mem.end());
  }
  for (auto it = replica_last_heard_.begin(); it != replica_last_heard_.end();) {
    it = all.count(it->first) == 0 ? replica_last_heard_.erase(it) : std::next(it);
  }
  metrics_->SetGauge("replica.members", static_cast<int64_t>(all.size()));
}

void ReplicationAgent::CheckReplicaLiveness() {
  if (!replica_mode()) {
    return;
  }
  const TimePoint now = executor_->Now();
  const Duration window = config_.digest_interval * config_.replica_missed_digests;
  std::vector<NodeAddress> dead;
  for (const auto& [peer, last] : replica_last_heard_) {
    if (now - last > window) {
      dead.push_back(peer);
    }
  }
  for (const NodeAddress& peer : dead) {
    metrics_->Increment("replica.peer_deaths");
    DeclareReplicaDead(peer);
  }
}

void ReplicationAgent::DeclareReplicaDead(const NodeAddress& peer) {
  bool was_member = false;
  for (auto& [vspace, members] : replica_members_) {
    auto it = std::find(members.begin(), members.end(), peer);
    if (it != members.end()) {
      members.erase(it);
      was_member = true;
      // Membership forgets the dead peer right away (the DSR's next answer
      // drops it too), but the overlay keepalive detector fires LATER —
      // NotePeerDown must still know which spaces to spare from the purge.
      dead_peer_spaces_[peer].insert(vspace);
    }
  }
  replica_last_heard_.erase(peer);
  if (!was_member) {
    return;
  }
  INS_LOG(kDebug) << "replication: " << self_.ToString() << " declares replica peer "
                  << peer.ToString() << " dead";
  if (flight_ != nullptr) {
    flight_->Record(executor_->Now(), FlightEventKind::kReplicaDead,
                    FlightSeverity::kCritical, "digest-silence", peer);
  }
  // Steer this resolver's own forwarding away immediately; records via the
  // peer are deliberately RETAINED (survivors keep serving them — delivery
  // goes straight to the record's endpoint while the peer is believed dead).
  vspaces_->NoteReplicaDead(peer);
  // Cursors are meaningless across the peer's death; if it returns, its
  // digest (serial regression or fresh history) resyncs from zero.
  ForgetPeer(peer);
  if (dsr_.IsValid()) {
    DsrDeadInrReport report;
    report.reporter = self_;
    report.dead = peer;
    metrics_->Increment("replica.dead_reports_sent");
    send_(dsr_, Envelope{MessageBody(std::move(report))});
  }
}

std::set<std::string> ReplicationAgent::NotePeerDown(const NodeAddress& peer) {
  std::set<std::string> keep;
  if (!replica_mode() || !running_) {
    return keep;
  }
  bool still_member = false;
  for (const auto& [vspace, members] : replica_members_) {
    if (std::find(members.begin(), members.end(), peer) != members.end()) {
      keep.insert(vspace);
      still_member = true;
    }
  }
  // Spaces the digest detector already dissociated the peer from (it fires
  // well before the overlay keepalive window) still need their records kept.
  if (auto memo = dead_peer_spaces_.find(peer); memo != dead_peer_spaces_.end()) {
    keep.insert(memo->second.begin(), memo->second.end());
  }
  if (still_member) {
    metrics_->Increment("replica.peer_deaths");
    DeclareReplicaDead(peer);
  }
  return keep;
}

void ReplicationAgent::RetryTick() {
  const TimePoint now = executor_->Now();
  for (auto& [key, ps] : peers_) {
    if (!ps.awaiting || now < ps.deadline) {
      continue;
    }
    if (ps.retries >= config_.max_transfer_retries) {
      metrics_->Increment("replication.transfer_aborts");
      AbortTransfer(ps);
      continue;
    }
    // Restart the whole transfer: the server regenerates every chunk, so the
    // sequence cursor and any partial snapshot inventory reset with it.
    ++ps.retries;
    ps.next_seq = 0;
    ps.snapshot_seen.clear();
    ps.deadline = now + config_.transfer_timeout;
    metrics_->Increment("replication.transfer_retries");
    SendRequest(key.first, key.second, ps);
  }
  retry_task_ = executor_->ScheduleAfter(config_.transfer_timeout, [this] { RetryTick(); });
}

void ReplicationAgent::AbortTransfer(PeerSpace& ps) {
  ps.awaiting = false;
  ps.full = false;
  ps.next_seq = 0;
  ps.retries = 0;
  ps.snapshot_seen.clear();
}

void ReplicationAgent::ForgetPeer(const NodeAddress& peer) {
  size_t erased = 0;
  for (auto it = peers_.begin(); it != peers_.end();) {
    if (it->first.first == peer) {
      it = peers_.erase(it);
      ++erased;
    } else {
      ++it;
    }
  }
  if (erased > 0) {
    // Eager gauge update: a dead neighbor must not stay counted until the
    // next digest cadence.
    UpdatePeerGauges();
  }
}

uint64_t ReplicationAgent::AppliedSerial(const NodeAddress& peer,
                                         const std::string& vspace) const {
  auto it = peers_.find({peer, vspace});
  return it == peers_.end() ? 0 : it->second.applied_serial;
}

bool ReplicationAgent::TransferInFlight() const {
  for (const auto& [key, ps] : peers_) {
    if (ps.awaiting) {
      return true;
    }
  }
  return false;
}

void ReplicationAgent::HandleDigest(const NodeAddress& src, const JournalDigest& digest) {
  if (!config_.enabled || !running_) {
    return;
  }
  const bool replica_peer = IsReplicaPeer(digest.from);
  if (!topology_->IsNeighbor(digest.from) && !replica_peer) {
    metrics_->Increment("replication.non_neighbor_messages");
    return;
  }
  if (replica_peer) {
    // Direct proof of life for the per-vspace failure detector — and a
    // pardon, if this resolver had already written the sender off.
    replica_last_heard_[digest.from] = executor_->Now();
    vspaces_->NoteReplicaAlive(digest.from);
    if (dead_peer_spaces_.erase(digest.from) > 0 && flight_ != nullptr) {
      flight_->Record(executor_->Now(), FlightEventKind::kReplicaAlive,
                      FlightSeverity::kInfo, "digest-resumed", digest.from);
    }
  }
  metrics_->Increment("replication.digests_received");
  const size_t peers_before = peers_.size();
  for (const JournalDigest::Item& item : digest.items) {
    if (!vspaces_->Routes(item.vspace)) {
      continue;
    }
    PeerSpace& ps = peers_[{src, item.vspace}];
    if (item.serial == ps.applied_serial) {
      // Current: the digest is the liveness lease for everything we route
      // via this peer — the replacement for per-record re-announcement.
      if (!ps.awaiting) {
        RefreshReplicasVia(src, item.vspace);
      }
      continue;
    }
    if (ps.awaiting) {
      continue;  // one outstanding transfer per (peer, vspace)
    }
    if (item.serial > ps.applied_serial) {
      StartTransfer(src, item.vspace, ps, /*full=*/false);
    } else {
      // Serial regression: the peer restarted with a fresh journal. Our
      // cursor is meaningless — reset and take a snapshot.
      metrics_->Increment("replication.serial_regressions");
      ps.applied_serial = 0;
      StartTransfer(src, item.vspace, ps, /*full=*/true);
    }
  }
  if (peers_.size() != peers_before) {
    UpdatePeerGauges();
  }
}

void ReplicationAgent::StartTransfer(const NodeAddress& peer, const std::string& vspace,
                                     PeerSpace& ps, bool full) {
  if (full && flight_ != nullptr) {
    flight_->Record(executor_->Now(), FlightEventKind::kSnapshotFallback,
                    FlightSeverity::kWarning, "serial-reset", peer);
  }
  ps.awaiting = true;
  ps.full = full;
  ps.next_seq = 0;
  ps.retries = 0;
  ps.snapshot_seen.clear();
  ps.behind_since = executor_->Now();
  ps.deadline = executor_->Now() + config_.transfer_timeout;
  SendRequest(peer, vspace, ps);
}

void ReplicationAgent::SendRequest(const NodeAddress& peer, const std::string& vspace,
                                   const PeerSpace& ps) {
  JournalDeltaRequest req;
  req.from = self_;
  req.vspace = vspace;
  req.after_serial = ps.applied_serial;
  req.full = ps.full;
  metrics_->Increment("replication.delta_requests_sent");
  send_(peer, Envelope{MessageBody(std::move(req))});
}

uint32_t ReplicationAgent::RemainingLifetimeS(TimePoint expires) const {
  const TimePoint now = executor_->Now();
  if (expires <= now) {
    return 0;
  }
  return static_cast<uint32_t>((expires - now).count() / 1000000);
}

void ReplicationAgent::HandleDeltaRequest(const NodeAddress& src,
                                          const JournalDeltaRequest& req) {
  if (!config_.enabled || !running_) {
    return;
  }
  metrics_->Increment("replication.delta_requests_received");
  if (!vspaces_->Routes(req.vspace)) {
    // Delegated away since the digest; the requester's transfer times out
    // and the next digest round (without this vspace) clears the confusion.
    metrics_->Increment("replication.requests_unrouted_space");
    return;
  }
  ShardedNameTree& store = vspaces_->store();
  const NameJournal* journal = store.journal(req.vspace);

  bool snapshot = req.full || journal == nullptr;
  std::vector<JournalEntry> raw;
  if (!snapshot &&
      !journal->ReadSince(req.after_serial, std::numeric_limits<size_t>::max(), &raw)) {
    // The requester's cursor fell off the ring: history is gone, fall back
    // to the full snapshot transfer.
    raw.clear();
    snapshot = true;
  }

  std::vector<JournalDeltaResponse::Entry> entries;
  uint64_t to_serial = 0;
  if (snapshot) {
    metrics_->Increment("replication.snapshots_sent");
    to_serial = journal == nullptr ? 0 : journal->head_serial();
    if (const NameTree* tree = store.Tree(req.vspace)) {
      for (const NameRecord* rec : tree->AllRecords()) {
        if (!rec->route.IsLocal() && rec->route.next_hop_inr == src) {
          continue;  // split horizon: never hand records back to their source
        }
        JournalDeltaResponse::Entry e;
        e.op = static_cast<uint8_t>(JournalOp::kUpsert);
        e.name_text = tree->ExtractName(rec).ToString();
        e.announcer = rec->announcer;
        e.endpoint = rec->endpoint;
        e.app_metric = rec->app_metric;
        e.route_metric = rec->route.overlay_metric;
        e.lifetime_s = RemainingLifetimeS(rec->expires);
        e.version = rec->version;
        entries.push_back(std::move(e));
      }
    }
  } else {
    to_serial = raw.empty() ? journal->head_serial() : raw.back().serial;
    entries.reserve(raw.size());
    for (const JournalEntry& je : raw) {
      JournalDeltaResponse::Entry e;
      e.op = static_cast<uint8_t>(je.op);
      e.announcer = je.announcer;
      if (je.op == JournalOp::kUpsert) {
        e.name_text = je.name_text;
        e.endpoint = je.endpoint;
        e.app_metric = je.app_metric;
        e.route_metric = je.route_metric;
        e.version = je.version;
        // The captured expiry is stale the moment a soft-state refresh lands
        // (refreshes are not journaled); serve the CURRENT record's remaining
        // lifetime when it is still alive. A dead record keeps its captured
        // (lapsed) expiry — a later delete/expire entry in this same delta
        // removes it at the receiver anyway.
        std::optional<NameRecord> live = store.Find(req.vspace, je.announcer);
        e.lifetime_s = RemainingLifetimeS(live.has_value() ? live->expires : je.expires);
      }
      entries.push_back(std::move(e));
    }
    metrics_->Increment("replication.delta_entries_sent", entries.size());
  }
  SendChunked(src, req.vspace, snapshot, to_serial, std::move(entries));
}

void ReplicationAgent::SendChunked(const NodeAddress& peer, const std::string& vspace,
                                   bool snapshot, uint64_t to_serial,
                                   std::vector<JournalDeltaResponse::Entry> entries) {
  const size_t per_chunk = std::max<size_t>(1, config_.max_entries_per_response);
  uint32_t seq = 0;
  size_t i = 0;
  do {
    JournalDeltaResponse resp;
    resp.from = self_;
    resp.vspace = vspace;
    resp.snapshot = snapshot;
    resp.to_serial = to_serial;
    resp.seq = seq++;
    const size_t end = std::min(entries.size(), i + per_chunk);
    resp.entries.assign(std::make_move_iterator(entries.begin() + static_cast<long>(i)),
                        std::make_move_iterator(entries.begin() + static_cast<long>(end)));
    i = end;
    resp.last = i >= entries.size();
    send_(peer, Envelope{MessageBody(std::move(resp))});
  } while (i < entries.size());
}

void ReplicationAgent::HandleDeltaResponse(const NodeAddress& src,
                                           const JournalDeltaResponse& resp) {
  if (!config_.enabled || !running_) {
    return;
  }
  auto it = peers_.find({src, resp.vspace});
  if (it == peers_.end() || !it->second.awaiting) {
    metrics_->Increment("replication.unexpected_responses");
    return;  // duplicate, or a chunk of a transfer we already aborted
  }
  PeerSpace& ps = it->second;
  if (resp.seq != ps.next_seq) {
    // A chunk vanished (UDP): this transfer cannot complete. Leave it
    // awaiting; the retry tick re-requests the whole thing.
    metrics_->Increment("replication.chunk_gaps");
    return;
  }
  if (ps.next_seq == 0) {
    // The server decides delta-vs-snapshot (our cursor may have fallen off
    // its ring); adopt its choice on the first chunk.
    ps.full = resp.snapshot;
  } else if (resp.snapshot != ps.full) {
    metrics_->Increment("replication.chunk_gaps");
    return;  // interleaved chunks of two different transfers
  }

  std::vector<NameUpdateEntry> upserts;
  for (const JournalDeltaResponse::Entry& e : resp.entries) {
    const JournalOp op = static_cast<JournalOp>(e.op);
    if (op == JournalOp::kUpsert) {
      if (ps.full) {
        ps.snapshot_seen.insert(e.announcer);
      }
      NameUpdateEntry u;
      u.name_text = e.name_text;
      u.announcer = e.announcer;
      u.endpoint = e.endpoint;
      u.app_metric = e.app_metric;
      u.route_metric = e.route_metric;
      u.lifetime_s = e.lifetime_s;
      u.version = e.version;
      upserts.push_back(std::move(u));
    } else {
      // Tombstone: only meaningful for state we route via the sender — a
      // record reached over another path (or our own local one) has its own
      // journal feed and must not be killed by this peer's history. The one
      // exception is an EXPIRY tombstone hitting a record orphaned on a dead
      // replica: its own feed is gone, so a surviving peer's proof that the
      // announcer lapsed is the only death notice it will ever get (the pair
      // of the orphan lease in RefreshReplicasVia). A kDelete stays strictly
      // by-sender — it records a route purge at the sender, not an announcer
      // death, and must never unwind another node's retention.
      std::optional<NameRecord> rec = vspaces_->store().Find(resp.vspace, e.announcer);
      if (rec.has_value() && !rec->route.IsLocal() &&
          (rec->route.next_hop_inr == src ||
           (op == JournalOp::kExpire &&
            vspaces_->IsDeadReplica(rec->route.next_hop_inr)))) {
        if (vspaces_->store().Remove(resp.vspace, e.announcer)) {
          INS_LOG(kDebug) << "replication: " << self_.ToString() << " applied tombstone "
                          << e.announcer.ToString() << " in '" << resp.vspace
                          << "' from " << src.ToString();
          metrics_->Increment("replication.tombstones_applied");
        }
      }
    }
  }
  if (!upserts.empty()) {
    // The delta rides the same distance-vector acceptance rules as a
    // NameUpdate (local wins, better path adopted, echoes ignored) and
    // triggers onward propagation, so repair crosses the overlay hop by hop.
    const size_t applied = discovery_->ApplyReplicatedEntries(src, resp.vspace, upserts);
    metrics_->Increment("replication.delta_entries_applied", applied);
  }
  ps.next_seq++;
  if (!resp.last) {
    ps.deadline = executor_->Now() + config_.transfer_timeout;  // progress
    return;
  }

  if (ps.full) {
    metrics_->Increment("replication.snapshots_applied");
    PurgeUnseenVia(src, resp.vspace, ps.snapshot_seen);
  }
  ps.applied_serial = resp.to_serial;
  metrics_->RecordDuration("replication.catchup_us", executor_->Now() - ps.behind_since);
  AbortTransfer(ps);  // transfer done: reset the state machine
  // The records untouched by this transfer still hold their old leases; the
  // digest that triggered the transfer could not refresh them (we were
  // behind), so re-arm now that we are current.
  RefreshReplicasVia(src, resp.vspace);
}

void ReplicationAgent::RefreshReplicasVia(const NodeAddress& peer, const std::string& vspace) {
  ShardedNameTree& store = vspaces_->store();
  std::vector<AnnouncerId> via;
  std::vector<AnnouncerId> orphans;
  if (const NameTree* tree = store.Tree(vspace)) {
    for (const NameRecord* rec : tree->AllRecords()) {
      if (rec->route.IsLocal()) {
        continue;
      }
      if (rec->route.next_hop_inr == peer) {
        via.push_back(rec->announcer);
      } else if (vspaces_->IsDeadReplica(rec->route.next_hop_inr)) {
        // Orphan: the route points at a replica currently believed dead, so
        // no digest will ever renew it by route. The survivors collectively
        // keep the dead member's names alive (that is the retention
        // contract), so any live peer's proof-of-quiescence extends the
        // lease too. Renewal stops the moment the next hop is pardoned —
        // then the normal by-route lease (or expiry) takes over.
        orphans.push_back(rec->announcer);
      }
    }
  }
  const TimePoint lease = executor_->Now() + Seconds(config_.replica_lifetime_s);
  for (const AnnouncerId& id : via) {
    store.RefreshExpiry(vspace, id, lease);
  }
  for (const AnnouncerId& id : orphans) {
    store.RefreshExpiry(vspace, id, lease);
  }
  if (!via.empty()) {
    metrics_->Increment("replication.leases_renewed", via.size());
  }
  if (!orphans.empty()) {
    metrics_->Increment("replica.orphan_leases_renewed", orphans.size());
  }
}

void ReplicationAgent::PurgeUnseenVia(const NodeAddress& peer, const std::string& vspace,
                                      const std::set<AnnouncerId>& seen) {
  ShardedNameTree& store = vspaces_->store();
  std::vector<AnnouncerId> stale;
  if (const NameTree* tree = store.Tree(vspace)) {
    for (const NameRecord* rec : tree->AllRecords()) {
      if (!rec->route.IsLocal() && rec->route.next_hop_inr == peer &&
          seen.count(rec->announcer) == 0) {
        stale.push_back(rec->announcer);
      }
    }
  }
  for (const AnnouncerId& id : stale) {
    // Remove() journals a delete, so the purge propagates to OUR neighbors
    // on their next digest round — snapshot repair crosses the overlay too.
    if (store.Remove(vspace, id)) {
      INS_LOG(kDebug) << "replication: " << self_.ToString() << " snapshot-purged "
                      << id.ToString() << " in '" << vspace << "' (unseen via "
                      << peer.ToString() << ")";
      metrics_->Increment("replication.snapshot_purged");
    }
  }
}

}  // namespace ins
