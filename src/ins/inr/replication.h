// Journaled delta replication with anti-entropy (the robustness layer on top
// of the soft-state name-discovery protocol).
//
// Every resolver keeps a per-vspace change journal (nametree/journal.h). The
// ReplicationAgent exchanges (vspace, serial) digests with overlay neighbors
// on keepalive cadence and repairs divergence with O(changes) transfers:
//
//   * digest equal     -> the receiver's replica of the sender is current;
//                         the digest doubles as a liveness lease and the
//                         receiver re-arms the expiry of every record it
//                         routes via the sender (no per-record refresh).
//   * digest ahead     -> the receiver requests a delta stream
//                         (JournalDeltaRequest) and applies the journal
//                         entries through the normal distance-vector rules.
//   * serial fell off  -> the sender answers with a full snapshot transfer
//     the journal ring    (the AXFR fallback): replace-all semantics for
//                         records routed via the sender.
//   * serial regressed -> the sender restarted with a fresh journal; the
//                         receiver resets its cursor and takes a snapshot.
//
// Transfers are chunked over UDP with consecutive sequence numbers, a
// deadline, and bounded retries; a seq gap or timeout aborts the transfer
// and the next digest round restarts it. With replication enabled the
// periodic full re-announcement of NameDiscovery is suppressed — digests are
// O(vspaces) per keepalive instead of O(names) per refresh period, which is
// where the refresh-storm bytes go.
//
// Everything is feature-flagged: ReplicationConfig::enabled defaults to
// false and the seed soft-state path is untouched.

#ifndef INS_INR_REPLICATION_H_
#define INS_INR_REPLICATION_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ins/common/executor.h"
#include "ins/common/flight_recorder.h"
#include "ins/common/metrics.h"
#include "ins/inr/name_discovery.h"
#include "ins/inr/vspace.h"
#include "ins/overlay/topology.h"
#include "ins/wire/messages.h"

namespace ins {

struct ReplicationConfig {
  // Master switch. Off (the seed default): no journaling, no digests, the
  // soft-state refresh path is exactly the seed's.
  bool enabled = false;
  // Ring capacity of each per-vspace journal. A peer that falls further
  // behind than this takes a snapshot instead of a delta.
  size_t journal_capacity = 1024;
  // Anti-entropy cadence; aligned with the overlay keepalive interval so a
  // healed partition converges within one keepalive round.
  Duration digest_interval = Seconds(5);
  // A transfer request unanswered past its deadline is retried, up to this
  // many times, then aborted (the next digest round starts over).
  int max_transfer_retries = 3;

  // --- Replica sets (vspace availability) ------------------------------------
  // Target replica-set size per routed vspace. 1 (the seed default) keeps the
  // paper's one-INR-per-vspace model; >= 2 turns on replica mode: the
  // primary tops sets up via DSR candidates + ReplicaInvite, digests also
  // flow to (possibly non-neighbor) set members, and digest silence drives
  // per-vspace failover.
  int replica_k = 1;
  // A set member silent for this many digest intervals is declared dead:
  // routes steer away from it, the DSR is told (DsrDeadInrReport), and its
  // records are retained — not purged — so the survivors keep serving them.
  int replica_missed_digests = 2;
  // TTL of the forwarder-side replica-set cache in replica mode (the seed
  // caches the single owner forever). Bounds how long a forwarder keeps
  // tunneling toward a dead primary before re-asking the DSR.
  Duration owner_cache_ttl = Seconds(5);
};

class ReplicationAgent {
 public:
  ReplicationAgent(Executor* executor, SendFn send, NodeAddress self, NodeAddress dsr,
                   VspaceManager* vspaces, TopologyManager* topology,
                   NameDiscovery* discovery, MetricsRegistry* metrics,
                   ReplicationConfig config);
  ~ReplicationAgent();

  void Start();
  void Stop();

  void HandleDigest(const NodeAddress& src, const JournalDigest& digest);
  void HandleDeltaRequest(const NodeAddress& src, const JournalDeltaRequest& req);
  void HandleDeltaResponse(const NodeAddress& src, const JournalDeltaResponse& resp);

  // When set, replica deaths/pardons and snapshot fallbacks land in the
  // node's flight recorder.
  void AttachFlightRecorder(FlightRecorder* flight) { flight_ = flight; }

  // Drops every per-(peer, vspace) cursor for `peer` (overlay edge died).
  // The state its records carried is purged by NameDiscovery::PurgeRoutesVia;
  // when the edge re-forms, the zeroed cursor forces a full resync. The
  // replication.peers / replication.peer_spaces gauges drop with the cursors
  // — eagerly, not on the next digest cadence.
  void ForgetPeer(const NodeAddress& peer);

  // --- Replica mode (config.enabled && replica_k >= 2) -----------------------

  bool replica_mode() const { return config_.enabled && config_.replica_k >= 2; }

  // Current DSR view of `vspace`'s replica set (from the periodic
  // DsrReplicaSetResponse). Non-self members become replica peers: digests
  // flow to them even when they are not overlay neighbors, and their digest
  // silence is this resolver's per-vspace failure detector.
  void NoteReplicaSet(const std::string& vspace, const std::vector<NodeAddress>& members);

  // This resolver stopped routing `vspace` (delegated it away, or
  // relinquished an invite-joined space whose set healed full without us):
  // drop the membership view and the failure-detector state it anchored, so
  // the ex-members are no longer digested or declared dead from here.
  void DropSpace(const std::string& vspace);

  // True when `addr` is a member of any routed vspace's replica set. Replica
  // peers exchange digests without being overlay neighbors, so tree-edge
  // bookkeeping (PeerClose on unknown senders) must not apply to them.
  bool IsReplicaPeer(const NodeAddress& addr) const;

  // Overlay keepalive failure for `peer`. Returns the vspaces whose records
  // via `peer` must be RETAINED (the vspaces `peer` co-replicated with us:
  // the survivors keep serving its names — that is the whole point of the
  // replica set); the caller purges only routes outside the returned set.
  // Also runs the standard death handling (dead report, route steering).
  std::set<std::string> NotePeerDown(const NodeAddress& peer);

  // The journal serial of `peer`'s `vspace` this resolver has fully applied.
  uint64_t AppliedSerial(const NodeAddress& peer, const std::string& vspace) const;
  // True while any (peer, vspace) transfer is awaiting chunks.
  bool TransferInFlight() const;

  const ReplicationConfig& config() const { return config_; }

 private:
  struct PeerSpace {
    uint64_t applied_serial = 0;
    // Transfer state machine (one outstanding transfer per (peer, vspace)).
    bool awaiting = false;
    bool full = false;  // requested (or fell back to) a snapshot
    uint32_t next_seq = 0;
    TimePoint deadline{0};
    int retries = 0;
    TimePoint behind_since{0};  // for the catch-up latency histogram
    // Announcers named by the snapshot chunks so far; on the last chunk,
    // records via the peer that are NOT in here are purged (replace-all).
    std::set<AnnouncerId> snapshot_seen;
  };

  void DigestTick();
  void RetryTick();
  void SendDigests();
  // Declares dead every replica peer silent past replica_missed_digests
  // digest intervals.
  void CheckReplicaLiveness();
  // Drops `peer` from every set, steers routes away, reports to the DSR.
  void DeclareReplicaDead(const NodeAddress& peer);
  void UpdatePeerGauges();
  void StartTransfer(const NodeAddress& peer, const std::string& vspace, PeerSpace& ps,
                     bool full);
  void SendRequest(const NodeAddress& peer, const std::string& vspace, const PeerSpace& ps);
  void AbortTransfer(PeerSpace& ps);
  // Sends `entries` to `peer` as a chunked transfer with consecutive seqs.
  void SendChunked(const NodeAddress& peer, const std::string& vspace, bool snapshot,
                   uint64_t to_serial, std::vector<JournalDeltaResponse::Entry> entries);
  // Re-arms the soft-state expiry of every record routed via `peer` in
  // `vspace` to now + the replica lifetime (the digest liveness lease).
  void RefreshReplicasVia(const NodeAddress& peer, const std::string& vspace);
  // Snapshot replace-all: removes records routed via `peer` whose announcer
  // the snapshot did not mention.
  void PurgeUnseenVia(const NodeAddress& peer, const std::string& vspace,
                      const std::set<AnnouncerId>& seen);
  uint32_t RemainingLifetimeS(TimePoint expires) const;

  Executor* executor_;
  SendFn send_;
  NodeAddress self_;
  NodeAddress dsr_;
  VspaceManager* vspaces_;
  TopologyManager* topology_;
  NameDiscovery* discovery_;
  MetricsRegistry* metrics_;
  FlightRecorder* flight_ = nullptr;
  ReplicationConfig config_;

  bool running_ = false;
  TaskId digest_task_ = kInvalidTaskId;
  TaskId retry_task_ = kInvalidTaskId;
  std::map<std::pair<NodeAddress, std::string>, PeerSpace> peers_;

  // Replica mode: per routed vspace, the non-self set members (DSR join
  // order), and per member the last time a digest proved it alive (seeded
  // with the membership-learn time so a member that never digests at all
  // still trips the detector).
  std::map<std::string, std::vector<NodeAddress>> replica_members_;
  std::map<NodeAddress, TimePoint> replica_last_heard_;
  // Spaces a declared-dead peer co-replicated, remembered past its removal
  // from replica_members_: the overlay keepalive detector fires long after
  // the digest detector, and its purge must still spare these. Cleared when
  // the peer digests again (it came back).
  std::map<NodeAddress, std::set<std::string>> dead_peer_spaces_;
};

}  // namespace ins

#endif  // INS_INR_REPLICATION_H_
