// Control-plane message formats.
//
// Every datagram in the system is one Envelope: a u8 message type followed by
// the message body. Data packets (wire/packet.h) travel inside kData
// envelopes; everything else is control plane: service advertisements,
// INR-to-INR name updates (the name-discovery routing protocol), client
// discovery and early-binding requests, INR-pings, peering, and the Domain
// Space Resolver (DSR) protocol.

#ifndef INS_WIRE_MESSAGES_H_
#define INS_WIRE_MESSAGES_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "ins/common/bytes.h"
#include "ins/common/metrics.h"
#include "ins/common/node_address.h"
#include "ins/common/status.h"
#include "ins/nametree/name_record.h"
#include "ins/wire/packet.h"

namespace ins {

enum class MessageType : uint8_t {
  kData = 1,                  // Packet (application payload with names)
  kAdvertisement = 2,         // service/client -> INR
  kNameUpdate = 3,            // INR -> INR (periodic or triggered)
  kDiscoveryRequest = 4,      // client -> INR
  kDiscoveryResponse = 5,     // INR -> client
  kEarlyBindingResponse = 6,  // INR -> client (request is a kData with B set)
  kPing = 7,                  // INR-ping for RTT estimation / liveness
  kPong = 8,
  kPeerRequest = 9,           // spanning-tree neighbor establishment
  kPeerAccept = 10,
  kPeerClose = 11,
  kDsrRegister = 12,          // INR -> DSR (soft state, periodic)
  kDsrListRequest = 13,       // anyone -> DSR: active INRs
  kDsrListResponse = 14,
  kDsrVspaceRequest = 15,     // INR/client -> DSR: who routes this vspace?
  kDsrVspaceResponse = 16,
  kDsrCandidatesRequest = 17,  // INR -> DSR: nodes available for spawning
  kDsrCandidatesResponse = 18,
  kSpawnRequest = 19,  // INR -> candidate node: start a resolver
  kDelegateVspace = 20,  // INR -> INR: take over routing this vspace
  kDsrAssignmentsRequest = 21,   // restarted INR -> DSR: which vspaces did I route?
  kDsrAssignmentsResponse = 22,
  kPeerKeepalive = 23,  // INR -> neighbor INR: I still consider us peered
  // 24 and 25 are retired (the full-snapshot metrics poll): never sent, and
  // rejected at decode like an unknown type.
  kJournalDigest = 26,        // INR -> neighbor INR: my per-vspace serials
  kJournalDeltaRequest = 27,  // behind INR -> neighbor: send me the changes
  kJournalDeltaResponse = 28,  // delta stream or full-snapshot chunk
  kDsrReplicaSetRequest = 29,   // INR -> DSR: who replicates this vspace?
  kDsrReplicaSetResponse = 30,  // replica set in join order + spare candidates
  kReplicaInvite = 31,  // primary INR -> INR: join this vspace's replica set
  kDsrDeadInrReport = 32,  // replica INR -> DSR: member stopped digesting
  kMetricsDeltaRequest = 33,   // netmon -> INR: changes since sample seq S
  kMetricsDeltaResponse = 34,  // INR -> netmon: changed slots only, or full
};

// --- Service advertisement (client/service -> its INR) ---------------------

struct Advertisement {
  std::string vspace;       // "" = the default space
  std::string name_text;    // wire text of the advertised name-specifier
  AnnouncerId announcer;
  EndpointInfo endpoint;    // where the service listens
  double app_metric = 0.0;  // intentional-anycast metric (lower = better)
  uint32_t lifetime_s = 0;  // soft-state lifetime
  uint64_t version = 0;     // monotonic per announcer
};

// --- INR-to-INR name update (the name-discovery protocol, §2.2) ------------

// One entry of a (possibly batched) update. Carries everything §2.2 lists:
// addresses and [port, transport] pairs, the application metric, the
// advertiser's AnnouncerID, and the sender's route metric to the destination
// (the receiver adds the sender link's metric: distributed Bellman-Ford).
struct NameUpdateEntry {
  std::string name_text;
  AnnouncerId announcer;
  EndpointInfo endpoint;
  double app_metric = 0.0;
  double route_metric = 0.0;  // sender's distance to the destination
  uint32_t lifetime_s = 0;
  uint64_t version = 0;
};

struct NameUpdate {
  std::string vspace;
  bool triggered = false;  // true for triggered (delta) updates
  std::vector<NameUpdateEntry> entries;
};

// --- Client discovery (§2.2 "Discovering names") ----------------------------

struct DiscoveryRequest {
  uint64_t request_id = 0;
  std::string vspace;
  std::string filter_text;  // empty = all known names
  // Where the response should go. Set by the requesting client; preserved
  // when an INR forwards the request to the resolver owning the vspace.
  NodeAddress reply_to;
};

struct DiscoveryResponse {
  uint64_t request_id = 0;
  std::string vspace;
  // Matching names with their anycast metrics; enough for a client to render
  // (Floorplan) or choose and early-bind.
  struct Item {
    std::string name_text;
    EndpointInfo endpoint;
    double app_metric = 0.0;
  };
  std::vector<Item> items;
};

// --- Early binding response (§2, DNS-like interface) ------------------------

struct EarlyBindingResponse {
  uint64_t request_id = 0;  // echoed from the requesting packet's payload
  struct Item {
    EndpointInfo endpoint;
    double app_metric = 0.0;
  };
  std::vector<Item> items;  // client picks, e.g., the least metric
};

// --- INR-ping ---------------------------------------------------------------

struct Ping {
  uint64_t nonce = 0;
  uint64_t send_time_us = 0;  // echoed in the pong; sender computes RTT
};

struct Pong {
  uint64_t nonce = 0;
  uint64_t echo_send_time_us = 0;
};

// --- Peering (spanning-tree overlay, §2.4) ----------------------------------

struct PeerRequest {
  NodeAddress requester;
};

struct PeerAccept {
  NodeAddress accepter;
};

struct PeerClose {
  NodeAddress closer;
};

// --- DSR protocol ------------------------------------------------------------

struct DsrRegister {
  NodeAddress inr;
  bool active = true;  // false: registering as a spawn candidate only
  std::vector<std::string> vspaces;  // spaces this INR routes
  uint32_t lifetime_s = 0;
};

struct DsrListRequest {
  uint64_t request_id = 0;
};

struct DsrListResponse {
  uint64_t request_id = 0;
  std::vector<NodeAddress> active_inrs;  // in join (linear) order
  // Parallel to active_inrs: the DSR's monotonic join order of each entry.
  // An INR whose own order changed between two responses knows its soft-state
  // registration lapsed (it expired and re-registered), i.e. that ordering
  // relationships its overlay edges were built on may no longer hold.
  std::vector<uint64_t> join_orders;
};

struct DsrVspaceRequest {
  uint64_t request_id = 0;
  std::string vspace;
};

struct DsrVspaceResponse {
  uint64_t request_id = 0;
  std::string vspace;
  NodeAddress inr;  // invalid when nobody routes the space
};

struct DsrCandidatesRequest {
  uint64_t request_id = 0;
};

struct DsrCandidatesResponse {
  uint64_t request_id = 0;
  std::vector<NodeAddress> candidates;
};

// A crashed-then-restarted INR lost its in-memory vspace assignments, but the
// DSR still holds its soft-state registration until the lifetime lapses. The
// restarted resolver asks for that registration back so it resumes routing the
// same spaces instead of rejoining empty-handed and black-holing them until an
// operator re-assigns.
struct DsrAssignmentsRequest {
  uint64_t request_id = 0;
  NodeAddress inr;  // asking about this INR's registration (normally self)
};

struct DsrAssignmentsResponse {
  uint64_t request_id = 0;
  std::vector<std::string> vspaces;  // empty = registration already expired
};

// --- Load balancing ----------------------------------------------------------

struct SpawnRequest {
  NodeAddress requester;
  std::vector<std::string> vspaces;  // spaces the new INR should route
};

struct DelegateVspace {
  NodeAddress from;
  std::string vspace;
};

// Unlike the anonymous liveness Pings, a keepalive ASSERTS the tree edge: a
// receiver that does not consider `from` a neighbor replies PeerClose, so a
// half-open edge heals. This is what lets the overlay survive an amnesiac
// reboot — a resolver restarting on its old address answers pings happily,
// and without this message its former neighbors would hold the stale edge
// forever.
struct PeerKeepalive {
  NodeAddress from;
};

// --- Journal replication (anti-entropy between neighbor INRs) ----------------

// Sent on keepalive cadence to every overlay neighbor: the head serial of
// every routed vspace's change journal. A receiver whose applied serial for
// (sender, vspace) is lower asks for a delta; an equal serial doubles as a
// liveness lease on every record learned from the sender (no per-record
// refresh needed); a HIGHER applied serial means the sender restarted with a
// fresh journal, and the receiver resynchronizes from scratch.
struct JournalDigest {
  NodeAddress from;
  struct Item {
    std::string vspace;
    uint64_t serial = 0;
  };
  std::vector<Item> items;
};

// "Send me every change after `after_serial`" — or, when `full` is set (the
// requester's serial fell off the sender's journal ring, or the sender's
// serial regressed), a full snapshot of the vspace.
struct JournalDeltaRequest {
  NodeAddress from;
  std::string vspace;
  uint64_t after_serial = 0;
  bool full = false;
};

// One chunk of a delta stream or snapshot transfer. Chunks of one transfer
// carry consecutive `seq` numbers and the same `to_serial`; the last chunk
// sets `last`. A requester seeing a seq gap aborts and re-requests (UDP
// transport: chunks can vanish). For snapshots, entries are all kUpsert and
// the receiver drops any record it learned from this peer that the snapshot
// does not mention (the AXFR replace-all semantics).
struct JournalDeltaResponse {
  NodeAddress from;
  std::string vspace;
  bool snapshot = false;
  uint64_t to_serial = 0;  // applied serial after the final chunk lands
  uint32_t seq = 0;
  bool last = true;
  struct Entry {
    uint8_t op = 0;  // JournalOp: 0 upsert, 1 delete, 2 expire
    std::string name_text;
    AnnouncerId announcer;
    EndpointInfo endpoint;
    double app_metric = 0.0;
    double route_metric = 0.0;  // sender's distance (Bellman-Ford input)
    uint32_t lifetime_s = 0;    // remaining soft-state lifetime at send time
    uint64_t version = 0;
  };
  std::vector<Entry> entries;
};

// --- Replica sets (vspace availability beyond one resolver) ------------------

// In replica mode (ReplicationConfig.replica_k >= 2) a vspace is served by a
// SET of resolvers instead of exactly one. The DSR derives the set from its
// soft-state registrations: every active INR routing the space, in join
// order, with the oldest registrant acting as the set's primary. The same
// request also returns spare candidates so the primary can top the set back
// up to k without a second round trip.
struct DsrReplicaSetRequest {
  uint64_t request_id = 0;
  std::string vspace;
};

struct DsrReplicaSetResponse {
  uint64_t request_id = 0;
  std::string vspace;
  // Live registrants routing the vspace, in join order (front = primary).
  // Members the DSR currently suspects dead (see DsrDeadInrReport) are
  // omitted while their registration proves nothing either way.
  std::vector<NodeAddress> replicas;
  // Active INRs NOT in `replicas`, in join order: invite material.
  std::vector<NodeAddress> candidates;
};

// The primary asks another resolver to join a vspace's replica set. The
// invitee starts routing the space (and thereby registers it with the DSR);
// the inviter follows up with a full vspace state transfer so the new member
// is warm before its first digest round.
struct ReplicaInvite {
  NodeAddress from;
  std::string vspace;
};

// A replica that stopped receiving digests from a set member reports the
// silence. The DSR does NOT erase the member's registration (the reporter
// may merely be partitioned from it): it marks the member suspect for a
// bounded interval, during which vspace resolution answers skip it. A
// registration refresh from the suspect clears the mark — proof of life
// beats one peer's suspicion.
struct DsrDeadInrReport {
  NodeAddress reporter;
  NodeAddress dead;
};

// --- Metrics polling (the paper's NetworkManagement service) -----------------

// "Send me what changed since your sample `since_seq`." The resolver keeps a
// ring of recent snapshots (common/timeseries.h), numbered by a sequence that
// is monotonic for one resolver incarnation. since_seq = 0 (a client that has
// no baseline yet) always gets a full snapshot. Classified as control traffic
// by admission (the monitor must see an overloaded resolver, not be shed by
// it).
struct MetricsDeltaRequest {
  uint64_t request_id = 0;
  NodeAddress reply_to;  // invalid = answer to the datagram source
  uint64_t since_seq = 0;
};

// The incremental answer. When `full` is false the item vectors carry ONLY
// the slots whose values changed between retained sample since_seq and now —
// the steady-state poll ships a handful of hot counters instead of the whole
// catalogue. When since_seq fell off the resolver's ring, or belongs to a
// previous incarnation (resolver restart: sequences start over from 1), the
// resolver answers with `full` set and the complete snapshot; the client
// replaces its view and re-bases on `seq`. Histograms travel as sparse
// non-empty log2 buckets plus the moments needed to re-quantile on the
// monitor side.
struct MetricsDeltaResponse {
  uint64_t request_id = 0;
  NodeAddress inr;         // who is answering
  uint64_t seq = 0;        // sequence of the snapshot this response represents
  uint64_t since_seq = 0;  // the baseline the delta was computed against (0 if full)
  bool full = false;

  struct CounterItem {
    std::string name;
    uint64_t value = 0;
  };
  struct GaugeItem {
    std::string name;
    int64_t value = 0;
  };
  struct HistogramItem {
    std::string name;
    uint64_t sum = 0;
    uint64_t min = 0;
    uint64_t max = 0;
    std::vector<std::pair<uint8_t, uint64_t>> buckets;  // (bucket index, count)
  };
  std::vector<CounterItem> counters;
  std::vector<GaugeItem> gauges;
  std::vector<HistogramItem> histograms;
};

// --- Envelope ----------------------------------------------------------------

// Holds the slot of a retired wire type N in MessageBody, so the surviving
// types keep their numbers. It cannot be constructed, so nothing encodes it,
// and DecodeMessage rejects type N like an unknown type.
template <uint8_t N>
struct Retired {
  Retired() = delete;
};

using MessageBody =
    std::variant<Packet, Advertisement, NameUpdate, DiscoveryRequest, DiscoveryResponse,
                 EarlyBindingResponse, Ping, Pong, PeerRequest, PeerAccept, PeerClose,
                 DsrRegister, DsrListRequest, DsrListResponse, DsrVspaceRequest,
                 DsrVspaceResponse, DsrCandidatesRequest, DsrCandidatesResponse,
                 SpawnRequest, DelegateVspace, DsrAssignmentsRequest, DsrAssignmentsResponse,
                 PeerKeepalive, Retired<24>, Retired<25>, JournalDigest,
                 JournalDeltaRequest, JournalDeltaResponse, DsrReplicaSetRequest,
                 DsrReplicaSetResponse, ReplicaInvite, DsrDeadInrReport,
                 MetricsDeltaRequest, MetricsDeltaResponse>;

struct Envelope {
  MessageBody body;

  MessageType type() const;
};

// FNV-1a over the type byte and body. EncodeMessage appends it as a trailing
// u32; DecodeMessage verifies it and rejects damaged datagrams before any
// field reaches protocol state (the integrity check UDP provides in the real
// deployment).
uint32_t EnvelopeChecksum(const uint8_t* data, size_t len);

Bytes EncodeMessage(const Envelope& e);
// Rejects a datagram that is too short, fails its checksum, names an unknown
// or retired type, runs out inside its body, or has bytes left after its body.
Result<Envelope> DecodeMessage(const Bytes& buffer);

// Convenience: wraps a body and encodes in one step.
template <typename T>
Bytes Encode(T body) {
  return EncodeMessage(Envelope{MessageBody(std::move(body))});
}

// Conversions between a registry snapshot and its wire form, shared by the
// resolver's metrics responder and the netmon poller. DurationStat timings
// are not shipped separately: RecordDuration mirrors them into same-named
// histograms, which carry strictly more information.

// Builds the incremental answer: only the slots of `now` that differ from
// `baseline` (new names count as changed). Histograms compare on recorded
// count — a histogram ships whenever it received any sample since the
// baseline, as its full cumulative form (bucket state is not diffable on the
// client without shipping all buckets anyway, and one histogram is small).
MetricsDeltaResponse BuildMetricsDelta(uint64_t request_id, const NodeAddress& inr,
                                       uint64_t seq, uint64_t since_seq,
                                       const MetricsSnapshot& baseline,
                                       const MetricsSnapshot& now);
// Full-snapshot fallback in the delta framing (`full` set).
MetricsDeltaResponse BuildMetricsFull(uint64_t request_id, const NodeAddress& inr,
                                      uint64_t seq, const MetricsSnapshot& now);
// Applies a delta (or full) response onto the client's view of the resolver.
void ApplyMetricsDelta(const MetricsDeltaResponse& resp, MetricsSnapshot& view);

}  // namespace ins

#endif  // INS_WIRE_MESSAGES_H_
