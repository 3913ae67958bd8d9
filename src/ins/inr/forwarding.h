// The forwarding agent: late binding of intentional names (paper §2, §2.3).
//
// Every data packet is resolved against the name-tree at message delivery
// time, so clients keep communicating with the right end-nodes even as
// name-to-address mappings change mid-session:
//
//  * early binding (B=1): the resolver answers with the matching network
//    locations and metrics — the DNS-like interface;
//  * intentional anycast (D=any): the packet is tunneled to exactly one
//    matching destination, the one with the least application-advertised
//    metric;
//  * intentional multicast (D=all): the packet is forwarded along the
//    overlay to every matching destination (one copy per next-hop INR,
//    direct delivery to locally attached ones).
//
// Packets for a virtual space this resolver does not route are tunneled to
// the owning resolver (DSR-resolved, cached). A hop limit bounds overlay
// traversal; the packet cache implements the §3.2 caching extension.

#ifndef INS_INR_FORWARDING_H_
#define INS_INR_FORWARDING_H_

#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ins/common/executor.h"
#include "ins/common/metrics.h"
#include "ins/common/trace.h"
#include "ins/inr/packet_cache.h"
#include "ins/inr/vspace.h"
#include "ins/overlay/topology.h"
#include "ins/wire/messages.h"
#include "ins/wire/name_decoder.h"

namespace ins {

// Deadline charge per overlay hop, in milliseconds. The simulated overlay
// links are fast relative to queueing, so the hop cost is the 1ms floor; what
// actually consumes budgets under load is the admission controller charging
// time spent queued.
inline constexpr uint32_t kHopDeadlineCostMs = 1;

// Every drop the forwarder (or the admission controller in front of it) takes
// is accounted as forwarding.drop.<reason>, so
// MetricsRegistry::FamilyTotal("forwarding.drop.") is the complete drop count
// without the caller enumerating reasons. The reasons are a closed enum: each
// one increments its counter AND records a kDropped trace event with the same
// suffix as its detail, which is what lets the harness explain a lost packet.
// Adding a drop site means adding an enumerator here (trace_test fails on a
// forwarding.drop.* counter whose suffix is not in this list).
enum class ForwardingDropReason : size_t {
  kHopLimit = 0,
  kDeadline,
  kBadDestination,
  kNoMatch,
  kVspaceUnresolved,
  kShedClass0,
  kShedClass1,
  kShedClass2,
};

inline constexpr const char* kForwardingDropReasonNames[] = {
    "hop_limit",         "deadline",    "bad_destination", "no_match",
    "vspace_unresolved", "shed_class0", "shed_class1",     "shed_class2",
};
inline constexpr size_t kForwardingDropReasonCount =
    sizeof(kForwardingDropReasonNames) / sizeof(kForwardingDropReasonNames[0]);

constexpr const char* ForwardingDropReasonName(ForwardingDropReason reason) {
  return kForwardingDropReasonNames[static_cast<size_t>(reason)];
}

// Early-binding requests carry their request id and reply-to address at the
// head of the packet payload, so any resolver along the path can answer
// directly to the requester. Helpers shared with the client library:
Bytes EncodeEarlyBindingPayload(uint64_t request_id, const NodeAddress& reply_to);
Result<std::pair<uint64_t, NodeAddress>> DecodeEarlyBindingPayload(const Bytes& payload);

class ForwardingAgent {
 public:
  // `trace` may be null (standalone tests): sampled packets then still
  // forward normally, they just leave no events behind.
  ForwardingAgent(Executor* executor, SendFn send, NodeAddress self, VspaceManager* vspaces,
                  TopologyManager* topology, PacketCache* cache, MetricsRegistry* metrics,
                  TraceRing* trace = nullptr);

  // Entry point for every kData envelope this resolver receives; `src` is
  // the datagram source (a client or a neighbor INR).
  void HandleData(const NodeAddress& src, const Packet& packet);

  // Accounts one dropped packet: counter plus (for sampled packets) the
  // kDropped trace event. Public because the drop family spans layers — the
  // INR's dispatch path charges queueing time against deadlines and drops
  // here too.
  void NoteDrop(const Packet& packet, ForwardingDropReason reason);

 private:
  // One lookup's reduction, filled inside the store's match callback and
  // acted on after it returns. Only the fields the packet's delivery mode
  // needs are filled.
  struct Resolution {
    size_t matches = 0;
    EarlyBindingResponse answer;      // early binding: all matches, announcer order
    std::optional<NameRecord> best;   // anycast: least metric, announcer tie-break
    std::vector<NameRecord> locals;   // multicast: locally attached matches
    std::set<NodeAddress> next_hops;  // multicast: split-horizon-filtered hops
    size_t rescued = 0;               // routed via a dead replica, served directly
  };

  // `dst` is the packet's destination name, decoded exactly once per packet
  // in HandleData (via the memoizing wire decoder) and threaded through.
  void ResolveAndForward(const NodeAddress& src, const Packet& packet,
                         const NameSpecifier& dst);
  void ForwardToVspaceOwner(const Packet& packet, const std::string& vspace);
  void HandleEarlyBinding(const NodeAddress& src, const Packet& packet,
                          EarlyBindingResponse answer);
  void HandleAnycast(const Packet& packet, const NameRecord& best);
  void HandleMulticast(const Packet& packet, const Resolution& res);
  void DeliverLocal(const Packet& packet, const NameRecord& record);
  void ForwardToInr(const Packet& packet, const NodeAddress& next_hop);
  bool TryAnswerFromCache(const Packet& packet, const NameSpecifier& dst);
  void MaybeCache(const Packet& packet);

  // Records a trace event for a sampled packet; no-op (one branch) otherwise.
  void Trace(const Packet& packet, TraceEventKind kind, const char* detail = "",
             NodeAddress peer = {}, uint64_t value = 0);

  Executor* executor_;
  SendFn send_;
  NodeAddress self_;
  VspaceManager* vspaces_;
  TopologyManager* topology_;
  PacketCache* cache_;
  MetricsRegistry* metrics_;
  TraceRing* trace_;

  // Pre-registered handles: the per-packet counters are plain pointer adds,
  // not string-map lookups (the last string work on the data path after the
  // interning of the resolver hot path).
  CounterHandle packets_;
  CounterHandle lookups_;
  CounterHandle anycasts_;
  CounterHandle multicasts_;
  CounterHandle early_bindings_;
  CounterHandle local_deliveries_;
  CounterHandle tunneled_;
  CounterHandle cross_vspace_;
  CounterHandle cache_answers_;
  CounterHandle cache_inserts_;
  CounterHandle dead_replica_reroutes_;
  CounterHandle drops_[kForwardingDropReasonCount];
  // Wall-clock time of the name-tree resolution step, in microseconds (the
  // simulator's virtual clock does not advance inside a lookup).
  HistogramHandle lookup_us_;
  // Protocol-thread-only memo of recent wire-text parses: a forwarding path
  // sees the same destination text per packet, hop after hop.
  NameDecoder decoder_;
};

}  // namespace ins

#endif  // INS_INR_FORWARDING_H_
