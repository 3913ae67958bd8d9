// The name-discovery protocol (paper §2.2).
//
// Services advertise their names periodically to an attached INR; INRs
// disseminate names to neighbor resolvers with periodic full updates plus
// triggered (delta) updates when something new or different arrives. Name
// state is soft: every record carries a lifetime and is swept when it is not
// refreshed, so services never de-register and resolver/service failures
// heal automatically.
//
// Route metrics accumulate hop by hop (receiver adds the link metric of the
// sending neighbor: the distributed Bellman-Ford computation of §2.2), with
// split horizon — a record is never advertised back to the neighbor it was
// learned from. The AnnouncerID distinguishes identical names from distinct
// applications, exactly as the paper prescribes.

#ifndef INS_INR_NAME_DISCOVERY_H_
#define INS_INR_NAME_DISCOVERY_H_

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "ins/common/executor.h"
#include "ins/common/metrics.h"
#include "ins/inr/vspace.h"
#include "ins/overlay/topology.h"
#include "ins/wire/messages.h"

namespace ins {

struct DiscoveryConfig {
  // The paper's experiments use a 15-second refresh interval (Figure 8).
  Duration update_interval = Seconds(15);
  bool triggered_updates = true;
};

class NameDiscovery {
 public:
  NameDiscovery(Executor* executor, SendFn send, NodeAddress self, VspaceManager* vspaces,
                TopologyManager* topology, MetricsRegistry* metrics, DiscoveryConfig config);
  ~NameDiscovery();

  void Start();
  void Stop();

  // A service/client advertisement arrived (possibly forwarded by another
  // INR when this one owns the target vspace).
  void HandleAdvertisement(const NodeAddress& src, const Advertisement& ad);

  // A batch update from a neighbor resolver.
  void HandleNameUpdate(const NodeAddress& src, const NameUpdate& update);

  // Applies journal-replicated upserts from `src` (inr/replication.h) through
  // the same distance-vector acceptance rules as HandleNameUpdate, including
  // onward triggered propagation, so a delta repair crosses the overlay hop
  // by hop. Returns how many entries changed local state.
  size_t ApplyReplicatedEntries(const NodeAddress& src, const std::string& vspace,
                                const std::vector<NameUpdateEntry>& entries);

  // With replication enabled the periodic O(names) full re-announcement is
  // redundant — journal digests carry liveness and deltas carry changes — so
  // the ReplicationAgent suppresses it. The tick keeps rescheduling (cheap),
  // triggered updates and expiry sweeps are untouched, and flipping this back
  // off restores the seed behavior on the next tick.
  void SetPeriodicSuppressed(bool suppressed) { periodic_suppressed_ = suppressed; }

  // Pushes full state for every routed space to one neighbor (called when a
  // neighbor comes up) or for one space to any address (vspace delegation).
  void SendFullStateTo(const NodeAddress& peer);
  void SendVspaceStateTo(const NodeAddress& peer, const std::string& vspace);

  // Drops every non-local route whose next hop is `next_hop` (called when an
  // overlay link dies). Waiting for soft-state expiry would black-hole
  // traffic for up to a lifetime; purged names re-converge from surviving
  // links or the origin's next advertisement. Vspaces in `keep_vspaces` are
  // spared: a dead REPLICA peer's records must survive on this resolver —
  // retaining and serving them is what makes the replica set highly
  // available (they stay lease-bound and expire if nobody re-announces).
  void PurgeRoutesVia(const NodeAddress& next_hop,
                      const std::set<std::string>& keep_vspaces = {});

  // Observer hook: fired when a previously unknown name is grafted.
  std::function<void(const std::string& vspace, const NameSpecifier& name,
                     const NameRecord& record)>
      on_name_discovered;

 private:
  void PeriodicTick();
  void ExpiryTick();
  // Publishes the store's posting-index counters as the index.* metric
  // family (gauges: the index owns the counters; metrics mirror them).
  void PublishIndexMetrics();
  NameUpdateEntry EntryFromRecord(const NameTree& tree, const NameRecord* rec) const;
  NameUpdateEntry EntryFromRecord(const NameSpecifier& name, const NameRecord& rec) const;
  void PropagateTriggered(const std::string& vspace, std::vector<NameUpdateEntry> entries,
                          const NodeAddress& except);
  void SendUpdates(const NodeAddress& peer, const std::string& vspace,
                   std::vector<NameUpdateEntry> entries, bool triggered);
  // Applies one remote entry against the sharded store; returns the entry to
  // propagate if it changed state, or nullopt.
  std::optional<NameUpdateEntry> ApplyRemoteEntry(const NodeAddress& src,
                                                  const std::string& vspace,
                                                  const NameUpdateEntry& entry);

  Executor* executor_;
  SendFn send_;
  NodeAddress self_;
  VspaceManager* vspaces_;
  TopologyManager* topology_;
  MetricsRegistry* metrics_;
  DiscoveryConfig config_;

  TaskId periodic_task_ = kInvalidTaskId;
  TaskId expiry_task_ = kInvalidTaskId;
  bool periodic_suppressed_ = false;
};

}  // namespace ins

#endif  // INS_INR_NAME_DISCOVERY_H_
