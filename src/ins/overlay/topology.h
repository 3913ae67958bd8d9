// Self-configuring spanning-tree overlay (paper §2.4).
//
// Join: a new INR registers with the DSR, fetches the active-INR list,
// INR-pings every active resolver that joined before it, and peers with the
// minimum-RTT one. The DSR hands every joiner the same list in linear join
// order, so each node after the first adds exactly one link: n nodes, n-1
// links, connected — a spanning tree by construction. Restricting parent
// candidates to earlier joiners keeps the construction cycle-free even when
// several nodes re-join concurrently after failures.
//
// Maintenance: neighbors exchange keepalive pings; a neighbor that misses
// several keepalives is declared down and dropped. If the lost neighbor was
// this node's parent (the peer it joined through), the node re-runs the join
// procedure, reconnecting the tree. Join and re-join retries use jittered
// exponential backoff (common/backoff.h) so a healed partition does not
// trigger a thundering herd of simultaneous re-joins.
//
// Split healing: a node that believes it is the tree root (joined, no
// parent) periodically re-fetches the active list; if a resolver earlier in
// join order exists — e.g. the other half of a healed partition — the root
// demotes itself and adopts a parent there, merging the two trees. The DSR's
// join orders are monotonic and never reused, so a node whose own order
// changed between responses knows its registration lapsed (it expired during
// a partition and re-registered); before such a node adds a *new* parent
// edge it first closes its existing edges, because ordering relationships
// those edges were built on may be stale (a former descendant may now order
// earlier, and adopting it over a fresh edge would close a cycle).

#ifndef INS_OVERLAY_TOPOLOGY_H_
#define INS_OVERLAY_TOPOLOGY_H_

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ins/common/backoff.h"
#include "ins/common/executor.h"
#include "ins/common/flight_recorder.h"
#include "ins/common/metrics.h"
#include "ins/common/node_address.h"
#include "ins/common/rng.h"
#include "ins/overlay/ping.h"
#include "ins/wire/messages.h"

namespace ins {

struct TopologyConfig {
  NodeAddress dsr;
  Duration keepalive_interval = Seconds(5);
  Duration dsr_refresh_interval = Seconds(20);
  uint32_t dsr_lifetime_s = 60;
  // Join / re-join retry pacing while not joined.
  BackoffConfig join_backoff{Milliseconds(1000), Seconds(30), 2.0, 0.3};
  // Salt mixed with the node address to seed per-node deterministic jitter.
  uint64_t rng_salt = 0;
};

class TopologyManager {
 public:
  struct Neighbor {
    NodeAddress address;
    TimePoint last_heard{0};
    bool is_parent = false;  // the peer this node joined through
  };

  // `send` transmits envelopes from the owning node; `ping_agent` is shared
  // with the owning Inr (which routes kPong messages to it).
  TopologyManager(Executor* executor, PingAgent* ping_agent, SendFn send,
                  NodeAddress self, TopologyConfig config, MetricsRegistry* metrics);
  ~TopologyManager();

  // Begins the join procedure; `vspaces` go into the DSR registration.
  void Start(std::vector<std::string> vspaces);
  // Graceful leave: PeerClose to all neighbors, stop timers.
  void Stop();
  // Failure injection: stop timers and forget neighbors without telling
  // anyone (the node vanished).
  void CrashStop();

  // Updates the advertised vspace set (load-balancer delegation).
  void SetVspaces(std::vector<std::string> vspaces);

  // Dispatcher wire-in.
  // Any datagram from a current neighbor proves it is alive; the owning node
  // calls this for pings/pongs so keepalive death detection stays symmetric
  // (a one-sided view would otherwise never correct itself).
  void NoteNeighborAlive(const NodeAddress& src);
  // Called when a tree-edge-scoped message (a NameUpdate) arrives from
  // `src`. A non-neighbor sender — unless it is the parent we are mid-
  // handshake with — believes an edge exists that we do not: a half-open
  // edge, left by a PeerClose or keepalive verdict it never saw (e.g. lost
  // to a partition). Replies PeerClose so the sender re-joins cleanly.
  void NoteTreeEdgeTraffic(const NodeAddress& src);
  void HandleDsrListResponse(const DsrListResponse& resp);
  void HandlePeerRequest(const NodeAddress& src, const PeerRequest& req);
  void HandlePeerAccept(const NodeAddress& src, const PeerAccept& acc);
  void HandlePeerClose(const NodeAddress& src, const PeerClose& close);

  // Neighbor set and link metrics.
  std::vector<NodeAddress> NeighborAddresses() const;
  bool IsNeighbor(const NodeAddress& addr) const { return neighbors_.count(addr) > 0; }
  double LinkMetricMs(const NodeAddress& neighbor) const {
    return ping_agent_->LinkMetricMs(neighbor);
  }
  std::optional<NodeAddress> parent() const;
  bool joined() const { return joined_; }

  // Fired when a neighbor is added/removed (name discovery uses these to
  // send full-state updates to new neighbors and purge routes via dead ones).
  std::function<void(const NodeAddress&)> on_neighbor_up;
  std::function<void(const NodeAddress&)> on_neighbor_down;

  // When set, overlay edge churn (edge up/down, parent loss) lands in the
  // node's flight recorder.
  void AttachFlightRecorder(FlightRecorder* flight) { flight_ = flight; }

 private:
  void RegisterWithDsr();
  void RequestActiveList();
  // Watchdog with three modes: while not joined it restarts the join
  // procedure on a backoff schedule (lost DSR responses, lost peer
  // handshakes, partitions); while joined as root it polls the DSR for an
  // earlier-joined resolver to merge under; while joined with a parent it
  // idles cheaply.
  void EnsureJoinedTick();
  void ScheduleWatchdog(Duration delay);
  // Records our join order from a list response; flags a lapse when the
  // order changed (our DSR registration expired and was re-created).
  void NoteSelfOrder(const DsrListResponse& resp);
  // The parent link died (crash, partition): re-run the join procedure.
  void OnParentLost();
  void StartJoinProbe(const DsrListResponse& resp);
  void AdoptParent(const NodeAddress& parent);
  void AddNeighbor(const NodeAddress& addr, bool is_parent);
  void RemoveNeighbor(const NodeAddress& addr, bool notify_peer);
  // Closes every edge except `keep` (PeerClose to each): used before adding
  // a fresh parent edge when our join order lapsed and existing edges may
  // contradict the current order.
  void DissolveNeighborsExcept(const NodeAddress& keep);
  void KeepaliveTick();

  Executor* executor_;
  PingAgent* ping_agent_;
  SendFn send_;
  NodeAddress self_;
  TopologyConfig config_;
  MetricsRegistry* metrics_;
  FlightRecorder* flight_ = nullptr;
  Rng rng_;
  Backoff join_backoff_;

  std::vector<std::string> vspaces_;
  bool started_ = false;
  bool joined_ = false;
  uint64_t self_join_order_ = 0;  // last order observed for self (0 = never seen)
  bool order_lapsed_ = false;     // self order changed: old edges are suspect
  uint64_t next_request_id_ = 1;
  uint64_t join_request_id_ = 0;  // outstanding join/root-watch list request
  NodeAddress requested_parent_;  // last peer we sent a PeerRequest to
  std::map<NodeAddress, Neighbor> neighbors_;
  TaskId register_task_ = kInvalidTaskId;
  TaskId keepalive_task_ = kInvalidTaskId;
  TaskId join_retry_task_ = kInvalidTaskId;
};

}  // namespace ins

#endif  // INS_OVERLAY_TOPOLOGY_H_
