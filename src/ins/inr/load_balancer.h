// Load balancing and scaling (paper §2.5).
//
// Two bottlenecks, two remedies:
//  * lookup overload — spawn an INR instance on a candidate node obtained
//    from the DSR; newly arriving clients spread across the enlarged
//    resolver set;
//  * name-update overload — spawning another resolver for the *same* spaces
//    would not help (every resolver in a space processes every update), so
//    the resolver delegates one or more virtual spaces to a freshly spawned
//    INR, transferring the space's name state and its DSR ownership.
//
// An idle resolver may also terminate itself, informing its peers and the
// DSR. SpawnListener is the candidate-node side: it waits for a
// kSpawnRequest and materializes a resolver via a caller-supplied factory.

#ifndef INS_INR_LOAD_BALANCER_H_
#define INS_INR_LOAD_BALANCER_H_

#include <functional>
#include <string>
#include <vector>

#include "ins/common/executor.h"
#include "ins/common/metrics.h"
#include "ins/common/transport.h"
#include "ins/inr/vspace.h"
#include "ins/overlay/ping.h"

namespace ins {

struct LoadBalancerConfig {
  bool enabled = false;
  Duration eval_interval = Seconds(10);
  // Spawn a helper resolver when the lookup rate exceeds this.
  double spawn_lookups_per_sec = 500.0;
  // Delegate a vspace when the inbound update-entry rate exceeds this and
  // more than one space is routed.
  double delegate_update_entries_per_sec = 2000.0;
  // Request self-termination when the lookup rate stays below this (0
  // disables termination).
  double terminate_below_lookups_per_sec = 0.0;
  int idle_intervals_before_terminate = 3;

  // --- Replica-set maintenance (replica mode) --------------------------------
  // Mirrors ReplicationConfig::replica_k; plumbed by the owning Inr. When
  // >= 2 the balancer runs a maintenance tick independent of `enabled`: it
  // refreshes the DSR's view of every routed space's replica set, and — as a
  // set's primary — tops the set up to k by inviting DSR candidates.
  int replica_k = 1;
  Duration replica_interval = Seconds(10);
};

class NameDiscovery;

class LoadBalancer {
 public:
  LoadBalancer(Executor* executor, SendFn send, NodeAddress self, NodeAddress dsr,
               VspaceManager* vspaces, NameDiscovery* discovery, MetricsRegistry* metrics,
               LoadBalancerConfig config);
  ~LoadBalancer();

  void Start();
  void Stop();

  void HandleDsrCandidatesResponse(const DsrCandidatesResponse& resp);

  // Maintenance answer from the DSR (only responses carrying this balancer's
  // request-id tag are processed; the forwarder's resolutions share the
  // message type but use untagged ids).
  void HandleDsrReplicaSetResponse(const DsrReplicaSetResponse& resp);

  // Fired when the resolver should shut itself down (idle). The owning Inr
  // decides whether to honor it.
  std::function<void()> on_should_terminate;

  uint64_t spawns_requested() const { return spawns_requested_; }
  uint64_t delegations() const { return delegations_; }

 private:
  enum class PendingAction { kNone, kSpawn, kDelegate };

  // High-bit tag keeping the balancer's DsrReplicaSetRequest ids disjoint
  // from the VspaceManager's (whose counter starts at 1 and grows).
  static constexpr uint64_t kReplicaRequestTag = 1ull << 63;

  void Tick();
  void ReplicaTick();
  void RequestCandidates(PendingAction action);
  // Picks the routed space with the most names (the heaviest to delegate).
  std::string PickSpaceToDelegate() const;

  Executor* executor_;
  SendFn send_;
  NodeAddress self_;
  NodeAddress dsr_;
  VspaceManager* vspaces_;
  NameDiscovery* discovery_;
  MetricsRegistry* metrics_;
  LoadBalancerConfig config_;

  TaskId tick_task_ = kInvalidTaskId;
  TaskId replica_task_ = kInvalidTaskId;
  uint64_t last_lookups_ = 0;
  uint64_t last_update_entries_ = 0;
  int idle_intervals_ = 0;
  PendingAction pending_action_ = PendingAction::kNone;
  uint64_t candidates_request_id_ = 0;
  uint64_t next_request_id_ = 1;
  uint64_t spawns_requested_ = 0;
  uint64_t delegations_ = 0;
};

// Candidate-node agent: listens on the candidate address, answers pings,
// registers with the DSR as a candidate, and invokes `factory` when asked to
// spawn a resolver.
class SpawnListener {
 public:
  using Factory = std::function<void(const SpawnRequest& request)>;

  SpawnListener(Executor* executor, Transport* transport, NodeAddress dsr, Factory factory);
  ~SpawnListener();

  // True once the factory ran; the listener releases the transport's
  // receive handler so the spawned resolver can take it over.
  bool consumed() const { return consumed_; }

 private:
  void OnMessage(const NodeAddress& src, const Bytes& data);
  void RegisterWithDsr();

  Executor* executor_;
  Transport* transport_;
  NodeAddress dsr_;
  Factory factory_;
  bool consumed_ = false;
  TaskId register_task_ = kInvalidTaskId;
};

}  // namespace ins

#endif  // INS_INR_LOAD_BALANCER_H_
