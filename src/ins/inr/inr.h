// The Intentional Name Resolver node (paper §2, §4).
//
// An Inr binds one Transport and composes the subsystems the paper's Java
// implementation calls Node, NameTree, NodeListener, ForwardingAgent and
// NameDiscovery: it decodes every incoming datagram and dispatches it to the
// name-discovery protocol, the forwarding agent, the overlay topology
// manager, the virtual-space manager, or the load balancer. It also answers
// client name-discovery queries and INR-pings directly.
//
// The same class runs unchanged under the discrete-event simulator (virtual
// time) and over real UDP (the examples): all environment access goes
// through the Executor and Transport interfaces.

#ifndef INS_INR_INR_H_
#define INS_INR_INR_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ins/common/executor.h"
#include "ins/common/flight_recorder.h"
#include "ins/common/metrics.h"
#include "ins/common/timeseries.h"
#include "ins/common/trace.h"
#include "ins/common/transport.h"
#include "ins/inr/admission.h"
#include "ins/inr/forwarding.h"
#include "ins/inr/load_balancer.h"
#include "ins/inr/name_discovery.h"
#include "ins/inr/packet_cache.h"
#include "ins/inr/replication.h"
#include "ins/inr/vspace.h"
#include "ins/overlay/ping.h"
#include "ins/overlay/topology.h"

namespace ins {

// The paper's NetworkManagement service, resolver side: when enabled, the
// resolver periodically advertises [service=netmon][node=<addr>] into its own
// name tree. The advertisement propagates like any other name, so the netmon
// app discovers every resolver from a single DiscoveryRequest and polls each
// one with MetricsDeltaRequest. Off by default: the self-advertisement
// changes record counts, which seed tests and benches assert on.
struct NetmonConfig {
  bool advertise = false;
  std::string vspace;  // "" = the default space
};

struct InrConfig {
  NodeAddress dsr;
  // Virtual spaces this resolver routes from the start. "" is the default
  // space used by names without a [vspace=...] attribute.
  std::vector<std::string> vspaces = {""};
  DiscoveryConfig discovery;
  TopologyConfig topology;  // .dsr is filled from `dsr` if unset
  LoadBalancerConfig load_balancer;
  // Overload control on the ingress path; disabled by default (seed
  // behaviour: every message dispatches inline).
  AdmissionConfig admission;
  // Journaled delta replication with anti-entropy digests; disabled by
  // default (seed behaviour: periodic full re-announcement only). Enabling it
  // turns on store journaling and suppresses the periodic refresh storm.
  ReplicationConfig replication;
  // Capacity of the per-node trace-event ring (entries, not bytes). Sampled
  // packets append events here; the harness merges rings into journeys.
  size_t trace_ring_capacity = 1024;
  // Capacity of the always-on flight recorder (system events: shed on/off,
  // replica death, overlay edge churn, restarts). Same overwrite-oldest
  // discipline as the trace ring.
  size_t flight_recorder_capacity = 256;
  // Retained metrics samples for incremental (delta) metrics polling. Each
  // MetricsDeltaRequest appends one snapshot; a client whose baseline fell
  // out of this window gets a full snapshot again.
  size_t metrics_timeseries_capacity = 64;
  NetmonConfig netmon;
};

class Inr {
 public:
  Inr(Executor* executor, Transport* transport, InrConfig config);
  ~Inr();

  Inr(const Inr&) = delete;
  Inr& operator=(const Inr&) = delete;

  // Joins the overlay and starts the protocol timers.
  void Start();
  // Graceful shutdown: leaves the overlay, stops timers, unregisters.
  void Stop();
  // Failure injection: dies silently — no PeerClose, no DSR unregister.
  // Peers must detect the failure via missed keepalives and the DSR entry
  // must expire by soft state.
  void Crash();
  bool running() const { return running_; }

  NodeAddress address() const { return transport_->local_address(); }

  // Subsystem access (tests, benches, and the network-management view).
  VspaceManager& vspaces() { return *vspaces_; }
  NameDiscovery& discovery() { return *discovery_; }
  ForwardingAgent& forwarding() { return *forwarding_; }
  TopologyManager& topology() { return *topology_; }
  LoadBalancer& load_balancer() { return *load_balancer_; }
  ReplicationAgent& replication() { return *replication_; }
  PacketCache& cache() { return *cache_; }
  PingAgent& pings() { return *ping_agent_; }
  AdmissionController& admission() { return *admission_; }
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  TraceRing& trace_ring() { return trace_ring_; }
  const TraceRing& trace_ring() const { return trace_ring_; }
  FlightRecorder& flight_recorder() { return flight_; }
  const FlightRecorder& flight_recorder() const { return flight_; }
  MetricsTimeSeries& timeseries() { return timeseries_; }
  const MetricsTimeSeries& timeseries() const { return timeseries_; }

  // Renders the resolver's state (name-trees, neighbors, counters) — the
  // moral equivalent of the paper's NetworkManagement GUI.
  std::string DebugString() const;

 private:
  void OnMessage(const NodeAddress& src, const Bytes& data);
  // The post-admission dispatch chain; `queued` is the time the message spent
  // in the admission queues (zero with admission disabled) and is charged
  // against data packets' deadline budgets.
  void DispatchEnvelope(const NodeAddress& src, const Envelope& env, Duration queued);
  void HandleDiscoveryRequest(const NodeAddress& src, const DiscoveryRequest& req);
  void HandleMetricsDeltaRequest(const NodeAddress& src, const MetricsDeltaRequest& req);
  // Updates the inventory gauges (inr.names / inr.neighbors / inr.vspaces,
  // and the trace-ring and flight-recorder overwrite counts) that only need
  // to be current when a snapshot leaves the node.
  void RefreshInventoryGauges();
  // Periodic [service=netmon] self-advertisement (NetmonConfig.advertise).
  void AdvertiseNetmon();

  Executor* executor_;
  Transport* transport_;
  InrConfig config_;
  MetricsRegistry metrics_;
  TraceRing trace_ring_;
  FlightRecorder flight_;
  MetricsTimeSeries timeseries_;
  // Cached address().ToString(): the log-context tag installed around every
  // message this resolver handles.
  std::string log_tag_;
  bool running_ = false;
  // Spaces this resolver routes because a replica-set primary recruited it
  // (ReplicaInvite), as opposed to configuration or delegation. Only these
  // may be relinquished when a DSR set answer shows the set full without us.
  std::set<std::string> invited_spaces_;
  TaskId netmon_task_ = kInvalidTaskId;
  uint64_t netmon_version_ = 0;
  CounterHandle messages_;
  CounterHandle bytes_received_;

  std::unique_ptr<PingAgent> ping_agent_;
  std::unique_ptr<TopologyManager> topology_;
  std::unique_ptr<VspaceManager> vspaces_;
  std::unique_ptr<PacketCache> cache_;
  std::unique_ptr<NameDiscovery> discovery_;
  std::unique_ptr<ForwardingAgent> forwarding_;
  std::unique_ptr<LoadBalancer> load_balancer_;
  std::unique_ptr<ReplicationAgent> replication_;
  std::unique_ptr<AdmissionController> admission_;
};

}  // namespace ins

#endif  // INS_INR_INR_H_
