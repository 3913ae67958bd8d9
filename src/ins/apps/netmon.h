// NetworkMonitor: the paper's NetworkManagement application (§3.3), headless.
//
// The paper's monitor displays the INR overlay and per-resolver statistics by
// querying the resolvers themselves. This version works the same way and is
// bootstrapped intentionally: resolvers running with NetmonConfig.advertise
// announce [service=netmon][node=<addr>] into the namespace, the monitor
// discovers them with one DiscoveryRequest against that filter, then polls
// each with MetricsDeltaRequest. The first poll of a resolver asks from
// sequence 0 and gets a full snapshot; later polls get only the slots that
// changed since the monitor's last-seen sequence, and a gap or resolver
// restart falls back to one full snapshot. The monitor keeps a per-resolver
// time-series of the reassembled snapshots. Resolver state here is soft like
// everything else: entries for resolvers that stop answering are aged out
// after `forget_after`.
//
// On top of the time-series the monitor evaluates service-level objectives
// with multi-window burn rates (a short window to catch fast burns, a long
// window to suppress blips; an objective alerts only when BOTH windows burn
// error budget faster than `burn_threshold`).

#ifndef INS_APPS_NETMON_H_
#define INS_APPS_NETMON_H_

#include <map>
#include <string>
#include <vector>

#include "ins/common/executor.h"
#include "ins/common/metrics.h"
#include "ins/common/timeseries.h"
#include "ins/common/transport.h"
#include "ins/wire/messages.h"

namespace ins {

// Latency/goodput objectives evaluated over each resolver's metric
// time-series. A burn rate of 1.0 means errors arrive exactly at the budget;
// above `burn_threshold` in both windows, the objective alerts.
struct SloConfig {
  bool enabled = false;
  // Latency objective: at most `latency_budget` of lookups may take longer
  // than `latency_target_us`.
  uint64_t latency_target_us = 1000;
  double latency_budget = 0.01;
  // Goodput objective: at most `drop_budget` of handled packets dropped
  // (any forwarding.drop.* reason).
  double drop_budget = 0.01;
  Duration short_window = Seconds(30);
  Duration long_window = Seconds(300);
  double burn_threshold = 2.0;
};

// One objective's burn evaluation for one resolver.
struct SloBurn {
  double short_burn = 0.0;
  double long_burn = 0.0;
  bool alerting = false;
};

struct SloAlert {
  NodeAddress resolver;
  std::string objective;  // "latency" or "goodput"
  double short_burn = 0.0;
  double long_burn = 0.0;
};

class NetworkMonitor {
 public:
  struct Options {
    NodeAddress inr;           // resolver the discovery query is sent to
    std::string vspace;        // vspace the netmon names live in ("" default)
    Duration poll_interval = Seconds(5);
    // Drop a resolver from the report when it has not answered for this long
    // (it crashed, or its netmon advertisement expired).
    Duration forget_after = Seconds(30);
    SloConfig slo;
  };

  // Retained samples per resolver (the SLO windows must fit inside).
  static constexpr size_t kSeriesCapacity = 64;

  struct ResolverStatus {
    NodeAddress address;
    MetricsSnapshot snapshot;
    TimePoint last_update{0};
    // Sequence of the last delta sample applied (0 = next poll fetches a
    // full snapshot). Reset whenever the resolver's answer does not chain
    // onto our baseline — most notably after a resolver restart.
    uint64_t last_seq = 0;
    // Periodic snapshots; the SLO burn windows are evaluated against this.
    MetricsTimeSeries series{kSeriesCapacity};
  };

  NetworkMonitor(Executor* executor, Transport* transport, Options options);
  ~NetworkMonitor();

  NetworkMonitor(const NetworkMonitor&) = delete;
  NetworkMonitor& operator=(const NetworkMonitor&) = delete;

  // Begins periodic polling (first round immediately).
  void Start();
  void Stop();

  // One poll round: discover resolvers, then request a snapshot from every
  // one discovered (and every one already known). Usable without Start() for
  // single-shot polls.
  void PollOnce();

  // Latest snapshot per resolver, keyed by resolver address.
  const std::map<NodeAddress, ResolverStatus>& resolvers() const { return resolvers_; }

  // The cluster-wide status table: one row per resolver with its key
  // counters (packets, lookups, deliveries, total drops) and lookup-latency
  // p50/p99 — the moral equivalent of the paper's NetworkManagement GUI.
  // With SLOs enabled, burn rates and active alerts are appended.
  std::string Report() const;

  // Objectives currently alerting (both burn windows above threshold).
  // Empty when SLOs are disabled or every resolver is within budget.
  std::vector<SloAlert> ActiveAlerts() const;

  // Burn evaluation for one resolver (tests; Report uses it too).
  SloBurn LatencyBurn(const ResolverStatus& status) const;
  SloBurn GoodputBurn(const ResolverStatus& status) const;

  uint64_t polls_sent() const { return polls_sent_; }
  uint64_t snapshots_received() const { return snapshots_received_; }
  uint64_t deltas_received() const { return deltas_received_; }
  uint64_t fulls_received() const { return fulls_received_; }

 private:
  void OnMessage(const NodeAddress& src, const Bytes& data);
  void HandleDiscoveryResponse(const DiscoveryResponse& resp);
  void HandleMetricsDeltaResponse(const MetricsDeltaResponse& resp);
  void RequestSnapshot(const NodeAddress& resolver);
  void ForgetStale();

  Executor* executor_;
  Transport* transport_;
  Options options_;
  bool running_ = false;
  TaskId poll_task_ = kInvalidTaskId;
  uint64_t next_request_id_ = 1;
  uint64_t polls_sent_ = 0;
  uint64_t snapshots_received_ = 0;
  uint64_t deltas_received_ = 0;
  uint64_t fulls_received_ = 0;
  std::map<NodeAddress, ResolverStatus> resolvers_;
};

}  // namespace ins

#endif  // INS_APPS_NETMON_H_
