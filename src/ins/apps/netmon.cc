#include "ins/apps/netmon.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <vector>

namespace ins {

namespace {

// Sum of every counter in `snapshot` whose name starts with `prefix` — the
// snapshot-side analogue of MetricsRegistry::FamilyTotal.
uint64_t SnapshotFamilyTotal(const MetricsSnapshot& snapshot, const std::string& prefix) {
  uint64_t total = 0;
  for (auto it = snapshot.counters.lower_bound(prefix);
       it != snapshot.counters.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    total += it->second;
  }
  return total;
}

uint64_t SnapshotCounter(const MetricsSnapshot& snapshot, const std::string& name) {
  auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

// Samples recorded above `threshold`, estimated from the log2 buckets: a
// bucket entirely above the threshold counts in full, the straddling bucket
// counts as within-target (conservative — burn is never overstated by more
// than one bucket's width).
uint64_t CountAbove(const Histogram& h, uint64_t threshold) {
  uint64_t above = 0;
  for (const auto& [index, count] : h.SparseBuckets()) {
    if (Histogram::BucketLow(index) > threshold) {
      above += count;
    }
  }
  return above;
}

uint64_t ClampedDelta(uint64_t now, uint64_t then) { return now < then ? 0 : now - then; }

}  // namespace

NetworkMonitor::NetworkMonitor(Executor* executor, Transport* transport, Options options)
    : executor_(executor), transport_(transport), options_(std::move(options)) {
  transport_->SetReceiveHandler(
      [this](const NodeAddress& src, const Bytes& data) { OnMessage(src, data); });
}

NetworkMonitor::~NetworkMonitor() {
  Stop();
  transport_->SetReceiveHandler(nullptr);
}

void NetworkMonitor::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  PollOnce();
}

void NetworkMonitor::Stop() {
  running_ = false;
  if (poll_task_ != kInvalidTaskId) {
    executor_->Cancel(poll_task_);
    poll_task_ = kInvalidTaskId;
  }
}

void NetworkMonitor::PollOnce() {
  ++polls_sent_;
  ForgetStale();
  // Round 1: who is out there? Resolvers self-advertise under
  // [service=netmon]; any one resolver can answer for the whole namespace.
  DiscoveryRequest req;
  req.request_id = next_request_id_++;
  req.vspace = options_.vspace;
  req.filter_text = "[service=netmon]";
  req.reply_to = transport_->local_address();
  transport_->Send(options_.inr, Encode(req));
  // Round 2 for already-known resolvers happens immediately; newly discovered
  // ones are polled when the discovery response arrives.
  for (const auto& [addr, status] : resolvers_) {
    RequestSnapshot(addr);
  }
  if (running_) {
    poll_task_ = executor_->ScheduleAfter(options_.poll_interval, [this] {
      poll_task_ = kInvalidTaskId;
      PollOnce();
    });
  }
}

void NetworkMonitor::RequestSnapshot(const NodeAddress& resolver) {
  MetricsDeltaRequest req;
  req.request_id = next_request_id_++;
  req.reply_to = transport_->local_address();
  auto it = resolvers_.find(resolver);
  req.since_seq = it == resolvers_.end() ? 0 : it->second.last_seq;
  transport_->Send(resolver, Encode(req));
}

void NetworkMonitor::OnMessage(const NodeAddress& src, const Bytes& data) {
  (void)src;
  auto env = DecodeMessage(data);
  if (!env.ok()) {
    return;
  }
  if (const auto* disc = std::get_if<DiscoveryResponse>(&env->body)) {
    HandleDiscoveryResponse(*disc);
  } else if (const auto* delta = std::get_if<MetricsDeltaResponse>(&env->body)) {
    HandleMetricsDeltaResponse(*delta);
  }
}

void NetworkMonitor::HandleDiscoveryResponse(const DiscoveryResponse& resp) {
  for (const DiscoveryResponse::Item& item : resp.items) {
    const NodeAddress resolver = item.endpoint.address;
    if (!resolver.IsValid()) {
      continue;
    }
    if (resolvers_.find(resolver) == resolvers_.end()) {
      ResolverStatus status;
      status.address = resolver;
      status.last_update = executor_->Now();
      resolvers_.emplace(resolver, std::move(status));
      RequestSnapshot(resolver);
    }
  }
}

void NetworkMonitor::HandleMetricsDeltaResponse(const MetricsDeltaResponse& resp) {
  ++snapshots_received_;
  ResolverStatus& status = resolvers_[resp.inr];
  status.address = resp.inr;
  if (!resp.full && resp.since_seq != status.last_seq) {
    // The delta chains onto a baseline we no longer hold (e.g. a reordered
    // late answer). Applying it would silently mix epochs: drop it and start
    // over with a full snapshot on the next poll.
    status.last_seq = 0;
    return;
  }
  if (resp.full) {
    ++fulls_received_;
  } else {
    ++deltas_received_;
  }
  ApplyMetricsDelta(resp, status.snapshot);
  status.last_seq = resp.seq;
  status.last_update = executor_->Now();
  status.series.Append(status.snapshot, status.last_update);
}

void NetworkMonitor::ForgetStale() {
  const TimePoint now = executor_->Now();
  for (auto it = resolvers_.begin(); it != resolvers_.end();) {
    if (now - it->second.last_update > options_.forget_after) {
      it = resolvers_.erase(it);
    } else {
      ++it;
    }
  }
}

SloBurn NetworkMonitor::LatencyBurn(const ResolverStatus& status) const {
  SloBurn burn;
  const SloConfig& slo = options_.slo;
  if (!slo.enabled || slo.latency_budget <= 0.0) {
    return burn;
  }
  const auto rate = [&](Duration window) {
    const Histogram delta = status.series.HistogramDelta("forwarding.lookup_us", window);
    if (delta.count() == 0) {
      return 0.0;
    }
    const double bad = static_cast<double>(CountAbove(delta, slo.latency_target_us));
    return bad / static_cast<double>(delta.count()) / slo.latency_budget;
  };
  burn.short_burn = rate(slo.short_window);
  burn.long_burn = rate(slo.long_window);
  burn.alerting =
      burn.short_burn >= slo.burn_threshold && burn.long_burn >= slo.burn_threshold;
  return burn;
}

SloBurn NetworkMonitor::GoodputBurn(const ResolverStatus& status) const {
  SloBurn burn;
  const SloConfig& slo = options_.slo;
  if (!slo.enabled || slo.drop_budget <= 0.0) {
    return burn;
  }
  const auto rate = [&](Duration window) {
    const MetricsSample* newest = status.series.Newest();
    if (newest == nullptr) {
      return 0.0;
    }
    const MetricsSample* open = status.series.NewestAtOrBefore(newest->at - window);
    if (open == nullptr) {
      open = status.series.SampleAt(status.series.oldest_seq());
    }
    if (open == nullptr || open->seq == newest->seq) {
      return 0.0;
    }
    // Clamped against counter regression: a resolver restart resets its
    // registry, and a post-restart full snapshot may read below the baseline.
    const uint64_t drops = ClampedDelta(SnapshotFamilyTotal(newest->snapshot, "forwarding.drop."),
                                        SnapshotFamilyTotal(open->snapshot, "forwarding.drop."));
    const uint64_t handled = ClampedDelta(SnapshotCounter(newest->snapshot, "forwarding.packets"),
                                          SnapshotCounter(open->snapshot, "forwarding.packets"));
    if (handled == 0) {
      return 0.0;
    }
    return static_cast<double>(drops) / static_cast<double>(handled) / slo.drop_budget;
  };
  burn.short_burn = rate(slo.short_window);
  burn.long_burn = rate(slo.long_window);
  burn.alerting =
      burn.short_burn >= slo.burn_threshold && burn.long_burn >= slo.burn_threshold;
  return burn;
}

std::vector<SloAlert> NetworkMonitor::ActiveAlerts() const {
  std::vector<SloAlert> alerts;
  if (!options_.slo.enabled) {
    return alerts;
  }
  for (const auto& [addr, status] : resolvers_) {
    const SloBurn latency = LatencyBurn(status);
    if (latency.alerting) {
      alerts.push_back({addr, "latency", latency.short_burn, latency.long_burn});
    }
    const SloBurn goodput = GoodputBurn(status);
    if (goodput.alerting) {
      alerts.push_back({addr, "goodput", goodput.short_burn, goodput.long_burn});
    }
  }
  return alerts;
}

std::string NetworkMonitor::Report() const {
  std::ostringstream os;
  const TimePoint now = executor_->Now();
  os << "netmon: " << resolvers_.size() << " resolver(s) @ " << now.count() << " us\n";
  char line[256];
  std::snprintf(line, sizeof(line), "%-21s %8s %9s %8s %10s %7s %12s %12s\n", "resolver",
                "names", "packets", "lookups", "delivered", "drops", "lookup_p50us",
                "lookup_p99us");
  os << line;
  for (const auto& [addr, status] : resolvers_) {
    const MetricsSnapshot& s = status.snapshot;
    int64_t names = 0;
    if (auto it = s.gauges.find("inr.names"); it != s.gauges.end()) {
      names = it->second;
    }
    uint64_t p50 = 0;
    uint64_t p99 = 0;
    if (auto it = s.histograms.find("forwarding.lookup_us"); it != s.histograms.end()) {
      p50 = it->second.P50();
      p99 = it->second.P99();
    }
    std::snprintf(line, sizeof(line),
                  "%-21s %8" PRId64 " %9" PRIu64 " %8" PRIu64 " %10" PRIu64 " %7" PRIu64
                  " %12" PRIu64 " %12" PRIu64 "\n",
                  addr.ToString().c_str(), names, SnapshotCounter(s, "forwarding.packets"),
                  SnapshotCounter(s, "forwarding.lookups"),
                  SnapshotCounter(s, "forwarding.local_deliveries"),
                  SnapshotFamilyTotal(s, "forwarding.drop."), p50, p99);
    os << line;
  }
  if (options_.slo.enabled) {
    os << "SLO: latency<=" << options_.slo.latency_target_us
       << "us budget=" << options_.slo.latency_budget
       << " drop budget=" << options_.slo.drop_budget
       << " burn threshold=" << options_.slo.burn_threshold << "\n";
    for (const auto& [addr, status] : resolvers_) {
      const SloBurn latency = LatencyBurn(status);
      const SloBurn goodput = GoodputBurn(status);
      std::snprintf(line, sizeof(line),
                    "%-21s latency burn %6.2f/%6.2f%s  goodput burn %6.2f/%6.2f%s\n",
                    addr.ToString().c_str(), latency.short_burn, latency.long_burn,
                    latency.alerting ? " ALERT" : "", goodput.short_burn, goodput.long_burn,
                    goodput.alerting ? " ALERT" : "");
      os << line;
    }
  }
  return os.str();
}

}  // namespace ins
