// Tests for the NetworkMonitor app: intentional bootstrap off [service=netmon]
// advertisements, metrics polling over the wire, the cluster-wide report, and
// soft-state aging of resolvers that stop answering.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "ins/apps/netmon.h"
#include "ins/client/api.h"
#include "ins/harness/cluster.h"
#include "ins/name/parser.h"

namespace ins {
namespace {

NameSpecifier P(const char* text) {
  auto r = ParseNameSpecifier(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status();
  return std::move(r).value();
}

struct ClientHarness {
  ClientHarness(SimCluster* cluster, uint32_t host, NodeAddress inr)
      : socket(cluster->net().Bind(MakeAddress(host))) {
    ClientConfig config;
    config.inr = inr;
    config.dsr = cluster->dsr_address();
    client = std::make_unique<InsClient>(&cluster->loop(), socket.get(), config);
    client->Start();
  }

  std::unique_ptr<sim::Network::Socket> socket;
  std::unique_ptr<InsClient> client;
};

struct MonitorHarness {
  MonitorHarness(SimCluster* cluster, uint32_t host, NetworkMonitor::Options options)
      : socket(cluster->net().Bind(MakeAddress(host))),
        monitor(std::make_unique<NetworkMonitor>(&cluster->loop(), socket.get(),
                                                 std::move(options))) {}

  std::unique_ptr<sim::Network::Socket> socket;
  std::unique_ptr<NetworkMonitor> monitor;
};

ClusterOptions AdvertisingOptions() {
  ClusterOptions options;
  options.inr_template.netmon.advertise = true;
  return options;
}

TEST(NetmonTest, DiscoversEveryResolverAndPollsSnapshots) {
  SimCluster cluster(AdvertisingOptions());
  Inr* a = cluster.AddInr(1);
  cluster.loop().RunFor(Seconds(1));
  Inr* b = cluster.AddInr(2);
  cluster.StabilizeTopology();
  cluster.loop().RunFor(Seconds(2));  // netmon self-ads propagate overlay-wide

  // Some real traffic so the polled counters are non-trivial: a client at `a`
  // reaches a service behind `b`.
  ClientHarness service(&cluster, 30, b->address());
  auto ad = service.client->Advertise(P("[service=camera]"));
  cluster.loop().RunFor(Seconds(3));
  ClientHarness user(&cluster, 20, a->address());
  cluster.Settle();
  ASSERT_TRUE(user.client->SendAnycast(P("[service=camera]"), {7}).ok());
  cluster.Settle();

  NetworkMonitor::Options options;
  options.inr = a->address();
  MonitorHarness mh(&cluster, 40, options);
  mh.monitor->PollOnce();
  cluster.Settle(Seconds(1));

  const auto& resolvers = mh.monitor->resolvers();
  ASSERT_EQ(resolvers.size(), 2u);
  ASSERT_TRUE(resolvers.count(a->address()));
  ASSERT_TRUE(resolvers.count(b->address()));
  EXPECT_GE(mh.monitor->snapshots_received(), 2u);

  // The polled snapshot carries `a`'s live counters and histograms over the
  // wire — including the lookup the data packet triggered.
  const MetricsSnapshot& snap = resolvers.at(a->address()).snapshot;
  EXPECT_GE(snap.counters.at("forwarding.packets"), 1u);
  EXPECT_GE(snap.counters.at("forwarding.lookups"), 1u);
  ASSERT_TRUE(snap.histograms.count("forwarding.lookup_us"));
  EXPECT_GE(snap.histograms.at("forwarding.lookup_us").count(), 1u);
  // Inventory gauges are refreshed when the snapshot leaves the node; `a`
  // knows at least the camera name plus the netmon self-advertisements.
  EXPECT_GE(snap.gauges.at("inr.names"), 2);

  // One row per resolver, with the key-counter and latency-quantile columns.
  const std::string report = mh.monitor->Report();
  EXPECT_NE(report.find("2 resolver(s)"), std::string::npos);
  EXPECT_NE(report.find(a->address().ToString()), std::string::npos);
  EXPECT_NE(report.find(b->address().ToString()), std::string::npos);
  EXPECT_NE(report.find("lookup_p99us"), std::string::npos);
  EXPECT_NE(report.find("delivered"), std::string::npos);
}

TEST(NetmonTest, AdvertisementIsOptInSoDefaultClustersStayInvisible) {
  SimCluster cluster;  // default: NetmonConfig.advertise == false
  Inr* a = cluster.AddInr(1);
  cluster.StabilizeTopology();
  cluster.loop().RunFor(Seconds(2));
  // The seed contract benches rely on: no self-advertisement in the tree.
  EXPECT_EQ(a->vspaces().Tree("")->record_count(), 0u);

  NetworkMonitor::Options options;
  options.inr = a->address();
  MonitorHarness mh(&cluster, 40, options);
  mh.monitor->PollOnce();
  cluster.Settle(Seconds(1));
  EXPECT_TRUE(mh.monitor->resolvers().empty());
  EXPECT_EQ(mh.monitor->snapshots_received(), 0u);
}

TEST(NetmonTest, ForgetsResolversThatStopAnswering) {
  SimCluster cluster(AdvertisingOptions());
  Inr* a = cluster.AddInr(1);
  cluster.loop().RunFor(Seconds(1));
  Inr* b = cluster.AddInr(2);
  cluster.StabilizeTopology();
  cluster.loop().RunFor(Seconds(2));

  NetworkMonitor::Options options;
  options.inr = a->address();
  options.poll_interval = Seconds(2);
  options.forget_after = Seconds(8);
  MonitorHarness mh(&cluster, 40, options);
  mh.monitor->Start();
  cluster.Settle(Seconds(1));
  ASSERT_EQ(mh.monitor->resolvers().size(), 2u);

  // `b` dies silently. Its netmon advertisement survives in `a`'s tree until
  // the soft-state lifetime runs out, so the monitor may briefly re-discover
  // it — but with no snapshots coming back, aging wins once the ad expires.
  cluster.CrashInr(b);
  cluster.loop().RunFor(Seconds(60));
  ASSERT_EQ(mh.monitor->resolvers().size(), 1u);
  EXPECT_TRUE(mh.monitor->resolvers().count(a->address()));
  // `a` keeps answering the whole time.
  EXPECT_NE(mh.monitor->Report().find(a->address().ToString()), std::string::npos);
  mh.monitor->Stop();
}

TEST(NetmonTest, AgesOutResolverCrashedMidPoll) {
  SimCluster cluster(AdvertisingOptions());
  Inr* a = cluster.AddInr(1);
  cluster.loop().RunFor(Seconds(1));
  Inr* b = cluster.AddInr(2);
  cluster.StabilizeTopology();
  cluster.loop().RunFor(Seconds(2));

  NetworkMonitor::Options options;
  options.inr = a->address();
  options.poll_interval = Seconds(2);
  options.forget_after = Seconds(8);
  MonitorHarness mh(&cluster, 40, options);
  mh.monitor->Start();
  cluster.Settle(Seconds(1));
  ASSERT_EQ(mh.monitor->resolvers().size(), 2u);
  const uint64_t a_messages_before =
      mh.monitor->resolvers().at(a->address()).snapshot.counters.at("inr.messages");

  // Crash `b` with the monitor's next MetricsDeltaRequest IN FLIGHT: PollOnce
  // fires the request, then the resolver dies before it can answer. The
  // monitor must not treat the never-answered poll as contact — `b` ages out
  // on schedule, and its stale counters leave the report instead of being
  // presented as a live row forever.
  const NodeAddress b_addr = b->address();
  mh.monitor->PollOnce();
  cluster.CrashInr(b);
  cluster.loop().RunFor(Seconds(60));

  ASSERT_EQ(mh.monitor->resolvers().size(), 1u);
  EXPECT_TRUE(mh.monitor->resolvers().count(a->address()));
  EXPECT_EQ(mh.monitor->resolvers().count(b_addr), 0u);
  const std::string report = mh.monitor->Report();
  EXPECT_NE(report.find("1 resolver(s)"), std::string::npos);
  EXPECT_EQ(report.find(b_addr.ToString()), std::string::npos);
  // The surviving resolver's row is live (still being re-polled), not a
  // leftover of the last poll before the crash.
  EXPECT_GT(mh.monitor->resolvers().at(a->address()).snapshot.counters.at("inr.messages"),
            a_messages_before);
  mh.monitor->Stop();
}

// --- Incremental (delta) polling ---------------------------------------------

TEST(NetmonDeltaTest, FirstPollIsFullThenDeltasReassembleTheSnapshot) {
  SimCluster cluster(AdvertisingOptions());
  Inr* a = cluster.AddInr(1);
  cluster.StabilizeTopology();
  cluster.loop().RunFor(Seconds(2));

  NetworkMonitor::Options options;
  options.inr = a->address();
  MonitorHarness mh(&cluster, 40, options);

  mh.monitor->PollOnce();
  cluster.Settle(Seconds(1));
  EXPECT_EQ(mh.monitor->fulls_received(), 1u);
  EXPECT_EQ(mh.monitor->deltas_received(), 0u);
  ASSERT_EQ(mh.monitor->resolvers().size(), 1u);
  EXPECT_GT(mh.monitor->resolvers().at(a->address()).last_seq, 0u);

  // Subsequent polls ship only what changed, and the reassembled view stays
  // equal to what a full snapshot would say.
  for (int i = 0; i < 3; ++i) {
    mh.monitor->PollOnce();
    cluster.Settle(Seconds(1));
  }
  EXPECT_EQ(mh.monitor->fulls_received(), 1u);
  EXPECT_GE(mh.monitor->deltas_received(), 3u);
  const MetricsSnapshot& view = mh.monitor->resolvers().at(a->address()).snapshot;
  const MetricsSnapshot direct = a->metrics().Snapshot();
  for (const char* name : {"inr.messages", "inr.metrics_requests", "timeseries.samples"}) {
    EXPECT_EQ(view.counters.at(name), direct.counters.at(name)) << name;
  }
  // The ring sample is appended before the response that ships it is counted,
  // so the reassembled view trails the live counter by exactly the in-flight
  // response.
  EXPECT_EQ(view.counters.at("timeseries.delta_served") + 1,
            direct.counters.at("timeseries.delta_served"));
  EXPECT_GE(direct.counters.at("timeseries.delta_served"), 3u);
}

TEST(NetmonDeltaTest, BaselineEvictedFromTheRingFallsBackToFull) {
  ClusterOptions copts = AdvertisingOptions();
  copts.inr_template.metrics_timeseries_capacity = 4;  // tiny retained window
  SimCluster cluster(copts);
  Inr* a = cluster.AddInr(1);
  cluster.StabilizeTopology();
  cluster.loop().RunFor(Seconds(2));

  NetworkMonitor::Options options;
  options.inr = a->address();
  MonitorHarness slow(&cluster, 40, options);
  slow.monitor->PollOnce();
  cluster.Settle(Seconds(1));
  ASSERT_EQ(slow.monitor->fulls_received(), 1u);

  // A second, faster monitor appends enough samples to evict the slow
  // monitor's baseline from the resolver's 4-sample ring.
  MonitorHarness fast(&cluster, 41, options);
  for (int i = 0; i < 6; ++i) {
    fast.monitor->PollOnce();
    cluster.Settle(Seconds(1));
  }

  slow.monitor->PollOnce();
  cluster.Settle(Seconds(1));
  EXPECT_EQ(slow.monitor->fulls_received(), 2u);  // gap -> full, not a bogus delta
  EXPECT_GT(slow.monitor->resolvers().at(a->address()).last_seq, 1u);
}

TEST(NetmonDeltaTest, ResolverRestartResetsTheSequenceChain) {
  SimCluster cluster(AdvertisingOptions());
  Inr* a = cluster.AddInr(1);
  cluster.loop().RunFor(Seconds(1));
  Inr* b = cluster.AddInr(2);
  cluster.StabilizeTopology();
  cluster.loop().RunFor(Seconds(2));

  NetworkMonitor::Options options;
  options.inr = a->address();
  options.forget_after = Seconds(600);  // keep `b` known across its restart
  MonitorHarness mh(&cluster, 40, options);
  for (int i = 0; i < 2; ++i) {
    mh.monitor->PollOnce();
    cluster.Settle(Seconds(1));
  }
  ASSERT_EQ(mh.monitor->resolvers().size(), 2u);
  const NodeAddress b_addr = b->address();
  ASSERT_GE(mh.monitor->resolvers().at(b_addr).last_seq, 2u);

  // Restart `b`: its time-series ring starts over from sequence 1. The
  // monitor's stale baseline cannot chain onto the new incarnation — the
  // resolver answers full, and the monitor re-bases instead of merging
  // pre-restart counters with post-restart ones.
  cluster.CrashInr(b);
  cluster.loop().RunFor(Seconds(5));
  cluster.RestartInr(2);
  cluster.loop().RunFor(Seconds(10));
  const uint64_t fulls_before = mh.monitor->fulls_received();
  mh.monitor->PollOnce();
  cluster.Settle(Seconds(1));

  EXPECT_GT(mh.monitor->fulls_received(), fulls_before);
  const auto& b_status = mh.monitor->resolvers().at(b_addr);
  EXPECT_EQ(b_status.last_seq, 1u);  // re-based on the new incarnation
  // The reassembled view is the fresh node's, not an accretion of old state.
  EXPECT_LT(b_status.snapshot.counters.at("inr.messages"), 100u);
}

// --- SLO burn evaluation -----------------------------------------------------

NetworkMonitor::Options SloOptions(NodeAddress inr) {
  NetworkMonitor::Options options;
  options.inr = inr;
  options.poll_interval = Seconds(5);
  options.slo.enabled = true;
  options.slo.latency_target_us = 1000;
  options.slo.latency_budget = 0.01;
  options.slo.drop_budget = 0.01;
  options.slo.short_window = Seconds(30);
  options.slo.long_window = Seconds(120);
  options.slo.burn_threshold = 2.0;
  return options;
}

TEST(NetmonSloTest, SteadyTrafficStaysWithinBudget) {
  SimCluster cluster(AdvertisingOptions());
  Inr* a = cluster.AddInr(1);
  cluster.StabilizeTopology();
  cluster.loop().RunFor(Seconds(2));

  ClientHarness service(&cluster, 30, a->address());
  auto ad = service.client->Advertise(P("[service=camera]"));
  cluster.loop().RunFor(Seconds(3));
  ClientHarness user(&cluster, 20, a->address());
  cluster.Settle();

  MonitorHarness mh(&cluster, 40, SloOptions(a->address()));
  mh.monitor->Start();
  // Healthy traffic across several windows: every lookup resolves, nothing
  // drops, simulated lookups are far under the 1 ms target.
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(user.client->SendAnycast(P("[service=camera]"), {1}).ok());
    cluster.loop().RunFor(Seconds(5));
  }
  EXPECT_TRUE(mh.monitor->ActiveAlerts().empty());
  const auto& status = mh.monitor->resolvers().at(a->address());
  EXPECT_LE(mh.monitor->GoodputBurn(status).short_burn, 1.0);
  mh.monitor->Stop();
}

TEST(NetmonSloTest, SustainedDropsTripTheGoodputBurnAlert) {
  SimCluster cluster(AdvertisingOptions());
  Inr* a = cluster.AddInr(1);
  cluster.StabilizeTopology();
  cluster.loop().RunFor(Seconds(2));

  ClientHarness user(&cluster, 20, a->address());
  cluster.Settle();

  MonitorHarness mh(&cluster, 40, SloOptions(a->address()));
  mh.monitor->Start();
  // Every packet targets a name nobody advertised: 100% no_match drops, far
  // beyond the 1% budget, sustained across both burn windows.
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(user.client->SendAnycast(P("[service=ghost]"), {1}).ok());
    cluster.loop().RunFor(Seconds(5));
  }
  std::vector<SloAlert> alerts = mh.monitor->ActiveAlerts();
  ASSERT_FALSE(alerts.empty());
  bool goodput = false;
  for (const SloAlert& alert : alerts) {
    if (alert.objective == "goodput" && alert.resolver == a->address()) {
      goodput = true;
      EXPECT_GT(alert.short_burn, 2.0);
      EXPECT_GT(alert.long_burn, 2.0);
    }
  }
  EXPECT_TRUE(goodput);
  // The report surfaces the alert for a human reader.
  const std::string report = mh.monitor->Report();
  EXPECT_NE(report.find("SLO"), std::string::npos);
  EXPECT_NE(report.find("goodput"), std::string::npos);
  mh.monitor->Stop();
}

}  // namespace
}  // namespace ins
