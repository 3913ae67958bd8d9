// Cluster-level observability: stage-latency attribution reconciling against
// end-to-end latency, per-resolver latency.stage.* histograms on the wire,
// and the flight recorder assembling a causally-ordered incident timeline
// out of a replica kill.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>

#include "ins/client/api.h"
#include "ins/harness/cluster.h"
#include "ins/harness/trace_collector.h"
#include "ins/name/parser.h"

namespace ins {
namespace {

NameSpecifier P(const char* text) {
  auto r = ParseNameSpecifier(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status();
  return std::move(r).value();
}

struct ClientHarness {
  ClientHarness(SimCluster* cluster, uint32_t host, NodeAddress inr,
                uint64_t trace_sample_every = 0)
      : socket(cluster->net().Bind(MakeAddress(host))) {
    ClientConfig config;
    config.inr = inr;
    config.dsr = cluster->dsr_address();
    config.trace_sample_every = trace_sample_every;
    client = std::make_unique<InsClient>(&cluster->loop(), socket.get(), config);
    client->Start();
  }

  std::unique_ptr<sim::Network::Socket> socket;
  std::unique_ptr<InsClient> client;
};

TEST(StageAttributionTest, StageSpansReconcileAgainstEndToEndLatency) {
  SimCluster cluster;
  Inr* a = cluster.AddInr(1);
  cluster.loop().RunFor(Seconds(1));
  Inr* b = cluster.AddInr(2);
  cluster.loop().RunFor(Seconds(1));
  cluster.AddInr(3);
  cluster.StabilizeTopology();

  // Service behind `b`, user at `a`: every sampled journey crosses at least
  // one overlay hop, so the transport stage is exercised too.
  ClientHarness service(&cluster, 30, b->address());
  auto ad = service.client->Advertise(P("[service=camera]"));
  cluster.loop().RunFor(Seconds(3));
  ClientHarness user(&cluster, 20, a->address(), /*trace_sample_every=*/1);
  cluster.Settle();

  int received = 0;
  service.client->OnData([&](const NameSpecifier&, const Bytes&) { ++received; });
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(user.client->SendAnycast(P("[service=camera]"), {1}).ok());
    cluster.Settle();
  }
  ASSERT_EQ(received, 20);

  TraceCollector collector = cluster.CollectTraces();
  StageAttribution att = collector.Attribution();
  ASSERT_GE(att.journeys, 20u);
  // The acceptance bar: classified stage spans account for at least 90% of
  // measured end-to-end latency (here they partition it exactly).
  EXPECT_GE(att.CoverageFraction(), 0.9);
  EXPECT_GT(att.elapsed_total_us, 0u);
  // Cross-resolver journeys spend time in transport and end in delivery.
  EXPECT_GT(att.stage_us[static_cast<size_t>(LatencyStage::kTransport)].count(), 0u);
  EXPECT_GT(att.stage_us[static_cast<size_t>(LatencyStage::kDelivery)].count(), 0u);
  const std::string table = att.Table();
  EXPECT_NE(table.find("transport"), std::string::npos);
  EXPECT_NE(table.find("lookup"), std::string::npos);

  // The same decomposition lands node-locally in each resolver's registry —
  // what netmon polls without any trace ring in sight.
  uint64_t stage_samples = 0;
  for (Inr* inr : cluster.inrs()) {
    for (const auto& [name, h] : inr->metrics().Snapshot().histograms) {
      if (name.rfind("latency.stage.", 0) == 0) {
        stage_samples += h.count();
      }
    }
  }
  EXPECT_GT(stage_samples, 0u);

  // The Chrome trace carries the stage spans as complete ("ph":"X") events.
  const std::string json = collector.ChromeTraceJson();
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("transport"), std::string::npos);
}

TEST(FlightTimelineTest, ReplicaKillProducesACausallyOrderedIncident) {
  ClusterOptions options;
  options.inr_template.replication.enabled = true;
  options.inr_template.replication.replica_k = 2;
  SimCluster cluster(options);
  for (uint32_t i = 1; i <= 3; ++i) {
    cluster.AddInr(i);
    cluster.loop().RunFor(Seconds(1));
  }
  cluster.StabilizeTopology();

  ClientHarness ha(&cluster, 30, cluster.inrs()[1]->address());
  auto ad = ha.client->Advertise(P("[vspace=ha][service=hasvc]"));
  cluster.loop().RunFor(Seconds(30));  // replica set forms (k=2)

  // Find a resolver routing "ha" and kill it.
  Inr* victim = nullptr;
  for (Inr* inr : cluster.inrs()) {
    if (inr->vspaces().Routes("ha") && inr != cluster.inrs()[1]) {
      victim = inr;
    }
  }
  if (victim == nullptr) {
    victim = cluster.inrs()[1];
  }
  const NodeAddress victim_addr = victim->address();
  cluster.CrashInr(victim);
  cluster.loop().RunFor(Seconds(60));  // digest silence -> replica declared dead

  std::vector<FlightEvent> timeline = cluster.CollectFlightEvents();
  // The crash (harvested from the dead node's own ring) precedes the
  // survivor's replica-death verdict in the merged timeline.
  int crash_at = -1;
  int dead_at = -1;
  for (size_t i = 0; i < timeline.size(); ++i) {
    const FlightEvent& ev = timeline[i];
    if (ev.kind == FlightEventKind::kInrCrash && ev.node == victim_addr && crash_at < 0) {
      crash_at = static_cast<int>(i);
    }
    if (ev.kind == FlightEventKind::kReplicaDead && ev.peer == victim_addr && dead_at < 0) {
      dead_at = static_cast<int>(i);
    }
  }
  ASSERT_GE(crash_at, 0) << FlightTimelineText(timeline);
  ASSERT_GE(dead_at, 0) << FlightTimelineText(timeline);
  EXPECT_LT(crash_at, dead_at);

  const std::string text = FlightTimelineText(timeline);
  EXPECT_NE(text.find("inr-crash"), std::string::npos);
  EXPECT_NE(text.find("replica-dead"), std::string::npos);
}

TEST(FlightTimelineTest, IncidentDumpIsWrittenEvenWithoutLostJourneys) {
  SimCluster cluster;
  cluster.AddInr(1);
  cluster.StabilizeTopology();

  char dir_template[] = "/tmp/ins_obs_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template), nullptr);
  setenv("INS_TRACE_DUMP_DIR", dir_template, 1);
  cluster.DumpLostJourneys("obs_unit");
  unsetenv("INS_TRACE_DUMP_DIR");

  std::ifstream incident(std::string(dir_template) + "/obs_unit.incident.txt");
  ASSERT_TRUE(incident.good());
  std::string contents((std::istreambuf_iterator<char>(incident)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("inr-start"), std::string::npos);
}

TEST(InstrumentBlindSpotTest, OverfilledRingsShowInMetricsSnapshot) {
  ClusterOptions options;
  options.inr_template.trace_ring_capacity = 4;
  options.inr_template.flight_recorder_capacity = 4;
  SimCluster cluster(options);
  Inr* inr = cluster.AddInr(1);
  cluster.StabilizeTopology();
  for (int i = 0; i < 10; ++i) {
    TraceEvent ev;
    ev.trace_id = static_cast<uint64_t>(i + 1);
    inr->trace_ring().Record(ev);
    inr->flight_recorder().Record(cluster.loop().Now(), FlightEventKind::kEdgeDown,
                                  FlightSeverity::kWarning);
  }
  const uint64_t trace_lost = inr->trace_ring().overwritten();
  const uint64_t flight_lost = inr->flight_recorder().overwritten();
  ASSERT_GE(trace_lost, 6u);
  ASSERT_GE(flight_lost, 6u);

  auto poller = cluster.AddEndpoint(40);
  MetricsDeltaRequest req;
  req.request_id = 7;
  req.since_seq = 0;  // no baseline: the answer is the full snapshot
  poller->Send(inr->address(), Envelope{MessageBody(req)});
  cluster.loop().RunFor(Seconds(1));
  const auto responses = poller->ReceivedOf<MetricsDeltaResponse>();
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_TRUE(responses[0].full);
  std::map<std::string, int64_t> gauges;
  for (const auto& g : responses[0].gauges) {
    gauges[g.name] = g.value;
  }
  EXPECT_EQ(gauges["inr.trace_ring.overwritten"], static_cast<int64_t>(trace_lost));
  EXPECT_EQ(gauges["inr.flight.overwritten"], static_cast<int64_t>(flight_lost));
}

}  // namespace
}  // namespace ins
