// METRICS.md drift test: the catalogue and the runtime registry must agree.
//
// Direction 1 (runtime -> doc): every metric name a fully-exercised cluster
// registers must appear in METRICS.md — new code cannot add an undocumented
// metric.
// Direction 2 (doc -> runtime): every name METRICS.md documents must be
// registered by the exercised scenario (or sit on the explicit event-only
// exemption list below) — the catalogue cannot describe metrics that no
// longer exist.
//
// The catalogue's table rows name metrics in backticks in the first column;
// `a / b` cells document two names, `class{0,1,2}` expands the brace set, and
// the forwarding.drop.* family documents suffixes in its own table.

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "ins/client/api.h"
#include "ins/harness/cluster.h"
#include "ins/name/parser.h"
#include "ins/transport/batched_udp_transport.h"

#ifndef INS_METRICS_MD_PATH
#error "INS_METRICS_MD_PATH must point at METRICS.md"
#endif

namespace ins {
namespace {

NameSpecifier P(const char* text) {
  auto r = ParseNameSpecifier(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status();
  return std::move(r).value();
}

// Expands one documented token into metric names: expands a single {x,y,z}
// brace group (`admission.admitted.class{0,1,2}` documents three counters).
void ExpandDocName(const std::string& raw, std::set<std::string>* out) {
  size_t open = raw.find('{');
  size_t close = raw.find('}');
  if (open != std::string::npos && close != std::string::npos && close > open) {
    std::string prefix = raw.substr(0, open);
    std::string suffix = raw.substr(close + 1);
    std::stringstream alts(raw.substr(open + 1, close - open - 1));
    std::string alt;
    while (std::getline(alts, alt, ',')) {
      ExpandDocName(prefix + alt + suffix, out);
    }
    return;
  }
  out->insert(raw);
}

// Every backticked token in METRICS.md that looks like a metric name
// (lowercase dotted path). Suffix-table rows (bare words like `hop_limit`)
// are collected separately under the drop-family prefix.
void ParseCatalogue(std::set<std::string>* documented) {
  std::ifstream md(INS_METRICS_MD_PATH);
  ASSERT_TRUE(md.good()) << "cannot read " << INS_METRICS_MD_PATH;
  std::string line;
  bool in_drop_table = false;
  while (std::getline(md, line)) {
    if (line.rfind("#", 0) == 0) {
      in_drop_table = line.find("forwarding.drop.*") != std::string::npos;
    }
    if (line.rfind("|", 0) != 0) {
      continue;
    }
    // All backticked tokens in the first column — cells document several
    // names as `a` / `b` / `c`. Later columns are prose.
    const size_t column_end = line.find('|', 1);
    const std::string cell =
        column_end == std::string::npos ? line : line.substr(0, column_end);
    for (size_t tick = cell.find('`'); tick != std::string::npos;) {
      size_t end = cell.find('`', tick + 1);
      if (end == std::string::npos) {
        break;
      }
      std::string token = cell.substr(tick + 1, end - tick - 1);
      if (in_drop_table) {
        // Rows document bare drop-reason suffixes under the family prefix.
        documented->insert("forwarding.drop." + token);
      } else if (token.find('.') != std::string::npos) {
        ExpandDocName(token, documented);
      }
      tick = cell.find('`', end + 1);
    }
  }
}

// Documented names whose registration needs an event this deterministic
// scenario cannot cheaply provoke (error paths, rare protocol repairs). Each
// stays documented; this list only waives the "must register here"
// direction, and shrinking it is always safe.
const std::set<std::string>& EventOnlyExemptions() {
  static const std::set<std::string> kExempt = {
      // Registered only when their event first fires; this healthy three-node
      // scenario never attaches via DSR discovery, multicasts, resolves
      // early, expires names, or loses a neighbor.
      "client.attach_attempts", "client.attached", "client.multicasts_sent",
      "client.resolves_sent", "cluster.reconverge", "discovery.advertisements_forwarded",
      "discovery.names_expired", "discovery.periodic_updates_sent",
      "discovery.routes_purged", "discovery.stale_advertisements",
      "discovery.stale_update_entries", "dsr.expirations", "dsr.vspace_requests",
      "inr.decode_errors", "lb.lookup_rate", "lb.update_entry_rate",
      "replica.digests_sent", "replication.tombstones_applied",
      "topology.join_watchdog_retries", "topology.neighbor_failures",
      "topology.neighbors_removed", "topology.rejoins", "topology.root_watch_probes",
      "vspace.owner_cache_hits",
      // Error/repair paths this healthy-cluster scenario never trips.
      "inr.messages_while_stopped", "inr.unexpected_messages", "inr.bad_discovery_filters",
      "inr.vspaces_accepted", "inr.vspaces_recovered", "discovery.bad_advertisements",
      "discovery.bad_update_entries", "discovery.updates_unrouted_space",
      "dsr.unregisters", "dsr.decode_errors", "dsr.unexpected_messages",
      "client.decode_errors", "client.unexpected_messages", "client.pending_overflow",
      "client.failovers", "client.request_timeouts", "client.address_changes",
      "client.discover_retries", "client.resolve_retries",
      "topology.stale_accepts", "topology.half_open_repairs", "topology.order_lapses",
      "topology.lapse_dissolves", "topology.edge_resets", "topology.join_retries",
      "replication.snapshots_sent", "replication.snapshots_applied",
      "replication.snapshot_purged", "replication.serial_regressions",
      "replication.transfer_retries", "replication.transfer_aborts",
      "replication.chunk_gaps", "replication.unexpected_responses",
      "replication.non_neighbor_messages", "replication.requests_unrouted_space",
      "replica.peer_deaths", "replica.dead_reports_sent", "replica.routes_retained",
      "availability.failovers", "availability.dead_replicas",
      "availability.dead_replica_reroutes",
      "dsr.dead_reports", "dsr.dead_reports_ignored", "dsr.suspects_cleared",
      "dsr.candidate_registrations", "dsr.candidate_requests",
      "lb.spawns_requested", "lb.no_candidates", "lb.delegations",
      "lb.terminations_requested",
      "vspace.owner_cache_misses",
      "forwarding.drop.hop_limit", "forwarding.drop.deadline",
      "forwarding.drop.bad_destination", "forwarding.drop.vspace_unresolved",
      "forwarding.drop.shed_class0", "forwarding.drop.shed_class1",
      "forwarding.drop.shed_class2",
      "forwarding.multicast", "forwarding.early_binding", "forwarding.cross_vspace",
      "forwarding.cache_answers", "forwarding.cache_inserts",
      "admission.shed_queue_full", "admission.shed_lag",
      "faults.partitions", "faults.heals", "faults.loss_bursts", "faults.delay_spikes",
      "faults.corruption_storms", "faults.partition_dropped", "faults.burst_dropped",
      "faults.corrupted", "faults.delayed",
      "cluster.replica_converge",
  };
  return kExempt;
}

// Prefixes whose members are documented as a family (per-bucket/per-class
// names, timing mirrors) rather than one row per name.
bool DocumentedAsFamily(const std::string& name) {
  for (const char* prefix :
       {"admission.admitted.class", "admission.processed.class", "forwarding.drop.",
        "latency.stage."}) {
    if (name.rfind(prefix, 0) == 0) {
      return true;
    }
  }
  return false;
}

// Exercise every documented subsystem in one deterministic run and union all
// registries the harness can see.
void CollectRuntimeNames(std::set<std::string>* runtime) {
  ClusterOptions options;
  options.inr_template.netmon.advertise = true;
  options.inr_template.replication.enabled = true;
  options.inr_template.replication.replica_k = 2;
  SimCluster cluster(options);
  Inr* a = cluster.AddInr(1);
  cluster.loop().RunFor(Seconds(1));
  Inr* b = cluster.AddInr(2);
  cluster.loop().RunFor(Seconds(1));
  cluster.AddInr(3);
  cluster.StabilizeTopology();

  struct ClientHarness {
    ClientHarness(SimCluster* cluster, uint32_t host, NodeAddress inr)
        : socket(cluster->net().Bind(MakeAddress(host))) {
      ClientConfig config;
      config.inr = inr;
      config.dsr = cluster->dsr_address();
      config.trace_sample_every = 1;
      client = std::make_unique<InsClient>(&cluster->loop(), socket.get(), config);
      client->Start();
    }
    std::unique_ptr<sim::Network::Socket> socket;
    std::unique_ptr<InsClient> client;
  };

  ClientHarness service(&cluster, 30, b->address());
  auto ad = service.client->Advertise(P("[service=camera]"));
  auto ha_ad = service.client->Advertise(P("[vspace=ha][service=hasvc]"));
  cluster.loop().RunFor(Seconds(30));
  ClientHarness user(&cluster, 20, a->address());
  cluster.Settle();
  service.client->OnData([](const NameSpecifier&, const Bytes&) {});
  for (int i = 0; i < 5; ++i) {
    user.client->SendAnycast(P("[service=camera]"), {1}).ok();
    user.client->SendAnycast(P("[service=missing]"), {1}).ok();  // no_match drop
    user.client->Discover(P("[service=*]"), "", [](auto&&...) {});
    cluster.Settle();
  }
  // An incremental metrics poll exercises the time-series counters.
  auto poller = cluster.AddEndpoint(40);
  MetricsDeltaRequest req;
  req.request_id = 1;
  poller->Send(a->address(), Envelope{MessageBody(req)});
  cluster.Settle();
  req.request_id = 2;
  req.since_seq = 1;
  poller->Send(a->address(), Envelope{MessageBody(req)});
  cluster.loop().RunFor(Seconds(60));  // expiry sweeps, keepalives, digests

  auto absorb = [runtime](const MetricsSnapshot& snap) {
    for (const auto& [name, v] : snap.counters) {
      runtime->insert(name);
    }
    for (const auto& [name, v] : snap.gauges) {
      runtime->insert(name);
    }
    for (const auto& [name, v] : snap.histograms) {
      runtime->insert(name);
    }
    for (const auto& [name, v] : snap.timings) {
      runtime->insert(name);
    }
  };
  for (Inr* inr : cluster.inrs()) {
    absorb(inr->metrics().Snapshot());
  }
  absorb(cluster.dsr().metrics().Snapshot());
  absorb(cluster.metrics().Snapshot());
  absorb(cluster.faults().metrics().Snapshot());
  absorb(service.client->metrics().Snapshot());
  absorb(user.client->metrics().Snapshot());

  // The sim cluster has no sockets: the transport.* names come from one real
  // transport attached to a registry of its own.
  RealEventLoop real_loop;
  auto transport = BatchedUdpTransport::Bind(&real_loop, MakeAddress(50, 43481));
  ASSERT_TRUE(transport.ok()) << transport.status();
  MetricsRegistry transport_metrics;
  (*transport)->AttachMetrics(&transport_metrics);
  absorb(transport_metrics.Snapshot());
}

TEST(MetricsCatalogTest, RuntimeAndCatalogueAgree) {
  std::set<std::string> documented;
  ParseCatalogue(&documented);
  ASSERT_GT(documented.size(), 100u) << "catalogue parse collapsed";

  std::set<std::string> runtime;
  CollectRuntimeNames(&runtime);
  ASSERT_GT(runtime.size(), 50u) << "scenario registered suspiciously few metrics";

  // Direction 1: everything the runtime registers is documented.
  for (const std::string& name : runtime) {
    EXPECT_TRUE(documented.count(name) || DocumentedAsFamily(name))
        << "runtime metric `" << name << "` is not documented in METRICS.md";
  }

  // Direction 2: everything documented is real — registered by this scenario
  // or explicitly exempted as event-only.
  for (const std::string& name : documented) {
    if (EventOnlyExemptions().count(name)) {
      continue;
    }
    EXPECT_TRUE(runtime.count(name))
        << "METRICS.md documents `" << name
        << "` but the exercised cluster never registered it";
  }

  // The exemption list may not rot either: every entry must still be
  // documented (delete entries when their metric leaves the catalogue).
  for (const std::string& name : EventOnlyExemptions()) {
    EXPECT_TRUE(documented.count(name))
        << "exemption `" << name << "` no longer exists in METRICS.md";
  }
}

}  // namespace
}  // namespace ins
