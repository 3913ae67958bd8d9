// End-to-end integration tests: whole-system convergence, churn, failure
// injection, lossy links, and cross-subsystem scenarios that no unit test
// covers. These are the "robustness" design goal (§1) made executable.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <ostream>
#include <set>

#include "ins/client/api.h"
#include "ins/client/mobility.h"
#include "ins/harness/cluster.h"
#include "ins/name/parser.h"

namespace ins {
namespace {

NameSpecifier P(const std::string& text) {
  auto r = ParseNameSpecifier(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status();
  return std::move(r).value();
}

struct AppHost {
  AppHost(SimCluster* cluster, uint32_t host, NodeAddress inr)
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

// Every resolver eventually knows every advertised name.
bool Converged(SimCluster& cluster, const std::string& vspace, size_t expected) {
  for (Inr* inr : cluster.inrs()) {
    if (!inr->running()) {
      continue;
    }
    const NameTree* tree = inr->vspaces().Tree(vspace);
    if (tree == nullptr || tree->record_count() != expected) {
      return false;
    }
  }
  return true;
}

// --- Convergence sweeps -----------------------------------------------------

struct ConvergenceParams {
  uint32_t inrs;
  uint32_t services;
  double loss;
};

// Spells the fields out, e.g. "inrs4_services12_loss2pct". gtest_discover_tests
// names each ctest case after the printed parameter, so this is also the
// case name ctest shows.
void PrintTo(const ConvergenceParams& p, std::ostream* os) {
  *os << "inrs" << p.inrs << "_services" << p.services << "_loss" << std::lround(p.loss * 100)
      << "pct";
}

class ConvergenceTest : public ::testing::TestWithParam<ConvergenceParams> {};

TEST_P(ConvergenceTest, AllResolversLearnAllNames) {
  const auto& p = GetParam();
  ClusterOptions options;
  options.default_link = {Milliseconds(2), 0, p.loss};
  options.seed = p.inrs * 1000 + p.services;
  SimCluster cluster(options);
  for (uint32_t i = 1; i <= p.inrs; ++i) {
    cluster.AddInr(i);
    cluster.loop().RunFor(Seconds(1));
  }
  cluster.StabilizeTopology(Seconds(120));

  std::vector<std::unique_ptr<AppHost>> services;
  std::vector<std::unique_ptr<AdvertisementHandle>> handles;
  for (uint32_t s = 0; s < p.services; ++s) {
    auto inr = cluster.inrs()[s % p.inrs];
    services.push_back(std::make_unique<AppHost>(&cluster, 100 + s, inr->address()));
    handles.push_back(services.back()->client->Advertise(
        P("[service=sensor[id=s" + std::to_string(s) + "]][room=" +
          std::to_string(500 + s % 7) + "]")));
  }

  // Triggered updates should converge the system well within one periodic
  // interval even with loss (periodic refresh recovers lost triggers).
  TimePoint deadline = cluster.loop().Now() + Seconds(120);
  while (cluster.loop().Now() < deadline && !Converged(cluster, "", p.services)) {
    cluster.loop().RunFor(Seconds(1));
  }
  EXPECT_TRUE(Converged(cluster, "", p.services))
      << "after 120 s: " << cluster.inrs()[0]->DebugString();

  // Anycast from a client on the last resolver reaches some service.
  AppHost user(&cluster, 250 - 1, cluster.inrs().back()->address());
  int received = 0;
  for (auto& svc : services) {
    svc->client->OnData([&](const NameSpecifier&, const Bytes&) { ++received; });
  }
  // Datagram delivery is best-effort: under lossy links a single send can
  // vanish, so retry a few times (any one arrival proves the route).
  for (int attempt = 0; attempt < 5 && received == 0; ++attempt) {
    user.client->SendAnycast(P("[service=sensor]"), {1});
    cluster.loop().RunFor(Seconds(2));
  }
  EXPECT_GE(received, 1);
}

INSTANTIATE_TEST_SUITE_P(Topologies, ConvergenceTest,
                         ::testing::Values(ConvergenceParams{2, 6, 0.0},
                                           ConvergenceParams{4, 12, 0.0},
                                           ConvergenceParams{6, 18, 0.0},
                                           ConvergenceParams{8, 24, 0.0},
                                           ConvergenceParams{4, 12, 0.02},
                                           ConvergenceParams{6, 12, 0.05}));

// --- Failure injection --------------------------------------------------------

TEST(IntegrationTest, ResolverCrashHealsAndNamesSurvive) {
  SimCluster cluster;
  Inr* a = cluster.AddInr(1);
  cluster.loop().RunFor(Seconds(1));
  Inr* b = cluster.AddInr(2);
  cluster.loop().RunFor(Seconds(1));
  Inr* c = cluster.AddInr(3);
  cluster.StabilizeTopology();

  // Service attached to a; clients everywhere can reach it.
  AppHost svc(&cluster, 100, a->address());
  auto handle = svc.client->Advertise(P("[service=camera][room=510]"));
  cluster.loop().RunFor(Seconds(2));
  ASSERT_EQ(c->vspaces().Tree("")->record_count(), 1u);

  // The middle of the tree crashes (b is the likely hub; crash whichever is
  // c's parent).
  NodeAddress dead = *c->topology().parent();
  Inr* victim = dead == a->address() ? a : b;
  bool victim_had_service = victim == a;
  cluster.CrashInr(victim);

  // Keepalives detect the failure; the tree reconnects; soft state purges
  // what died with the victim.
  cluster.loop().RunFor(Seconds(90));
  for (Inr* inr : cluster.inrs()) {
    EXPECT_TRUE(inr->topology().joined());
  }
  if (victim_had_service) {
    // The service's resolver died. The client's liveness probe notices,
    // fails over to a survivor, and its refresh re-announces — the name must
    // still be reachable (the stale record from the dead path expired by
    // soft state; the refreshed one replaced it).
    EXPECT_GE(svc.client->metrics().Counter("client.failovers"), 1u);
    EXPECT_EQ(c->vspaces().Tree("")->record_count(), 1u);
  } else {
    // The service's resolver survived; after re-peering, its name must
    // still be (or become) known to the others via the periodic updates.
  }
  AppHost user(&cluster, 200, c->address());
  int got = 0;
  svc.client->OnData([&](const NameSpecifier&, const Bytes&) { ++got; });
  user.client->SendAnycast(P("[service=camera]"), {9});
  cluster.loop().RunFor(Seconds(2));
  EXPECT_EQ(got, 1);
}

TEST(IntegrationTest, ServiceReattachesAfterItsResolverDies) {
  SimCluster cluster;
  Inr* a = cluster.AddInr(1);
  cluster.loop().RunFor(Seconds(1));
  Inr* b = cluster.AddInr(2);
  cluster.StabilizeTopology();

  AppHost svc(&cluster, 100, a->address());
  auto handle = svc.client->Advertise(P("[service=camera]"));
  cluster.loop().RunFor(Seconds(1));

  cluster.CrashInr(a);

  // No application involvement needed: the client's attachment liveness
  // probe notices the dead resolver (missed pongs on the refresh tick),
  // fails over to b through the DSR, and the next refresh re-announces the
  // name there before the old record has even finished expiring.
  cluster.loop().RunFor(Seconds(90));
  EXPECT_EQ(svc.client->resolver(), b->address());
  EXPECT_GE(svc.client->metrics().Counter("client.failovers"), 1u);
  EXPECT_EQ(b->vspaces().Tree("")->record_count(), 1u);
}

TEST(IntegrationTest, DsrOutageDoesNotDisturbEstablishedOverlay) {
  SimCluster cluster;
  Inr* a = cluster.AddInr(1);
  cluster.loop().RunFor(Seconds(1));
  Inr* b = cluster.AddInr(2);
  cluster.StabilizeTopology();
  AppHost svc(&cluster, 100, a->address());
  auto handle = svc.client->Advertise(P("[service=camera]"));
  cluster.loop().RunFor(Seconds(1));

  // The DSR goes dark (blackhole by unbinding is not possible here, so the
  // moral equivalent: resolvers keep running; their registrations expire at
  // the DSR, but peer links and name flow do not depend on it).
  // Establish expected state first.
  ASSERT_EQ(b->vspaces().Tree("")->record_count(), 1u);

  // No DSR interaction is needed for steady-state operation: run a long
  // quiet period and verify data-path health.
  cluster.loop().RunFor(Seconds(120));
  AppHost user(&cluster, 200, b->address());
  int got = 0;
  svc.client->OnData([&](const NameSpecifier&, const Bytes&) { ++got; });
  user.client->SendAnycast(P("[service=camera]"), {1});
  cluster.loop().RunFor(Seconds(1));
  EXPECT_EQ(got, 1);
  EXPECT_EQ(a->topology().NeighborAddresses().size(), 1u);
  EXPECT_EQ(b->topology().NeighborAddresses().size(), 1u);
}

// --- Churn soak ----------------------------------------------------------------

TEST(IntegrationTest, ServiceChurnConvergesToFinalSet) {
  SimCluster cluster;
  Inr* a = cluster.AddInr(1);
  cluster.loop().RunFor(Seconds(1));
  Inr* b = cluster.AddInr(2);
  cluster.loop().RunFor(Seconds(1));
  Inr* c = cluster.AddInr(3);
  cluster.StabilizeTopology();
  std::vector<Inr*> inrs = {a, b, c};

  Rng rng(77);
  std::vector<std::unique_ptr<AppHost>> hosts;
  std::map<int, std::unique_ptr<AdvertisementHandle>> live;
  for (int i = 0; i < 12; ++i) {
    hosts.push_back(
        std::make_unique<AppHost>(&cluster, 100 + static_cast<uint32_t>(i),
                                  inrs[static_cast<size_t>(i) % 3]->address()));
  }

  // 2 minutes of churn: advertise, drop, re-advertise at random.
  for (int step = 0; step < 60; ++step) {
    int i = static_cast<int>(rng.NextBelow(12));
    if (live.count(i) != 0 && rng.NextBool(0.4)) {
      live.erase(i);  // handle dropped: name will soft-expire
    } else if (live.count(i) == 0) {
      live[i] = hosts[static_cast<size_t>(i)]->client->Advertise(
          P("[service=sensor[id=s" + std::to_string(i) + "]]"));
    }
    cluster.loop().RunFor(Seconds(2));
  }

  // Let soft state settle: everything alive refreshed, everything dropped
  // expired (45 s lifetime).
  cluster.loop().RunFor(Seconds(90));
  for (Inr* inr : inrs) {
    EXPECT_EQ(inr->vspaces().Tree("")->record_count(), live.size())
        << inr->address().ToString() << ":\n"
        << inr->vspaces().Tree("")->DebugString();
    EXPECT_TRUE(inr->vspaces().Tree("")->CheckInvariants().ok());
  }
}

TEST(IntegrationTest, MobileServiceTrackedAcrossResolvers) {
  // A camera moves between hosts attached to different resolvers while a
  // viewer keeps requesting by intentional name.
  SimCluster cluster;
  Inr* a = cluster.AddInr(1);
  cluster.loop().RunFor(Seconds(1));
  Inr* b = cluster.AddInr(2);
  cluster.StabilizeTopology();

  AppHost cam(&cluster, 100, a->address());
  auto handle = cam.client->Advertise(P("[service=camera][room=510]"));
  MobilityManager mobility(&cluster.loop(), cam.client.get(),
                           [&](const NodeAddress& addr) { return cam.socket->Rebind(addr); });
  AppHost viewer(&cluster, 200, b->address());
  cluster.loop().RunFor(Seconds(2));  // the camera's name reaches b

  int got = 0;
  cam.client->OnData([&](const NameSpecifier&, const Bytes&) { ++got; });

  for (int round = 0; round < 4; ++round) {
    viewer.client->SendAnycast(P("[service=camera][room=510]"), {1});
    cluster.loop().RunFor(Seconds(2));
    ASSERT_EQ(got, round + 1) << "round " << round;
    // Move to a fresh address; re-announcement races are covered by the
    // triggered updates.
    ASSERT_TRUE(mobility.Move(MakeAddress(110 + static_cast<uint32_t>(round))).ok());
    cluster.loop().RunFor(Seconds(2));
  }
  EXPECT_EQ(cam.client->metrics().Counter("client.address_changes"), 4u);
}

TEST(IntegrationTest, TwoVspacesOperateIndependentlyUnderLoad) {
  SimCluster cluster;
  Inr* a = cluster.AddInr(1, {"east"});
  cluster.loop().RunFor(Seconds(1));
  Inr* b = cluster.AddInr(2, {"west"});
  cluster.StabilizeTopology();

  AppHost east_svc(&cluster, 100, a->address());
  AppHost west_svc(&cluster, 101, b->address());
  auto h1 = east_svc.client->Advertise(P("[vspace=east][service=camera]"));
  auto h2 = west_svc.client->Advertise(P("[vspace=west][service=camera]"));
  cluster.loop().RunFor(Seconds(1));

  // A client attached to a reaches both spaces; traffic for west tunnels.
  AppHost user(&cluster, 200, a->address());
  int east_got = 0;
  int west_got = 0;
  east_svc.client->OnData([&](const NameSpecifier&, const Bytes&) { ++east_got; });
  west_svc.client->OnData([&](const NameSpecifier&, const Bytes&) { ++west_got; });
  for (int i = 0; i < 5; ++i) {
    user.client->SendAnycast(P("[vspace=east][service=camera]"), {1});
    user.client->SendAnycast(P("[vspace=west][service=camera]"), {2});
    cluster.loop().RunFor(Seconds(1));
  }
  EXPECT_EQ(east_got, 5);
  EXPECT_EQ(west_got, 5);
  // East names never leak into west's tree or vice versa.
  EXPECT_EQ(a->vspaces().Tree("east")->record_count(), 1u);
  EXPECT_EQ(a->vspaces().Tree("west"), nullptr);
  EXPECT_EQ(b->vspaces().Tree("west")->record_count(), 1u);
}

}  // namespace
}  // namespace ins
