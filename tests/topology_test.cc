// Tests for the self-configuring spanning-tree overlay.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "ins/harness/cluster.h"

namespace ins {
namespace {

// Counts undirected overlay links, verifying symmetric neighbor views.
size_t CountLinks(std::vector<Inr*> inrs) {
  std::map<NodeAddress, std::set<NodeAddress>> adj;
  for (Inr* inr : inrs) {
    for (const NodeAddress& n : inr->topology().NeighborAddresses()) {
      adj[inr->address()].insert(n);
    }
  }
  size_t links = 0;
  for (const auto& [a, peers] : adj) {
    for (const NodeAddress& b : peers) {
      EXPECT_TRUE(adj[b].count(a) > 0)
          << "asymmetric link " << a.ToString() << " <-> " << b.ToString();
      if (a < b) {
        ++links;
      }
    }
  }
  return links;
}

// Union-find connectivity check over the overlay.
bool IsConnectedTree(std::vector<Inr*> inrs) {
  if (inrs.empty()) {
    return true;
  }
  std::map<NodeAddress, NodeAddress> parent;
  std::function<NodeAddress(NodeAddress)> find = [&](NodeAddress x) {
    while (parent[x] != x) {
      x = parent[x] = parent[parent[x]];
    }
    return x;
  };
  for (Inr* inr : inrs) {
    parent.emplace(inr->address(), inr->address());
  }
  size_t merges = 0;
  for (Inr* inr : inrs) {
    for (const NodeAddress& n : inr->topology().NeighborAddresses()) {
      NodeAddress ra = find(inr->address());
      NodeAddress rb = find(n);
      if (ra != rb) {
        parent[ra] = rb;
        ++merges;
      }
    }
  }
  return merges == inrs.size() - 1 && CountLinks(inrs) == inrs.size() - 1;
}

TEST(TopologyTest, SingleInrJoinsAsRoot) {
  SimCluster cluster;
  Inr* a = cluster.AddInr(1);
  cluster.loop().RunFor(Seconds(2));
  EXPECT_TRUE(a->topology().joined());
  EXPECT_TRUE(a->topology().NeighborAddresses().empty());
}

TEST(TopologyTest, TwoInrsPeer) {
  SimCluster cluster;
  Inr* a = cluster.AddInr(1);
  cluster.loop().RunFor(Seconds(1));
  Inr* b = cluster.AddInr(2);
  cluster.StabilizeTopology();
  EXPECT_EQ(a->topology().NeighborAddresses(), std::vector<NodeAddress>{b->address()});
  EXPECT_EQ(b->topology().NeighborAddresses(), std::vector<NodeAddress>{a->address()});
  EXPECT_EQ(b->topology().parent(), a->address());
}

TEST(TopologyTest, SequentialJoinsFormSpanningTree) {
  SimCluster cluster;
  for (uint32_t i = 1; i <= 8; ++i) {
    cluster.AddInr(i);
    cluster.loop().RunFor(Seconds(1));
  }
  cluster.StabilizeTopology();
  EXPECT_TRUE(IsConnectedTree(cluster.inrs()));
}

TEST(TopologyTest, SimultaneousJoinsFormSpanningTree) {
  SimCluster cluster;
  // All at once: the DSR's linear order resolves the race.
  for (uint32_t i = 1; i <= 6; ++i) {
    cluster.AddInr(i);
  }
  cluster.StabilizeTopology();
  EXPECT_TRUE(IsConnectedTree(cluster.inrs()));
}

TEST(TopologyTest, NewInrPicksMinimumRttPeer) {
  SimCluster cluster;
  // Host 3 is much closer to host 2 than to host 1.
  cluster.net().SetLink(MakeAddress(1).ip, MakeAddress(3).ip, {Milliseconds(50), 0, 0});
  cluster.net().SetLink(MakeAddress(2).ip, MakeAddress(3).ip, {Milliseconds(2), 0, 0});
  cluster.AddInr(1);
  cluster.loop().RunFor(Seconds(1));
  cluster.AddInr(2);
  cluster.loop().RunFor(Seconds(1));
  Inr* c = cluster.AddInr(3);
  cluster.StabilizeTopology();
  EXPECT_EQ(c->topology().parent(), MakeAddress(2));
}

TEST(TopologyTest, ParentFailureTriggersRejoin) {
  SimCluster cluster;
  Inr* a = cluster.AddInr(1);
  cluster.loop().RunFor(Seconds(1));
  Inr* b = cluster.AddInr(2);
  cluster.loop().RunFor(Seconds(1));
  Inr* c = cluster.AddInr(3);
  cluster.StabilizeTopology();
  ASSERT_TRUE(c->topology().joined());

  // Kill whoever c peers with (its parent), ungracefully.
  NodeAddress dead = *c->topology().parent();
  Inr* victim = dead == a->address() ? a : b;
  Inr* survivor = victim == a ? b : a;
  cluster.CrashInr(victim);

  // Keepalives (5 s interval, 3 missed) detect the failure; c rejoins.
  cluster.loop().RunFor(Seconds(40));
  EXPECT_TRUE(c->topology().joined());
  EXPECT_EQ(c->topology().parent(), survivor->address());
  EXPECT_GT(c->metrics().Counter("topology.neighbor_failures"), 0u);
}

TEST(TopologyTest, RestartedPeerRejoinResetsStaleEdge) {
  SimCluster cluster;
  Inr* a = cluster.AddInr(1);
  cluster.loop().RunFor(Seconds(1));
  Inr* b = cluster.AddInr(2);
  cluster.StabilizeTopology();
  ASSERT_TRUE(IsConnectedTree(cluster.inrs()));

  // b restarts amnesiac before a's keepalive verdict notices anything: its
  // rejoin PeerRequest reaches a resolver that still holds the old edge. The
  // stale edge must be torn down and re-formed, not silently reused — its
  // parent/child direction may no longer match the requester's view.
  cluster.CrashInr(b);
  Inr* b2 = cluster.RestartInr(2);
  cluster.StabilizeTopology();

  EXPECT_TRUE(b2->topology().joined());
  EXPECT_TRUE(IsConnectedTree(cluster.inrs()));
  EXPECT_GT(a->metrics().Counter("topology.edge_resets"), 0u);
}

TEST(TopologyTest, KeepaliveFromNonNeighborIsRepairedWithPeerClose) {
  SimCluster cluster;
  Inr* a = cluster.AddInr(1);
  cluster.StabilizeTopology();

  // A peer asserting a tree edge this resolver does not hold (the signature
  // of a half-open edge after an amnesiac restart) must be answered with
  // PeerClose so the sender drops its stale edge and rejoins.
  auto ghost = cluster.AddEndpoint(99);
  ghost->Send(a->address(), Envelope{MessageBody(PeerKeepalive{ghost->address()})});
  cluster.Settle();

  EXPECT_EQ(ghost->ReceivedOf<PeerClose>().size(), 1u);
  EXPECT_GT(a->metrics().Counter("topology.half_open_repairs"), 0u);
}

TEST(TopologyTest, GracefulStopNotifiesPeers) {
  SimCluster cluster;
  Inr* a = cluster.AddInr(1);
  cluster.loop().RunFor(Seconds(1));
  Inr* b = cluster.AddInr(2);
  cluster.StabilizeTopology();

  b->Stop();
  cluster.loop().RunFor(Seconds(1));
  // a learns immediately via PeerClose, no keepalive wait.
  EXPECT_TRUE(a->topology().NeighborAddresses().empty());
  // And the DSR no longer lists b.
  EXPECT_EQ(cluster.dsr().ActiveInrs(), std::vector<NodeAddress>{a->address()});
}

TEST(TopologyTest, TreeSurvivesLossyLinks) {
  ClusterOptions options;
  options.default_link = {Milliseconds(2), 0, 0.05};  // 5% loss
  SimCluster cluster(options);
  for (uint32_t i = 1; i <= 5; ++i) {
    cluster.AddInr(i);
    cluster.loop().RunFor(Seconds(1));
  }
  cluster.StabilizeTopology(Seconds(120));
  EXPECT_TRUE(IsConnectedTree(cluster.inrs()));
}

TEST(TopologyTest, ParentCrashRecoversUnderHeavyLoss) {
  // Parent-crash recovery while 15% of datagrams vanish: keepalive pings,
  // list requests, and peer handshakes all get lost along the way, so this
  // exercises the backoff-driven retry path end to end.
  ClusterOptions options;
  options.default_link = {Milliseconds(2), 0, 0.15};
  SimCluster cluster(options);
  for (uint32_t i = 1; i <= 5; ++i) {
    cluster.AddInr(i);
    cluster.loop().RunFor(Seconds(1));
  }
  cluster.StabilizeTopology(Seconds(120));
  ASSERT_EQ(cluster.CheckTreeInvariant(), "");

  // Crash a resolver that other nodes peer through (never the current root's
  // own child-free leaf): pick the parent of the last joiner.
  Inr* last = cluster.inrs().back();
  NodeAddress dead = *last->topology().parent();
  Inr* victim = nullptr;
  for (Inr* inr : cluster.inrs()) {
    if (inr->address() == dead) {
      victim = inr;
    }
  }
  ASSERT_NE(victim, nullptr);
  cluster.CrashInr(victim);

  // Everyone who peered through the victim re-joins despite the loss.
  auto took = cluster.MeasureReconvergence(Seconds(120));
  ASSERT_TRUE(took.has_value()) << cluster.CheckTreeInvariant();
  EXPECT_TRUE(last->topology().joined());
  EXPECT_NE(last->topology().parent(), dead);
}

}  // namespace
}  // namespace ins
