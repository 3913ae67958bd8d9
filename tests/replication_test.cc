// Journaled delta replication with anti-entropy digests (inr/replication.h):
// steady-state liveness leases instead of periodic refresh storms, partition
// repair via O(changes) delta transfers, ring-wraparound snapshot fallback,
// idempotent/commutative delta application, and the transfer state machine's
// timeout/retry/abort path. Everything here runs with the feature flag ON;
// the rest of the suite pins the flag-off seed behaviour.

#include <gtest/gtest.h>

#include "ins/harness/cluster.h"
#include "ins/inr/admission.h"
#include "ins/name/parser.h"

namespace ins {
namespace {

Advertisement MakeAd(const std::string& name_text, const NodeAddress& endpoint,
                     uint64_t version = 1, uint32_t discriminator = 0) {
  Advertisement ad;
  ad.name_text = name_text;
  ad.announcer = AnnouncerId{endpoint.ip, 1000, discriminator};
  ad.endpoint.address = endpoint;
  ad.lifetime_s = 45;
  ad.version = version;
  return ad;
}

ClusterOptions ReplicatedOptions(uint64_t seed = 1) {
  ClusterOptions options;
  options.seed = seed;
  options.inr_template.replication.enabled = true;
  return options;
}

// announcer -> version view of one resolver's records in `vspace`.
std::map<AnnouncerId, uint64_t> StateOf(Inr* inr, const std::string& vspace = "") {
  std::map<AnnouncerId, uint64_t> view;
  if (const NameTree* tree = inr->vspaces().store().Tree(vspace)) {
    for (const NameRecord* rec : tree->AllRecords()) {
      view[rec->announcer] = rec->version;
    }
  }
  return view;
}

TEST(ReplicationTest, ReplicationMessagesAreAdmissionClass0) {
  // Digest/delta traffic is what keeps replicas converged under exactly the
  // overloads that shed lower classes — it must ride with the keepalives.
  EXPECT_EQ(ClassifyMessage(Envelope{MessageBody(JournalDigest{})}), 0);
  EXPECT_EQ(ClassifyMessage(Envelope{MessageBody(JournalDeltaRequest{})}), 0);
  EXPECT_EQ(ClassifyMessage(Envelope{MessageBody(JournalDeltaResponse{})}), 0);
}

TEST(ReplicationTest, DigestLeasesKeepReplicasAliveWithoutPeriodicUpdates) {
  SimCluster cluster(ReplicatedOptions());
  Inr* a = cluster.AddInr(1);
  cluster.loop().RunFor(Seconds(1));
  Inr* b = cluster.AddInr(2);
  cluster.StabilizeTopology();
  auto svc = cluster.AddEndpoint(10);

  // The service keeps refreshing its advertisement at a (same version =
  // refresh, not journaled). b's replica must stay alive PAST its shipped
  // 45 s lifetime purely on digest leases — the periodic O(names) refresh
  // updates are suppressed.
  const auto q = *ParseNameSpecifier("[service=camera]");
  for (int t = 0; t <= 70; t += 10) {
    svc->Send(a->address(), Envelope{MessageBody(MakeAd("[service=camera]", svc->address()))});
    cluster.loop().RunFor(Seconds(10));
    ASSERT_EQ(b->vspaces().Tree("")->Lookup(q).size(), 1u) << "t=" << t;
  }

  EXPECT_EQ(a->metrics().Counter("discovery.periodic_updates_sent"), 0u);
  EXPECT_EQ(b->metrics().Counter("discovery.periodic_updates_sent"), 0u);
  EXPECT_GT(b->metrics().Counter("replication.leases_renewed"), 0u);
  EXPECT_GT(a->metrics().Counter("replication.digests_sent"), 0u);

  // Once the service stops refreshing, a expires the record locally and the
  // kExpire tombstone replicates: both resolvers drop it.
  cluster.loop().RunFor(Seconds(60));
  EXPECT_EQ(a->vspaces().Tree("")->Lookup(q).size(), 0u);
  EXPECT_EQ(b->vspaces().Tree("")->Lookup(q).size(), 0u);
  EXPECT_TRUE(cluster.CheckReplicationConvergence().empty())
      << cluster.CheckReplicationConvergence();
}

TEST(ReplicationTest, HealedPartitionConvergesWithinOneRefreshPeriod) {
  SimCluster cluster(ReplicatedOptions());
  Inr* a = cluster.AddInr(1);
  cluster.loop().RunFor(Seconds(1));
  Inr* b = cluster.AddInr(2);
  cluster.loop().RunFor(Seconds(1));
  Inr* c = cluster.AddInr(3);
  cluster.StabilizeTopology();
  auto svc = cluster.AddEndpoint(10);

  svc->Send(a->address(), Envelope{MessageBody(MakeAd("[service=base]", svc->address()))});
  cluster.loop().RunFor(Seconds(2));
  ASSERT_TRUE(cluster.CheckReplicationConvergence().empty());

  // Partition shorter than the keepalive failure window (3 x 5 s): the
  // overlay edges survive, but b and c miss every triggered update for the
  // names advertised meanwhile.
  cluster.Partition({{1, 10, SimCluster::kDsrHostIndex}, {2, 3}});
  for (int i = 0; i < 10; ++i) {
    svc->Send(a->address(),
              Envelope{MessageBody(MakeAd("[service=part][id=" + std::to_string(i) + "]",
                                          svc->address(), 1,
                                          100 + static_cast<uint32_t>(i)))});
  }
  cluster.loop().RunFor(Seconds(8));
  ASSERT_FALSE(cluster.CheckReplicationConvergence().empty());

  cluster.Heal();
  // One refresh period (15 s) is the bound the seed protocol needs; the
  // anti-entropy digest round (5 s cadence) plus one delta transfer is what
  // actually converges it.
  auto took = cluster.MeasureReplicationConvergence(
      cluster.options().inr_template.discovery.update_interval);
  ASSERT_TRUE(took.has_value()) << cluster.CheckReplicationConvergence();

  EXPECT_GT(b->metrics().Counter("replication.delta_entries_applied") +
                c->metrics().Counter("replication.delta_entries_applied"),
            0u);
  EXPECT_EQ(StateOf(b).size(), 11u);
  EXPECT_EQ(StateOf(c).size(), 11u);
  for (Inr* inr : cluster.inrs()) {
    EXPECT_TRUE(inr->vspaces().store().CheckInvariants().ok()) << inr->address().ToString();
  }
}

TEST(ReplicationTest, JournalWraparoundFallsBackToSnapshotTransfer) {
  ClusterOptions options = ReplicatedOptions();
  // A tiny ring: the partition backlog below overflows it, so the healed
  // peer's cursor has fallen off and only a full snapshot can repair it.
  options.inr_template.replication.journal_capacity = 8;
  SimCluster cluster(options);
  Inr* a = cluster.AddInr(1);
  cluster.loop().RunFor(Seconds(1));
  Inr* b = cluster.AddInr(2);
  cluster.StabilizeTopology();
  auto svc = cluster.AddEndpoint(10);

  svc->Send(a->address(), Envelope{MessageBody(MakeAd("[service=base]", svc->address()))});
  cluster.loop().RunFor(Seconds(2));
  ASSERT_TRUE(cluster.CheckReplicationConvergence().empty());

  cluster.Partition({{1, 10, SimCluster::kDsrHostIndex}, {2}});
  for (int i = 0; i < 30; ++i) {
    svc->Send(a->address(),
              Envelope{MessageBody(MakeAd("[service=bulk][id=" + std::to_string(i) + "]",
                                          svc->address(), 1,
                                          200 + static_cast<uint32_t>(i)))});
  }
  cluster.loop().RunFor(Seconds(8));
  cluster.Heal();

  auto took = cluster.MeasureReplicationConvergence(
      cluster.options().inr_template.discovery.update_interval);
  ASSERT_TRUE(took.has_value()) << cluster.CheckReplicationConvergence();
  EXPECT_GE(a->metrics().Counter("replication.snapshots_sent"), 1u);
  EXPECT_GE(b->metrics().Counter("replication.snapshots_applied"), 1u);
  EXPECT_EQ(StateOf(b).size(), 31u);
}

TEST(ReplicationTest, SnapshotTransferPurgesRecordsTheSenderNoLongerHas) {
  ClusterOptions options = ReplicatedOptions();
  options.inr_template.replication.journal_capacity = 8;
  SimCluster cluster(options);
  Inr* a = cluster.AddInr(1);
  cluster.loop().RunFor(Seconds(1));
  Inr* b = cluster.AddInr(2);
  cluster.StabilizeTopology();
  auto svc = cluster.AddEndpoint(10);

  for (int i = 0; i < 4; ++i) {
    svc->Send(a->address(),
              Envelope{MessageBody(MakeAd("[service=s][id=" + std::to_string(i) + "]",
                                          svc->address(), 1, static_cast<uint32_t>(i)))});
  }
  cluster.loop().RunFor(Seconds(2));
  ASSERT_EQ(StateOf(b).size(), 4u);

  // During the partition, a deletes two of the names AND journals enough
  // churn to overflow the 8-entry ring, so the tombstones themselves fall
  // off: after heal only a snapshot can repair b, and the snapshot's
  // replace-all semantics must purge the two records b never saw deleted.
  cluster.Partition({{1, 10, SimCluster::kDsrHostIndex}, {2}});
  ASSERT_TRUE(a->vspaces().store().Remove("", AnnouncerId{svc->address().ip, 1000, 0}));
  ASSERT_TRUE(a->vspaces().store().Remove("", AnnouncerId{svc->address().ip, 1000, 1}));
  for (int i = 0; i < 12; ++i) {
    svc->Send(a->address(),
              Envelope{MessageBody(MakeAd("[service=churn][id=" + std::to_string(i) + "]",
                                          svc->address(), 1,
                                          300 + static_cast<uint32_t>(i)))});
  }
  cluster.loop().RunFor(Seconds(8));
  cluster.Heal();

  auto took = cluster.MeasureReplicationConvergence(
      cluster.options().inr_template.discovery.update_interval);
  ASSERT_TRUE(took.has_value()) << cluster.CheckReplicationConvergence();
  EXPECT_GE(b->metrics().Counter("replication.snapshots_applied"), 1u);
  EXPECT_GE(b->metrics().Counter("replication.snapshot_purged"), 2u);
  EXPECT_EQ(StateOf(b).size(), 14u);  // 4 - 2 deleted + 12 churn
}

TEST(ReplicationTest, DeltaApplyIsIdempotent) {
  SimCluster cluster(ReplicatedOptions());
  Inr* a = cluster.AddInr(1);
  cluster.loop().RunFor(Seconds(1));
  Inr* b = cluster.AddInr(2);
  cluster.StabilizeTopology();

  std::vector<NameUpdateEntry> entries;
  for (int i = 0; i < 3; ++i) {
    NameUpdateEntry e;
    e.name_text = "[service=idem][id=" + std::to_string(i) + "]";
    e.announcer = AnnouncerId{0x0a00000a, 1000, static_cast<uint32_t>(i)};
    e.endpoint.address = MakeAddress(10);
    e.lifetime_s = 45;
    e.version = 1;
    entries.push_back(std::move(e));
  }
  EXPECT_EQ(b->discovery().ApplyReplicatedEntries(a->address(), "", entries), 3u);
  const auto after_first = StateOf(b);
  // A retried chunk re-delivers the same entries: the version/next-hop rules
  // absorb them as refreshes — no state change, nothing re-propagated.
  EXPECT_EQ(b->discovery().ApplyReplicatedEntries(a->address(), "", entries), 0u);
  EXPECT_EQ(StateOf(b), after_first);
  EXPECT_EQ(after_first.size(), 3u);
}

TEST(ReplicationTest, DeltaApplyCommutesWithConcurrentLocalWrites) {
  // The same (replicated batch, local advertisement) pair applied in both
  // orders must land every resolver in the same announcer -> version state:
  // the version rules make replica application order-independent.
  auto run = [](bool replicated_first) {
    SimCluster cluster(ReplicatedOptions());
    Inr* a = cluster.AddInr(1);
    cluster.StabilizeTopology();
    auto svc = cluster.AddEndpoint(10);

    std::vector<NameUpdateEntry> batch;
    NameUpdateEntry stale;  // loses to the local version-2 advertisement
    stale.name_text = "[service=cam]";
    stale.announcer = AnnouncerId{svc->address().ip, 1000, 0};
    stale.endpoint.address = MakeAddress(99);
    stale.lifetime_s = 45;
    stale.version = 1;
    batch.push_back(stale);
    NameUpdateEntry fresh;  // disjoint announcer, applies either way
    fresh.name_text = "[service=other]";
    fresh.announcer = AnnouncerId{0x0a000063, 2000, 7};
    fresh.endpoint.address = MakeAddress(99);
    fresh.lifetime_s = 45;
    fresh.version = 3;
    batch.push_back(fresh);

    const NodeAddress peer = MakeAddress(99);
    auto local = [&] {
      svc->Send(a->address(),
                Envelope{MessageBody(MakeAd("[service=cam]", svc->address(), 2))});
      cluster.Settle();
    };
    if (replicated_first) {
      a->discovery().ApplyReplicatedEntries(peer, "", batch);
      local();
    } else {
      local();
      a->discovery().ApplyReplicatedEntries(peer, "", batch);
    }
    cluster.Settle();
    return StateOf(a);
  };

  const auto first = run(true);
  const auto second = run(false);
  EXPECT_EQ(first, second);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first.at(AnnouncerId{0x0a00000a, 1000, 0}), 2u);
}

TEST(ReplicationTest, UnansweredTransferRetriesThenAborts) {
  SimCluster cluster(ReplicatedOptions());
  Inr* a = cluster.AddInr(1);
  cluster.loop().RunFor(Seconds(1));
  Inr* b = cluster.AddInr(2);
  cluster.StabilizeTopology();

  // a goes silent, then b is handed a digest claiming a is ahead. The delta
  // request vanishes; the transfer must retry max_transfer_retries times on
  // the timeout cadence and then abort — never wedge in `awaiting`.
  const NodeAddress a_addr = a->address();
  cluster.CrashInr(a);
  JournalDigest forged;
  forged.from = a_addr;
  forged.items = {{"", 50}};
  b->replication().HandleDigest(a_addr, forged);
  EXPECT_TRUE(b->replication().TransferInFlight());

  cluster.loop().RunFor(Seconds(12));
  EXPECT_FALSE(b->replication().TransferInFlight());
  EXPECT_EQ(b->metrics().Counter("replication.transfer_retries"),
            static_cast<uint64_t>(b->replication().config().max_transfer_retries));
  EXPECT_EQ(b->metrics().Counter("replication.transfer_aborts"), 1u);
  // The applied cursor never moved: no data was acknowledged.
  EXPECT_EQ(b->replication().AppliedSerial(a_addr, ""), 0u);
}

TEST(ReplicationTest, NonNeighborDigestsAreIgnored) {
  SimCluster cluster(ReplicatedOptions());
  Inr* a = cluster.AddInr(1);
  cluster.StabilizeTopology();
  auto rogue = cluster.AddEndpoint(20);

  JournalDigest forged;
  forged.from = rogue->address();
  forged.items = {{"", 1000}};
  rogue->Send(a->address(), Envelope{MessageBody(forged)});
  cluster.Settle();

  EXPECT_FALSE(a->replication().TransferInFlight());
  EXPECT_GE(a->metrics().Counter("replication.non_neighbor_messages"), 1u);
  EXPECT_EQ(a->metrics().Counter("replication.delta_requests_sent"), 0u);
}

TEST(ReplicationTest, ForgetPeerDropsPeerGaugesEagerly) {
  SimCluster cluster(ReplicatedOptions());
  Inr* a = cluster.AddInr(1);
  cluster.loop().RunFor(Seconds(1));
  Inr* b = cluster.AddInr(2);
  cluster.StabilizeTopology();
  auto svc = cluster.AddEndpoint(10);
  svc->Send(a->address(), Envelope{MessageBody(MakeAd("[service=camera]", svc->address()))});
  cluster.loop().RunFor(Seconds(8));  // at least one digest round each way
  ASSERT_GE(a->metrics().Gauge("replication.peers"), 1);
  ASSERT_GE(a->metrics().Gauge("replication.peer_spaces"), 1);

  // Graceful removal closes the overlay edge at once; ForgetPeer must drop
  // the peer's lease from the gauges in the same instant — a dead neighbor
  // may never trigger another digest round to lazily correct them.
  cluster.RemoveInr(b);
  cluster.Settle(Seconds(1));
  EXPECT_EQ(a->metrics().Gauge("replication.peers"), 0);
  EXPECT_EQ(a->metrics().Gauge("replication.peer_spaces"), 0);
}

TEST(ReplicationTest, FlagOffKeepsSeedBehaviour) {
  // The default config must journal nothing, send no digests, and keep the
  // periodic refresh path exactly as the seed suite pins it elsewhere.
  SimCluster cluster;
  Inr* a = cluster.AddInr(1);
  cluster.loop().RunFor(Seconds(1));
  Inr* b = cluster.AddInr(2);
  cluster.StabilizeTopology();
  auto svc = cluster.AddEndpoint(10);
  svc->Send(a->address(), Envelope{MessageBody(MakeAd("[service=camera]", svc->address()))});
  cluster.loop().RunFor(Seconds(20));

  EXPECT_EQ(a->vspaces().store().journal(""), nullptr);
  EXPECT_EQ(a->metrics().Counter("replication.digests_sent"), 0u);
  EXPECT_EQ(b->metrics().Counter("replication.digests_received"), 0u);
  EXPECT_GT(a->metrics().Counter("discovery.periodic_updates_sent"), 0u);
}

}  // namespace
}  // namespace ins
