// Chaos soak: a seeded generator scripts random fault windows — partitions,
// loss bursts, delay spikes, corruption storms, DSR crash/restart, INR
// crash/restart — against a live cluster, and after every window the overlay
// must reconverge to a valid spanning tree and still resolve names
// end-to-end. The same seed must reproduce the same run bit-for-bit (the
// determinism fingerprint).
//
// Soak depth is tunable through the environment, so the nightly job can run
// the same binary much harder than the quick tier does:
//   INS_CHAOS_SEEDS   number of seeds to instantiate (default 10; seeds are
//                     1..N). Extra seeds only take effect when the binary is
//                     invoked directly — ctest pins the test list discovered
//                     at build time, where the default applies.
//   INS_CHAOS_ROUNDS  fault windows per run (default 5). Composes with
//                     `ctest -L soak`: every discovered seed just runs
//                     longer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "ins/common/logging.h"

#include "ins/client/api.h"
#include "ins/harness/cluster.h"
#include "ins/name/parser.h"

namespace ins {
namespace {

constexpr uint32_t kNumInrs = 5;

int EnvCount(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') {
    return fallback;
  }
  const int parsed = std::atoi(value);
  return parsed > 0 ? parsed : fallback;
}

int SoakRounds() { return EnvCount("INS_CHAOS_ROUNDS", 5); }

std::vector<uint64_t> SoakSeeds() {
  const int count = EnvCount("INS_CHAOS_SEEDS", 10);
  std::vector<uint64_t> seeds(static_cast<size_t>(count));
  for (size_t i = 0; i < seeds.size(); ++i) {
    seeds[i] = i + 1;
  }
  return seeds;
}

NameSpecifier P(const std::string& text) {
  auto r = ParseNameSpecifier(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status();
  return std::move(r).value();
}

// A client co-located with a resolver (same host, its own port): client<->INR
// traffic never crosses a link, so faults exercise the overlay, not the edge.
struct AppHost {
  AppHost(SimCluster* cluster, uint32_t host, uint16_t port, NodeAddress inr,
          uint64_t trace_sample_every = 0)
      : socket(cluster->net().Bind(MakeAddress(host, port))) {
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

struct SoakResult {
  bool ok = true;
  std::string failure;
  std::string fingerprint;  // deterministic trace digest
};

// One full chaos run. All randomness comes from `seed`; two invocations with
// the same seed must produce identical fingerprints. With `replication` the
// cluster runs journaled delta replication in replica mode (k=2) and the
// fault menu gains two windows: partition-heal-converge (kind 6), which
// demands serial-level replica convergence within one anti-entropy round,
// and replica-kill-mid-flood (kind 7), which kills one member of a k=2
// replica set and holds lookup goodput to the (k-1)/k floor.
SoakResult RunSoak(uint64_t seed, bool replication = false) {
  SoakResult result;
  std::ostringstream trace;
  Rng chaos(seed * 7919 + 17);
  // Debugging aid: INS_CHAOS_LOG=1 floods stderr with every resolver's debug
  // log, timestamped in virtual time — far too noisy for CI, invaluable for
  // replaying one failing seed.
  if (std::getenv("INS_CHAOS_LOG") != nullptr) {
    SetMinLogLevel(LogLevel::kDebug);
  }

  ClusterOptions options;
  options.seed = seed;
  options.inr_template.topology.rng_salt = seed;
  options.inr_template.replication.enabled = replication;
  // Replication soaks run replica mode: the "ha" vspace (advertised below)
  // gets a k=2 replica set, and the fault menu gains the replica-kill
  // window (kind 7) with its goodput floor.
  options.inr_template.replication.replica_k = replication ? 2 : 1;
  SimCluster cluster(options);
  for (uint32_t i = 1; i <= kNumInrs; ++i) {
    cluster.AddInr(i);
    cluster.loop().RunFor(Seconds(1));
  }
  cluster.StabilizeTopology();

  // Two services and a client, all co-located with resolvers.
  AppHost svc1(&cluster, 1, 6001, cluster.inrs()[0]->address());
  AppHost svc2(&cluster, 3, 6002, cluster.inrs()[2]->address());
  // Every probe the user sends is trace-sampled: when a run fails, the
  // journeys of the lost probes say which node dropped them and why.
  AppHost user(&cluster, kNumInrs, 7000, cluster.inrs()[kNumInrs - 1]->address(),
               /*trace_sample_every=*/1);
  auto ad1 = svc1.client->Advertise(P("[service=chaos[id=one]]"));
  auto ad2 = svc2.client->Advertise(P("[service=chaos[id=two]]"));
  int received = 0;
  svc1.client->OnData([&](const NameSpecifier&, const Bytes&) { ++received; });
  svc2.client->OnData([&](const NameSpecifier&, const Bytes&) { ++received; });

  // Replica mode: a service in its own "ha" vspace (adopted by INR 2, topped
  // up to k=2 by the maintenance tick) plus a raw probe socket — the
  // replica-kill window (kind 7) measures lookup goodput against this pair.
  std::unique_ptr<AppHost> ha_svc;
  std::unique_ptr<SimCluster::Endpoint> ha_probe;
  int ha_received = 0;
  if (replication) {
    ha_svc = std::make_unique<AppHost>(&cluster, 9, 6003, cluster.inrs()[1]->address());
    ha_svc->client->OnData([&](const NameSpecifier&, const Bytes&) { ++ha_received; });
    ha_probe = cluster.AddEndpoint(8, 7001);
  }
  std::unique_ptr<AdvertisementHandle> ha_ad;
  if (replication) {
    ha_ad = ha_svc->client->Advertise(P("[vspace=ha][service=hasvc]"));
  }
  cluster.loop().RunFor(Seconds(30));  // initial name convergence

  auto fail = [&](const std::string& what) {
    result.ok = false;
    result.failure = what;
    // Failure forensics: dump the journeys of every sampled-but-undelivered
    // packet (written to INS_TRACE_DUMP_DIR when set; CI uploads them).
    cluster.DumpLostJourneys("chaos_seed" + std::to_string(seed));
  };

  const int rounds = SoakRounds();
  // Names flooded during partition windows (kind 6); handles kept so their
  // owners keep refreshing them for the rest of the run.
  std::vector<std::unique_ptr<AdvertisementHandle>> flood_ads;
  for (int round = 0; round < rounds && result.ok; ++round) {
    Duration window = Seconds(5 + static_cast<int64_t>(chaos.NextBelow(11)));
    uint64_t kind = chaos.NextBelow(replication ? 8 : 6);
    trace << "r" << round << ":k" << kind << ":w" << window.count() << ";";
    switch (kind) {
      case 0: {
        // Two-sided partition; the DSR lands on a random side.
        uint32_t cut = 1 + static_cast<uint32_t>(chaos.NextBelow(kNumInrs - 1));
        std::vector<uint32_t> left, right;
        for (uint32_t i = 1; i <= kNumInrs; ++i) {
          (i <= cut ? left : right).push_back(i);
        }
        (chaos.NextBool(0.5) ? left : right).push_back(SimCluster::kDsrHostIndex);
        cluster.Partition({left, right});
        cluster.loop().RunFor(window);
        cluster.Heal();
        break;
      }
      case 1:
        cluster.faults().StartLossBurst(0.2 + 0.4 * chaos.NextDouble(), window);
        cluster.loop().RunFor(window);
        break;
      case 2:
        cluster.faults().StartDelaySpike(
            Milliseconds(20 + static_cast<int64_t>(chaos.NextBelow(81))), window);
        cluster.loop().RunFor(window);
        break;
      case 3:
        cluster.faults().StartCorruptionStorm(0.1 + 0.3 * chaos.NextDouble(), window);
        cluster.loop().RunFor(window);
        break;
      case 4:
        cluster.CrashDsr();
        cluster.loop().RunFor(window);
        cluster.RestartDsr();
        break;
      case 5: {
        // Amnesiac resolver reboot: silent crash, dark window, then a fresh
        // process on the same address. Survivors must drop the stale tree
        // edge (keepalives assert it), the restarted node must re-acquire
        // its DSR assignments, and any client attached to it must fail over.
        std::vector<Inr*> running = cluster.inrs();
        Inr* victim = running[chaos.NextBelow(running.size())];
        const uint32_t host = victim->address().ip & 0xFFu;
        trace << "h" << host << ";";
        cluster.CrashInr(victim);
        cluster.loop().RunFor(window);
        cluster.RestartInr(host);
        break;
      }
      case 6: {
        // PartitionHealConverge (replication mode only): cut the cluster in
        // two MID-FLOOD — fresh names keep landing on one side while the
        // other can't hear about them — then heal. The journal/anti-entropy
        // machinery must reach serial-level convergence once replica-set
        // membership re-forms; checked after the generic tree reconvergence
        // below.
        uint32_t cut = 1 + static_cast<uint32_t>(chaos.NextBelow(kNumInrs - 1));
        std::vector<uint32_t> left, right;
        for (uint32_t i = 1; i <= kNumInrs; ++i) {
          (i <= cut ? left : right).push_back(i);
        }
        // Clients/DSR stay with svc1's side so the flood keeps landing.
        left.push_back(SimCluster::kDsrHostIndex);
        cluster.Partition({left, right});
        for (int n = 0; n < 6; ++n) {
          flood_ads.push_back(svc1.client->Advertise(
              P("[service=flood[round=r" + std::to_string(round) + "][id=n" +
                std::to_string(n) + "]]")));
          cluster.loop().RunFor(window / 6);
        }
        cluster.Heal();
        break;
      }
      case 7: {
        // ReplicaKillMidFlood (replication mode only): kill one member of
        // the "ha" k=2 replica set while a raw probe floods lookups through
        // a non-member resolver. The goodput floor is (k-1)/k of the
        // window's probes — at soak-default timers the failover chain
        // (digest-silence detection, dead report, owner-cache expiry) takes
        // at most ~20 s of the 60 s flood, leaving ample margin above the
        // 15-of-30 floor.
        std::vector<Inr*> members = cluster.ReplicasOf("ha");
        if (members.size() < 2) {
          trace << "skip;";
          cluster.loop().RunFor(window);
          break;
        }
        Inr* victim = members[chaos.NextBelow(members.size())];
        const uint32_t host = victim->address().ip & 0xFFu;
        trace << "m";
        for (Inr* m : members) {
          trace << (m->address().ip & 0xFFu) << ",";
        }
        trace << "h" << host << ";";
        // The probe INR must outlive the kill, so it comes from outside the
        // whole replica set (which may have grown past k members).
        Inr* probe_inr = nullptr;
        for (Inr* inr : cluster.inrs()) {
          if (std::find(members.begin(), members.end(), inr) == members.end()) {
            probe_inr = inr;
            break;
          }
        }
        if (probe_inr == nullptr) {
          trace << "skip;";
          cluster.loop().RunFor(window);
          break;
        }
        if (probe_inr == victim) {  // the crash below would free the probe
          fail("round " + std::to_string(round) + ": the replica-kill victim is the probe INR");
          break;
        }
        trace << "p" << (probe_inr->address().ip & 0xFFu) << ";";
        auto probe = [&] {
          Packet p;
          p.destination_name = "[vspace=ha][service=hasvc]";
          p.payload = {0x7a};
          ha_probe->Send(probe_inr->address(), Envelope{MessageBody(std::move(p))});
        };
        // Steady state first: the probe path must already deliver before a
        // kill-window shortfall can mean anything.
        int before = ha_received;
        for (int n = 0; n < 5; ++n) {
          probe();
          cluster.loop().RunFor(Seconds(2));
        }
        if (ha_received - before < 4) {
          fail("round " + std::to_string(round) +
               ": replica probe path broken before the kill (" +
               std::to_string(ha_received - before) + "/5 delivered)");
          break;
        }
        cluster.CrashInr(victim);
        before = ha_received;
        for (int n = 0; n < 30; ++n) {
          probe();
          cluster.loop().RunFor(Seconds(2));
        }
        const int delivered = ha_received - before;
        trace << "hg" << delivered << ";";
        cluster.RestartInr(host);
        if (delivered < 15) {
          fail("round " + std::to_string(round) +
               ": lookup goodput below the (k-1)/k floor with one replica "
               "dead (" + std::to_string(delivered) + "/30 delivered)");
        }
        break;
      }
    }

    auto took = cluster.MeasureReconvergence(Seconds(120));
    if (!took.has_value()) {
      fail("round " + std::to_string(round) + " (kind " + std::to_string(kind) +
           "): no reconvergence within 120 s: " + cluster.CheckTreeInvariant());
      break;
    }
    trace << "t" << took->count() << ";";

    if (kind == 6) {
      // In replica mode a partition longer than the digest-death window makes
      // both sides drop each other from their replica sets, so post-heal
      // convergence is membership re-establishment first: a DSR registration
      // refresh clears the suspect mark (<= 20 s), the next maintenance tick
      // re-learns the set (<= 10 s), then one anti-entropy round syncs the
      // journals. The budget covers that whole chain; the measurement returns
      // as soon as replicas actually agree.
      auto caught_up = cluster.MeasureReplicationConvergence(
          options.inr_template.replication.digest_interval + Seconds(40));
      if (!caught_up.has_value()) {
        fail("round " + std::to_string(round) +
             ": replicas diverged after partition heal: " +
             cluster.CheckReplicationConvergence());
        break;
      }
      trace << "rc" << caught_up->count() << ";";
    }

    // Let name routes catch up (purge + full-state push + periodic refresh),
    // then prove an end-to-end lookup works. Datagrams are best-effort, so
    // allow a few attempts.
    cluster.loop().RunFor(Seconds(35));
    int before = received;
    for (int attempt = 0; attempt < 5 && received == before; ++attempt) {
      user.client->SendAnycast(P("[service=chaos]"), {static_cast<uint8_t>(round)});
      cluster.loop().RunFor(Seconds(2));
    }
    if (received == before) {
      fail("round " + std::to_string(round) + " (kind " + std::to_string(kind) +
           "): anycast lookup failed after reconvergence");
      break;
    }
    trace << "rx" << received << ";";
  }

  trace << "drop" << cluster.net().total_datagrams_dropped() << ";";
  trace << "pd" << cluster.faults().metrics().Counter("faults.partition_dropped") << ";";
  trace << "bd" << cluster.faults().metrics().Counter("faults.burst_dropped") << ";";
  trace << "cr" << cluster.faults().metrics().Counter("faults.corrupted") << ";";
  result.fingerprint = trace.str();
  return result;
}

class ChaosSoakTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosSoakTest, ReconvergesAndResolvesAfterEveryFaultWindow) {
  SoakResult r = RunSoak(GetParam());
  EXPECT_TRUE(r.ok) << r.failure << "\ntrace: " << r.fingerprint;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSoakTest, ::testing::ValuesIn(SoakSeeds()));

// Same menu plus the PartitionHealConverge and ReplicaKillMidFlood windows,
// with journaled delta replication on everywhere in replica mode: every heal
// must reach serial-level replica convergence within one anti-entropy round,
// and a replica kill must keep lookups flowing at the (k-1)/k goodput floor.
class ChaosSoakReplicationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosSoakReplicationTest, ReplicasConvergeAfterEveryFaultWindow) {
  SoakResult r = RunSoak(GetParam(), /*replication=*/true);
  EXPECT_TRUE(r.ok) << r.failure << "\ntrace: " << r.fingerprint;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSoakReplicationTest,
                         ::testing::ValuesIn(SoakSeeds()));

TEST(ChaosSoakDeterminismTest, SameSeedSameTrace) {
  for (uint64_t seed : {3u, 8u}) {
    SoakResult first = RunSoak(seed);
    SoakResult second = RunSoak(seed);
    ASSERT_TRUE(first.ok) << first.failure;
    EXPECT_EQ(first.fingerprint, second.fingerprint) << "seed " << seed;
  }
}

TEST(ChaosSoakDeterminismTest, ReplicationModeIsDeterministicToo) {
  SoakResult first = RunSoak(5, /*replication=*/true);
  SoakResult second = RunSoak(5, /*replication=*/true);
  ASSERT_TRUE(first.ok) << first.failure;
  EXPECT_EQ(first.fingerprint, second.fingerprint);
}

TEST(ChaosSoakDeterminismTest, DifferentSeedsDiverge) {
  SoakResult a = RunSoak(101);
  SoakResult b = RunSoak(102);
  ASSERT_TRUE(a.ok) << a.failure;
  ASSERT_TRUE(b.ok) << b.failure;
  EXPECT_NE(a.fingerprint, b.fingerprint);
}

}  // namespace
}  // namespace ins
