// Tests for the forwarding agent: early binding, intentional anycast and
// multicast, hop limits, cross-vspace tunneling, and the caching extension.

#include <gtest/gtest.h>

#include "ins/harness/cluster.h"

namespace ins {
namespace {

Advertisement MakeAd(const std::string& name_text, const NodeAddress& endpoint,
                     uint32_t discriminator = 0, double metric = 0.0,
                     uint64_t version = 1) {
  Advertisement ad;
  ad.name_text = name_text;
  ad.announcer = AnnouncerId{endpoint.ip, 1000, discriminator};
  ad.endpoint.address = endpoint;
  ad.endpoint.bindings = {{8080, "http"}};
  ad.app_metric = metric;
  ad.lifetime_s = 45;
  ad.version = version;
  return ad;
}

Packet MakeData(const std::string& dst, Bytes payload, bool all = false) {
  Packet p;
  p.destination_name = dst;
  p.deliver_all = all;
  p.payload = std::move(payload);
  return p;
}

TEST(ForwardingTest, AnycastDeliversToLocalService) {
  SimCluster cluster;
  Inr* inr = cluster.AddInr(1);
  cluster.StabilizeTopology();
  auto svc = cluster.AddEndpoint(10);
  auto client = cluster.AddEndpoint(20);

  svc->Send(inr->address(),
            Envelope{MessageBody(MakeAd("[service=printer][room=517]", svc->address()))});
  cluster.Settle();

  client->Send(inr->address(),
               Envelope{MessageBody(MakeData("[service=printer][room=517]", {1, 2, 3}))});
  cluster.Settle();

  auto got = svc->ReceivedOf<Packet>();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].payload, (Bytes{1, 2, 3}));
  EXPECT_EQ(got[0].destination_name, "[service=printer][room=517]");
}

TEST(ForwardingTest, AnycastPicksLeastMetric) {
  SimCluster cluster;
  Inr* inr = cluster.AddInr(1);
  cluster.StabilizeTopology();
  auto busy = cluster.AddEndpoint(10);
  auto idle = cluster.AddEndpoint(11);
  auto client = cluster.AddEndpoint(20);

  busy->Send(inr->address(),
             Envelope{MessageBody(MakeAd("[service=printer]", busy->address(), 0, 9.0))});
  idle->Send(inr->address(),
             Envelope{MessageBody(MakeAd("[service=printer]", idle->address(), 0, 1.0))});
  cluster.Settle();

  client->Send(inr->address(), Envelope{MessageBody(MakeData("[service=printer]", {7}))});
  cluster.Settle();

  EXPECT_EQ(idle->ReceivedOf<Packet>().size(), 1u);
  EXPECT_TRUE(busy->ReceivedOf<Packet>().empty());
}

TEST(ForwardingTest, AnycastFollowsMetricUpdates) {
  SimCluster cluster;
  Inr* inr = cluster.AddInr(1);
  cluster.StabilizeTopology();
  auto p1 = cluster.AddEndpoint(10);
  auto p2 = cluster.AddEndpoint(11);
  auto client = cluster.AddEndpoint(20);

  p1->Send(inr->address(),
           Envelope{MessageBody(MakeAd("[service=printer]", p1->address(), 0, 1.0, 1))});
  p2->Send(inr->address(),
           Envelope{MessageBody(MakeAd("[service=printer]", p2->address(), 0, 5.0, 1))});
  cluster.Settle();
  client->Send(inr->address(), Envelope{MessageBody(MakeData("[service=printer]", {1}))});
  cluster.Settle();
  EXPECT_EQ(p1->ReceivedOf<Packet>().size(), 1u);

  // p1's queue fills up; it advertises a worse metric. Late binding means
  // the very next message goes to p2 — no client involvement.
  p1->Send(inr->address(),
           Envelope{MessageBody(MakeAd("[service=printer]", p1->address(), 0, 8.0, 2))});
  cluster.Settle();
  client->Send(inr->address(), Envelope{MessageBody(MakeData("[service=printer]", {2}))});
  cluster.Settle();
  EXPECT_EQ(p1->ReceivedOf<Packet>().size(), 1u);
  EXPECT_EQ(p2->ReceivedOf<Packet>().size(), 1u);
}

TEST(ForwardingTest, AnycastAcrossOverlay) {
  SimCluster cluster;
  Inr* a = cluster.AddInr(1);
  cluster.loop().RunFor(Seconds(1));
  Inr* b = cluster.AddInr(2);
  cluster.StabilizeTopology();
  auto svc = cluster.AddEndpoint(10);
  auto client = cluster.AddEndpoint(20);

  svc->Send(a->address(), Envelope{MessageBody(MakeAd("[service=camera]", svc->address()))});
  cluster.loop().RunFor(Seconds(1));

  // The client attaches to b; the service lives behind a.
  client->Send(b->address(), Envelope{MessageBody(MakeData("[service=camera]", {9}))});
  cluster.Settle();
  ASSERT_EQ(svc->ReceivedOf<Packet>().size(), 1u);
  EXPECT_EQ(b->metrics().Counter("forwarding.tunneled"), 1u);
}

TEST(ForwardingTest, MulticastReachesAllMatches) {
  SimCluster cluster;
  Inr* a = cluster.AddInr(1);
  cluster.loop().RunFor(Seconds(1));
  Inr* b = cluster.AddInr(2);
  cluster.StabilizeTopology();
  auto r1 = cluster.AddEndpoint(10);
  auto r2 = cluster.AddEndpoint(11);
  auto r3 = cluster.AddEndpoint(12);
  auto tx = cluster.AddEndpoint(20);

  // Two receivers at a, one at b, plus a non-matching service.
  r1->Send(a->address(), Envelope{MessageBody(
      MakeAd("[service=camera[entity=receiver[id=r1]]][room=510]", r1->address()))});
  r2->Send(a->address(), Envelope{MessageBody(
      MakeAd("[service=camera[entity=receiver[id=r2]]][room=510]", r2->address()))});
  r3->Send(b->address(), Envelope{MessageBody(
      MakeAd("[service=camera[entity=receiver[id=r3]]][room=510]", r3->address()))});
  cluster.loop().RunFor(Seconds(1));

  // The paper's Camera example: all subscribers via [id=*], D=all.
  tx->Send(a->address(),
           Envelope{MessageBody(MakeData(
               "[service=camera[entity=receiver[id=*]]][room=510]", {42}, /*all=*/true))});
  cluster.Settle();

  EXPECT_EQ(r1->ReceivedOf<Packet>().size(), 1u);
  EXPECT_EQ(r2->ReceivedOf<Packet>().size(), 1u);
  EXPECT_EQ(r3->ReceivedOf<Packet>().size(), 1u);
}

TEST(ForwardingTest, MulticastSendsOneCopyPerNextHop) {
  SimCluster cluster;
  Inr* a = cluster.AddInr(1);
  cluster.loop().RunFor(Seconds(1));
  Inr* b = cluster.AddInr(2);
  cluster.StabilizeTopology();
  auto r1 = cluster.AddEndpoint(10);
  auto r2 = cluster.AddEndpoint(11);
  auto tx = cluster.AddEndpoint(20);

  // Both receivers behind b; a must forward exactly one copy to b.
  r1->Send(b->address(), Envelope{MessageBody(MakeAd("[g=x[id=1]]", r1->address()))});
  r2->Send(b->address(), Envelope{MessageBody(MakeAd("[g=x[id=2]]", r2->address()))});
  cluster.loop().RunFor(Seconds(1));

  tx->Send(a->address(), Envelope{MessageBody(MakeData("[g=x[id=*]]", {1}, true))});
  cluster.Settle();
  EXPECT_EQ(a->metrics().Counter("forwarding.tunneled"), 1u);
  EXPECT_EQ(r1->ReceivedOf<Packet>().size(), 1u);
  EXPECT_EQ(r2->ReceivedOf<Packet>().size(), 1u);
}

TEST(ForwardingTest, HopLimitDropsPacket) {
  SimCluster cluster;
  Inr* inr = cluster.AddInr(1);
  cluster.StabilizeTopology();
  auto svc = cluster.AddEndpoint(10);
  auto client = cluster.AddEndpoint(20);
  svc->Send(inr->address(), Envelope{MessageBody(MakeAd("[s=1]", svc->address()))});
  cluster.Settle();

  Packet p = MakeData("[s=1]", {1});
  p.hop_limit = 0;
  client->Send(inr->address(), Envelope{MessageBody(p)});
  cluster.Settle();
  EXPECT_TRUE(svc->ReceivedOf<Packet>().empty());
  EXPECT_EQ(inr->metrics().Counter("forwarding.drop.hop_limit"), 1u);
}

TEST(ForwardingTest, NoMatchCounted) {
  SimCluster cluster;
  Inr* inr = cluster.AddInr(1);
  cluster.StabilizeTopology();
  auto client = cluster.AddEndpoint(20);
  client->Send(inr->address(), Envelope{MessageBody(MakeData("[service=nothing]", {1}))});
  cluster.Settle();
  EXPECT_EQ(inr->metrics().Counter("forwarding.drop.no_match"), 1u);
}

TEST(ForwardingTest, DeadlineExhaustionDropsBeforeTunneling) {
  SimCluster cluster;
  Inr* a = cluster.AddInr(1);
  cluster.loop().RunFor(Seconds(1));
  Inr* b = cluster.AddInr(2);
  cluster.StabilizeTopology();
  auto svc = cluster.AddEndpoint(10);
  auto tx = cluster.AddEndpoint(20);
  svc->Send(b->address(), Envelope{MessageBody(MakeAd("[s=far]", svc->address()))});
  cluster.loop().RunFor(Seconds(1));

  // Budget of 1ms dies on the first overlay hop (a -> b); the service never
  // sees the packet and `a` accounts the drop.
  Packet doomed = MakeData("[s=far]", {1});
  doomed.deadline_budget_ms = 1;
  tx->Send(a->address(), Envelope{MessageBody(doomed)});
  cluster.Settle();
  EXPECT_TRUE(svc->ReceivedOf<Packet>().empty());
  EXPECT_EQ(a->metrics().Counter("forwarding.drop.deadline"), 1u);

  // A roomy budget survives the hop and arrives decremented.
  Packet fine = MakeData("[s=far]", {2});
  fine.deadline_budget_ms = 200;
  tx->Send(a->address(), Envelope{MessageBody(fine)});
  cluster.Settle();
  auto got = svc->ReceivedOf<Packet>();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_LT(got[0].deadline_budget_ms, 200u);
  EXPECT_GT(got[0].deadline_budget_ms, 0u);
}

TEST(ForwardingTest, DropFamilyTotalsAccountEveryDrop) {
  SimCluster cluster;
  Inr* inr = cluster.AddInr(1);
  cluster.StabilizeTopology();
  auto client = cluster.AddEndpoint(20);

  Packet dead = MakeData("[s=1]", {1});
  dead.hop_limit = 0;
  client->Send(inr->address(), Envelope{MessageBody(dead)});
  client->Send(inr->address(), Envelope{MessageBody(MakeData("[service=nothing]", {1}))});
  cluster.Settle();

  // Every drop reason lives under the one forwarding.drop.* family, so the
  // family total is the complete drop count.
  const MetricsRegistry& m = inr->metrics();
  EXPECT_EQ(m.FamilyTotal("forwarding.drop."), 2u);
  EXPECT_EQ(m.FamilyTotal("forwarding.drop."),
            m.Counter("forwarding.drop.hop_limit") + m.Counter("forwarding.drop.no_match"));
  // No drop is accounted outside the family under the old flat names.
  EXPECT_EQ(m.Counter("forwarding.hop_limit_exceeded"), 0u);
  EXPECT_EQ(m.Counter("forwarding.no_match"), 0u);
}

TEST(ForwardingTest, EarlyBindingReturnsEndpointsAndMetrics) {
  SimCluster cluster;
  Inr* inr = cluster.AddInr(1);
  cluster.StabilizeTopology();
  auto s1 = cluster.AddEndpoint(10);
  auto s2 = cluster.AddEndpoint(11);
  auto client = cluster.AddEndpoint(20);
  s1->Send(inr->address(), Envelope{MessageBody(MakeAd("[service=printer]", s1->address(), 0, 3.0))});
  s2->Send(inr->address(), Envelope{MessageBody(MakeAd("[service=printer]", s2->address(), 0, 1.0))});
  cluster.Settle();

  Packet req = MakeData("[service=printer]", EncodeEarlyBindingPayload(55, client->address()));
  req.early_binding = true;
  client->Send(inr->address(), Envelope{MessageBody(req)});
  cluster.Settle();

  auto resps = client->ReceivedOf<EarlyBindingResponse>();
  ASSERT_EQ(resps.size(), 1u);
  EXPECT_EQ(resps[0].request_id, 55u);
  ASSERT_EQ(resps[0].items.size(), 2u);
  // The client implements metric-based selection; both bindings and metrics
  // are available (richer than round-robin DNS).
  double best = std::min(resps[0].items[0].app_metric, resps[0].items[1].app_metric);
  EXPECT_DOUBLE_EQ(best, 1.0);
  EXPECT_EQ(resps[0].items[0].endpoint.bindings[0].transport, "http");

  // Items come back in announcer order, whatever the order the services were
  // advertised in and whatever their metrics.
  auto s14 = cluster.AddEndpoint(14);
  auto s12 = cluster.AddEndpoint(12);
  auto s13 = cluster.AddEndpoint(13);
  const std::pair<SimCluster::Endpoint*, double> scanners[] = {
      {s14.get(), 2.0}, {s12.get(), 3.0}, {s13.get(), 1.0}};
  for (const auto& [svc, metric] : scanners) {
    svc->Send(inr->address(),
              Envelope{MessageBody(MakeAd("[service=scanner]", svc->address(), 0, metric))});
  }
  cluster.Settle();
  Packet scan = MakeData("[service=scanner]", EncodeEarlyBindingPayload(56, client->address()));
  scan.early_binding = true;
  client->Send(inr->address(), Envelope{MessageBody(scan)});
  cluster.Settle();
  resps = client->ReceivedOf<EarlyBindingResponse>();
  ASSERT_EQ(resps.size(), 2u);
  EXPECT_EQ(resps[1].request_id, 56u);
  ASSERT_EQ(resps[1].items.size(), 3u);
  EXPECT_EQ(resps[1].items[0].endpoint.address, s12->address());
  EXPECT_EQ(resps[1].items[1].endpoint.address, s13->address());
  EXPECT_EQ(resps[1].items[2].endpoint.address, s14->address());
  EXPECT_DOUBLE_EQ(resps[1].items[0].app_metric, 3.0);
  EXPECT_DOUBLE_EQ(resps[1].items[1].app_metric, 1.0);
  EXPECT_DOUBLE_EQ(resps[1].items[2].app_metric, 2.0);
}

TEST(ForwardingTest, CacheAnswersRepeatRequests) {
  SimCluster cluster;
  Inr* inr = cluster.AddInr(1);
  cluster.StabilizeTopology();
  auto camera = cluster.AddEndpoint(10);
  auto viewer = cluster.AddEndpoint(20);

  camera->Send(inr->address(), Envelope{MessageBody(
      MakeAd("[service=camera[entity=transmitter]][room=510]", camera->address()))});
  viewer->Send(inr->address(), Envelope{MessageBody(
      MakeAd("[service=camera[entity=receiver[id=v]]][room=510]", viewer->address()))});
  cluster.Settle();

  // The camera publishes an image with a cache lifetime; the INR caches it
  // under the camera's (source) name as it forwards to the viewer.
  Packet image;
  image.source_name = "[service=camera[entity=transmitter]][room=510]";
  image.destination_name = "[service=camera[entity=receiver[id=v]]][room=510]";
  image.payload = {0xca, 0xfe};
  image.cache_lifetime_s = 30;
  camera->Send(inr->address(), Envelope{MessageBody(image)});
  cluster.Settle();
  ASSERT_EQ(viewer->ReceivedOf<Packet>().size(), 1u);

  // A later request with the answer-from-cache flag is served by the INR;
  // the camera never sees it.
  Packet request;
  request.source_name = "[service=camera[entity=receiver[id=v]]][room=510]";
  request.destination_name = "[service=camera[entity=transmitter]][room=510]";
  request.answer_from_cache = true;
  viewer->Send(inr->address(), Envelope{MessageBody(request)});
  cluster.Settle();

  auto at_viewer = viewer->ReceivedOf<Packet>();
  ASSERT_EQ(at_viewer.size(), 2u);
  EXPECT_EQ(at_viewer[1].payload, (Bytes{0xca, 0xfe}));
  EXPECT_TRUE(camera->ReceivedOf<Packet>().empty());
  EXPECT_EQ(inr->metrics().Counter("forwarding.cache_answers"), 1u);
}

TEST(ForwardingTest, CacheMissFallsThroughToService) {
  SimCluster cluster;
  Inr* inr = cluster.AddInr(1);
  cluster.StabilizeTopology();
  auto camera = cluster.AddEndpoint(10);
  auto viewer = cluster.AddEndpoint(20);
  camera->Send(inr->address(), Envelope{MessageBody(
      MakeAd("[service=camera[entity=transmitter]]", camera->address()))});
  cluster.Settle();

  Packet request;
  request.destination_name = "[service=camera[entity=transmitter]]";
  request.source_name = "[service=camera[entity=receiver[id=v]]]";
  request.answer_from_cache = true;
  viewer->Send(inr->address(), Envelope{MessageBody(request)});
  cluster.Settle();
  // Nothing cached: the request reaches the camera as usual.
  EXPECT_EQ(camera->ReceivedOf<Packet>().size(), 1u);
}

TEST(ForwardingTest, ZeroCacheLifetimeDisallowsCaching) {
  SimCluster cluster;
  Inr* inr = cluster.AddInr(1);
  cluster.StabilizeTopology();
  auto viewer = cluster.AddEndpoint(20);
  viewer->Send(inr->address(), Envelope{MessageBody(
      MakeAd("[service=camera[entity=receiver[id=v]]]", viewer->address()))});
  cluster.Settle();

  Packet image;
  image.source_name = "[service=camera[entity=transmitter]]";
  image.destination_name = "[service=camera[entity=receiver[id=v]]]";
  image.payload = {1};
  image.cache_lifetime_s = 0;
  viewer->Send(inr->address(), Envelope{MessageBody(image)});
  cluster.Settle();
  EXPECT_EQ(inr->cache().size(), 0u);
}

TEST(ForwardingTest, CrossVspaceTunnelsToOwner) {
  SimCluster cluster;
  Inr* a = cluster.AddInr(1, {"alpha"});
  cluster.loop().RunFor(Seconds(1));
  Inr* b = cluster.AddInr(2, {"beta"});
  cluster.StabilizeTopology();
  auto svc = cluster.AddEndpoint(10);
  auto client = cluster.AddEndpoint(20);

  svc->Send(b->address(), Envelope{MessageBody(
      MakeAd("[vspace=beta][service=camera]", svc->address()))});
  cluster.loop().RunFor(Seconds(1));

  // The client asks a (which routes only alpha); a resolves the owner via
  // the DSR, caches it, and tunnels.
  client->Send(a->address(), Envelope{MessageBody(
      MakeData("[vspace=beta][service=camera]", {5}))});
  cluster.Settle();
  ASSERT_EQ(svc->ReceivedOf<Packet>().size(), 1u);
  EXPECT_EQ(a->metrics().Counter("forwarding.cross_vspace"), 1u);
  EXPECT_EQ(a->metrics().Counter("vspace.owner_cache_misses"), 1u);

  // Second packet hits the owner cache: no DSR round trip.
  client->Send(a->address(), Envelope{MessageBody(
      MakeData("[vspace=beta][service=camera]", {6}))});
  cluster.Settle();
  EXPECT_EQ(svc->ReceivedOf<Packet>().size(), 2u);
  EXPECT_EQ(a->metrics().Counter("vspace.owner_cache_hits"), 1u);
}

TEST(ForwardingTest, UnresolvableVspaceDropsPacket) {
  SimCluster cluster;
  Inr* a = cluster.AddInr(1, {"alpha"});
  cluster.StabilizeTopology();
  auto client = cluster.AddEndpoint(20);
  client->Send(a->address(), Envelope{MessageBody(MakeData("[vspace=ghost][x=1]", {1}))});
  cluster.Settle();
  EXPECT_EQ(a->metrics().Counter("forwarding.drop.vspace_unresolved"), 1u);
}

}  // namespace
}  // namespace ins
