// Tests for virtual-space behaviour at the resolver level: per-space trees,
// space adoption, discovery requests across spaces, and delegation.

#include <gtest/gtest.h>

#include "alloc_window.h"
#include "ins/harness/cluster.h"
#include "ins/name/parser.h"

namespace ins {
namespace {

Advertisement MakeAd(const std::string& name_text, const NodeAddress& endpoint,
                     const std::string& vspace = "", uint32_t discriminator = 0) {
  Advertisement ad;
  ad.vspace = vspace;
  ad.name_text = name_text;
  ad.announcer = AnnouncerId{endpoint.ip, 1000, discriminator};
  ad.endpoint.address = endpoint;
  ad.lifetime_s = 45;
  ad.version = 1;
  return ad;
}

TEST(VspaceTest, VspaceOfExtractsRootAttribute) {
  auto n = *ParseNameSpecifier("[vspace=cams][service=camera]");
  EXPECT_EQ(VspaceManager::VspaceOf(n), "cams");
  auto d = *ParseNameSpecifier("[service=camera]");
  EXPECT_EQ(VspaceManager::VspaceOf(d), "");
  auto w = *ParseNameSpecifier("[vspace=*][service=camera]");
  EXPECT_EQ(VspaceManager::VspaceOf(w), "");  // only a literal names a space
}

TEST(VspaceTest, VspaceOfAllocatesNothing) {
  // The forwarder asks for the space of every packet's destination.
  auto n = *ParseNameSpecifier("[vspace=a-space-name-past-the-sso-buffer][service=camera]");
  auto d = *ParseNameSpecifier("[service=camera]");
  uint64_t allocs = 0;
  size_t length = 0;
  {
    AllocWindow window;
    length = VspaceManager::VspaceOf(n).size() + VspaceManager::VspaceOf(d).size();
    allocs = window.count();
  }
  EXPECT_EQ(length, 32u);
  EXPECT_EQ(allocs, 0u);
}

TEST(VspaceTest, SpacesKeepSeparateTrees) {
  SimCluster cluster;
  Inr* inr = cluster.AddInr(1, {"alpha", "beta"});
  cluster.StabilizeTopology();
  auto s1 = cluster.AddEndpoint(10);
  auto s2 = cluster.AddEndpoint(11);
  s1->Send(inr->address(), Envelope{MessageBody(
      MakeAd("[vspace=alpha][service=camera]", s1->address()))});
  s2->Send(inr->address(), Envelope{MessageBody(
      MakeAd("[vspace=beta][service=camera]", s2->address()))});
  cluster.Settle();

  EXPECT_EQ(inr->vspaces().Tree("alpha")->record_count(), 1u);
  EXPECT_EQ(inr->vspaces().Tree("beta")->record_count(), 1u);
  // A lookup in alpha never sees beta's records.
  auto q = *ParseNameSpecifier("[service=camera]");
  EXPECT_EQ(inr->vspaces().Tree("alpha")->Lookup(q).size(), 1u);
  EXPECT_EQ(inr->vspaces().Tree("alpha")->Lookup(q)[0]->endpoint.address, s1->address());
}

TEST(VspaceTest, UnknownSpaceIsAdoptedWhenNobodyRoutesIt) {
  SimCluster cluster;
  Inr* inr = cluster.AddInr(1, {""});
  cluster.StabilizeTopology();
  auto svc = cluster.AddEndpoint(10);
  svc->Send(inr->address(), Envelope{MessageBody(
      MakeAd("[vspace=fresh][service=sensor]", svc->address()))});
  cluster.loop().RunFor(Seconds(1));

  EXPECT_TRUE(inr->vspaces().Routes("fresh"));
  EXPECT_EQ(inr->vspaces().Tree("fresh")->record_count(), 1u);
  // The adoption propagated to the DSR registration.
  EXPECT_EQ(cluster.dsr().InrForVspace("fresh"), inr->address());
}

TEST(VspaceTest, AdvertisementForwardedToOwningInr) {
  SimCluster cluster;
  Inr* a = cluster.AddInr(1, {"alpha"});
  cluster.loop().RunFor(Seconds(1));
  Inr* b = cluster.AddInr(2, {"beta"});
  cluster.StabilizeTopology();
  auto svc = cluster.AddEndpoint(10);

  // The service (mis)attaches to a but advertises into beta.
  svc->Send(a->address(), Envelope{MessageBody(
      MakeAd("[vspace=beta][service=camera]", svc->address()))});
  cluster.loop().RunFor(Seconds(1));

  EXPECT_FALSE(a->vspaces().Routes("beta"));
  EXPECT_EQ(b->vspaces().Tree("beta")->record_count(), 1u);
  EXPECT_EQ(a->metrics().Counter("discovery.advertisements_forwarded"), 1u);
}

TEST(VspaceTest, DiscoveryRequestAnsweredLocally) {
  SimCluster cluster;
  Inr* inr = cluster.AddInr(1);
  cluster.StabilizeTopology();
  auto svc = cluster.AddEndpoint(10);
  auto client = cluster.AddEndpoint(20);
  svc->Send(inr->address(), Envelope{MessageBody(MakeAd("[service=camera][room=510]", svc->address()))});
  svc->Send(inr->address(), Envelope{MessageBody(MakeAd("[service=printer][room=517]", svc->address(), "", 1))});
  cluster.Settle();

  DiscoveryRequest req;
  req.request_id = 1;
  req.filter_text = "[service=camera]";
  client->Send(inr->address(), Envelope{MessageBody(req)});
  cluster.Settle();

  auto resps = client->ReceivedOf<DiscoveryResponse>();
  ASSERT_EQ(resps.size(), 1u);
  ASSERT_EQ(resps[0].items.size(), 1u);
  EXPECT_EQ(resps[0].items[0].name_text, "[room=510][service=camera]");
}

TEST(VspaceTest, EmptyFilterReturnsAllNames) {
  SimCluster cluster;
  Inr* inr = cluster.AddInr(1);
  cluster.StabilizeTopology();
  auto svc = cluster.AddEndpoint(10);
  auto client = cluster.AddEndpoint(20);
  for (uint32_t i = 0; i < 4; ++i) {
    svc->Send(inr->address(), Envelope{MessageBody(
        MakeAd("[service=s" + std::to_string(i) + "]", svc->address(), "", i))});
  }
  cluster.Settle();
  client->Send(inr->address(), Envelope{MessageBody(DiscoveryRequest{9, "", "", {}})});
  cluster.Settle();
  auto resps = client->ReceivedOf<DiscoveryResponse>();
  ASSERT_EQ(resps.size(), 1u);
  EXPECT_EQ(resps[0].items.size(), 4u);
}

TEST(VspaceTest, DiscoveryRequestForwardedAcrossSpaces) {
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

  // Client asks a about beta; the answer arrives directly from b.
  DiscoveryRequest req;
  req.request_id = 2;
  req.vspace = "beta";
  client->Send(a->address(), Envelope{MessageBody(req)});
  cluster.Settle();

  auto resps = client->ReceivedOf<DiscoveryResponse>();
  ASSERT_EQ(resps.size(), 1u);
  EXPECT_EQ(resps[0].vspace, "beta");
  ASSERT_EQ(resps[0].items.size(), 1u);
}

TEST(VspaceTest, DiscoveryForGhostSpaceAnswersEmpty) {
  SimCluster cluster;
  Inr* a = cluster.AddInr(1, {"alpha"});
  cluster.StabilizeTopology();
  auto client = cluster.AddEndpoint(20);
  DiscoveryRequest req;
  req.request_id = 3;
  req.vspace = "ghost";
  client->Send(a->address(), Envelope{MessageBody(req)});
  cluster.Settle();
  auto resps = client->ReceivedOf<DiscoveryResponse>();
  ASSERT_EQ(resps.size(), 1u);
  EXPECT_TRUE(resps[0].items.empty());
}

TEST(VspaceTest, DelegationMovesSpaceAndState) {
  SimCluster cluster;
  Inr* a = cluster.AddInr(1, {"alpha", "beta"});
  cluster.loop().RunFor(Seconds(1));
  Inr* b = cluster.AddInr(2, {"gamma"});
  cluster.StabilizeTopology();
  auto svc = cluster.AddEndpoint(10);
  svc->Send(a->address(), Envelope{MessageBody(
      MakeAd("[vspace=beta][service=camera]", svc->address()))});
  cluster.Settle();
  ASSERT_EQ(a->vspaces().Tree("beta")->record_count(), 1u);

  // Simulate the delegation handshake a's load balancer would perform.
  auto harness = cluster.AddEndpoint(30);
  harness->Send(b->address(), Envelope{MessageBody(DelegateVspace{a->address(), "beta"})});
  cluster.Settle();
  a->discovery().SendVspaceStateTo(b->address(), "beta");
  cluster.Settle();
  a->vspaces().RemoveSpace("beta");
  cluster.loop().RunFor(Seconds(1));

  EXPECT_FALSE(a->vspaces().Routes("beta"));
  ASSERT_TRUE(b->vspaces().Routes("beta"));
  EXPECT_EQ(b->vspaces().Tree("beta")->record_count(), 1u);
  // The DSR now points beta at b.
  EXPECT_EQ(cluster.dsr().InrForVspace("beta"), b->address());
}

}  // namespace
}  // namespace ins
