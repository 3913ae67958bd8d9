// Real-socket integration test (ctest label "realnet"): the quickstart
// scenario — DSR + two INRs + a service + a client — over BatchedUdpTransport
// on the loopback interface, with admission control enabled.
// Everything runs in real time in one process on one RealEventLoop, so the
// assertions poll with generous deadlines instead of stepping virtual time.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ins/client/api.h"
#include "ins/inr/inr.h"
#include "ins/name/parser.h"
#include "ins/overlay/dsr.h"
#include "ins/transport/batched_udp_transport.h"

namespace ins {
namespace {

constexpr uint16_t kBasePort = 44210;

NameSpecifier P(const std::string& text) {
  auto r = ParseNameSpecifier(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status();
  return std::move(r).value();
}

BatchedUdpConfig Batch16Config() {
  BatchedUdpConfig config;
  config.batch_size = 16;
  return config;
}

// Polls `done` every few milliseconds of real time, up to `deadline`.
template <typename Pred>
bool RunUntil(RealEventLoop& loop, Duration deadline, Pred done) {
  const TimePoint end = loop.Now() + deadline;
  while (loop.Now() < end) {
    if (done()) {
      return true;
    }
    loop.RunFor(Milliseconds(20));
  }
  return done();
}

std::unique_ptr<BatchedUdpTransport> MustBind(RealEventLoop& loop, uint32_t host,
                                              uint16_t port) {
  auto t = BatchedUdpTransport::Bind(&loop, MakeAddress(host, port), Batch16Config());
  EXPECT_TRUE(t.ok()) << t.status();
  return std::move(*t);
}

TEST(RealnetTest, QuickstartScenarioOverBatchedUdp) {
  RealEventLoop loop;

  // --- Infrastructure: DSR + two INRs, batched transports everywhere.
  auto dsr_transport = MustBind(loop, 250, kBasePort);
  auto inr1_transport = MustBind(loop, 1, kBasePort + 1);
  auto inr2_transport = MustBind(loop, 2, kBasePort + 2);
  ASSERT_TRUE(dsr_transport && inr1_transport && inr2_transport);
  Dsr dsr(&loop, dsr_transport.get());

  InrConfig inr_config;
  inr_config.dsr = dsr_transport->local_address();
  inr_config.admission.enabled = true;  // ingress admission on real sockets
  Inr inr1(&loop, inr1_transport.get(), inr_config);
  Inr inr2(&loop, inr2_transport.get(), inr_config);
  inr1.Start();
  ASSERT_TRUE(RunUntil(loop, Seconds(20), [&] { return inr1.topology().joined(); }));
  inr2.Start();
  ASSERT_TRUE(RunUntil(loop, Seconds(20), [&] { return inr2.topology().joined(); }));

  // --- A service on inr1, a client on inr2.
  auto svc_transport = MustBind(loop, 10, kBasePort + 3);
  auto cli_transport = MustBind(loop, 20, kBasePort + 4);
  ASSERT_TRUE(svc_transport && cli_transport);

  ClientConfig svc_config;
  svc_config.inr = inr1.address();
  svc_config.dsr = dsr_transport->local_address();
  InsClient service(&loop, svc_transport.get(), svc_config);
  service.Start();
  NameSpecifier thermostat = P("[service=thermostat[id=t1]][room=510]");
  auto advertisement = service.Advertise(thermostat, {{9000, "udp"}});

  ClientConfig cli_config;
  cli_config.inr = inr2.address();
  cli_config.dsr = dsr_transport->local_address();
  InsClient client(&loop, cli_transport.get(), cli_config);
  client.Start();
  NameSpecifier client_name = P("[service=realnet-client[id=c1]]");
  auto client_ad = client.Advertise(client_name);

  // No lost control traffic: the advertisement must propagate to BOTH
  // resolvers (registration, triggered update, and routing all over real
  // sockets).
  ASSERT_TRUE(RunUntil(loop, Seconds(30), [&] {
    const NameTree* t1 = inr1.vspaces().Tree("");
    const NameTree* t2 = inr2.vspaces().Tree("");
    return t1 != nullptr && t2 != nullptr && t1->record_count() >= 2 &&
           t2->record_count() >= 2;
  })) << "names did not reach both resolvers:\n"
      << inr1.DebugString() << inr2.DebugString();

  // --- Discovery via the client's resolver (inr2).
  bool discovered = false;
  client.Discover(P("[service=thermostat][room=510]"), "",
                  [&](Status s, std::vector<InsClient::DiscoveredName> names) {
                    discovered = s.ok() && names.size() == 1;
                  });
  ASSERT_TRUE(RunUntil(loop, Seconds(20), [&] { return discovered; }));

  // --- Late binding: anycast to the intentional name, reply by name too.
  bool service_got = false;
  bool client_got = false;
  service.OnData([&](const NameSpecifier& from, const Bytes& payload) {
    service_got = payload == Bytes{'t', 'e', 'm', 'p', '?'};
    service.SendAnycast(from, {'2', '1', 'C'}, thermostat);
  });
  client.OnData([&](const NameSpecifier&, const Bytes& payload) {
    client_got = payload == Bytes{'2', '1', 'C'};
  });
  client.SendAnycast(P("[service=thermostat][room=510]"),
                     {'t', 'e', 'm', 'p', '?'}, client_name);
  ASSERT_TRUE(RunUntil(loop, Seconds(20), [&] { return service_got && client_got; }));

  // The batched transports really did send: the resolvers' registries carry
  // the transport.* family (AttachMetrics wiring).
  EXPECT_GT(inr1.metrics().Counter("transport.send.datagrams"), 0u);
  EXPECT_GT(inr1.metrics().Counter("transport.recv.datagrams"), 0u);
  EXPECT_EQ(inr1.metrics().Counter("transport.drop.error"), 0u);
  EXPECT_EQ(inr2.metrics().Counter("transport.drop.error"), 0u);

  // --- Clean shutdown: stop the resolvers; clients tear down in their
  // destructors. No crashes, no stuck timers.
  inr2.Stop();
  inr1.Stop();
  loop.RunFor(Milliseconds(200));
}

TEST(RealnetTest, ResolverSurvivesBurstTraffic) {
  // A client hammers one resolver with discovery requests; with admission
  // enabled nothing may crash, and the resolver must still answer
  // afterwards (graceful degradation, not collapse).
  RealEventLoop loop;
  auto dsr_transport = MustBind(loop, 250, kBasePort + 10);
  auto inr_transport = MustBind(loop, 1, kBasePort + 11);
  ASSERT_TRUE(dsr_transport && inr_transport);
  Dsr dsr(&loop, dsr_transport.get());
  InrConfig inr_config;
  inr_config.dsr = dsr_transport->local_address();
  inr_config.admission.enabled = true;
  Inr inr(&loop, inr_transport.get(), inr_config);
  inr.Start();
  ASSERT_TRUE(RunUntil(loop, Seconds(20), [&] { return inr.topology().joined(); }));

  auto svc_transport = MustBind(loop, 10, kBasePort + 12);
  ClientConfig svc_config;
  svc_config.inr = inr.address();
  svc_config.dsr = dsr_transport->local_address();
  InsClient service(&loop, svc_transport.get(), svc_config);
  service.Start();
  auto ad = service.Advertise(P("[service=burst-target]"));
  ASSERT_TRUE(RunUntil(loop, Seconds(20), [&] {
    const NameTree* t = inr.vspaces().Tree("");
    return t != nullptr && t->record_count() >= 1;
  }));

  auto cli_transport = MustBind(loop, 20, kBasePort + 13);
  ClientConfig cli_config;
  cli_config.inr = inr.address();
  cli_config.dsr = dsr_transport->local_address();
  InsClient client(&loop, cli_transport.get(), cli_config);
  client.Start();

  int answered = 0;
  for (int burst = 0; burst < 20; ++burst) {
    for (int i = 0; i < 50; ++i) {
      client.Discover(P("[service=burst-target]"), "",
                      [&](Status s, std::vector<InsClient::DiscoveredName> names) {
                        answered += (s.ok() && !names.empty()) ? 1 : 0;
                      });
    }
    loop.RunFor(Milliseconds(10));
  }
  loop.RunFor(Seconds(2));

  // Some requests may time out under overload; the resolver itself must
  // still be responsive afterwards.
  bool alive = false;
  client.Discover(P("[service=burst-target]"), "",
                  [&](Status s, std::vector<InsClient::DiscoveredName> names) {
                    alive = s.ok() && names.size() == 1;
                  });
  EXPECT_TRUE(RunUntil(loop, Seconds(20), [&] { return alive; }));
  EXPECT_GT(answered, 0);

  inr.Stop();
}

}  // namespace
}  // namespace ins
