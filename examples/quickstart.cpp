// Quickstart: the smallest complete INS deployment.
//
// Starts, in one process over real UDP loopback sockets: a Domain Space
// Resolver, one Intentional Name Resolver, a service that advertises an
// intentional name, and a client that discovers the service, resolves it
// with early binding, and exchanges a message with it via intentional
// anycast — no hostnames or addresses anywhere in the application code.
//
// Every endpoint is a BatchedUdpTransport (sendmmsg/recvmmsg batching).
//
//   $ ./quickstart

#include <cstdio>

#include "ins/client/api.h"
#include "ins/inr/inr.h"
#include "ins/name/parser.h"
#include "ins/overlay/dsr.h"
#include "ins/transport/batched_udp_transport.h"

namespace {

constexpr uint16_t kBasePort = 15800;

ins::NameSpecifier Name(const char* text) {
  auto parsed = ins::ParseNameSpecifier(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "bad name %s: %s\n", text, parsed.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(parsed).value();
}

}  // namespace

int main() {
  using namespace ins;
  RealEventLoop loop;

  // --- Infrastructure: one DSR, one INR -------------------------------------
  auto dsr_transport = BatchedUdpTransport::Bind(&loop, MakeAddress(250, kBasePort));
  auto inr_transport = BatchedUdpTransport::Bind(&loop, MakeAddress(1, kBasePort + 1));
  if (!dsr_transport.ok() || !inr_transport.ok()) {
    std::fprintf(stderr, "bind failed (ports in use?)\n");
    return 1;
  }
  Dsr dsr(&loop, dsr_transport->get());

  InrConfig inr_config;
  inr_config.dsr = (*dsr_transport)->local_address();
  Inr inr(&loop, inr_transport->get(), inr_config);
  inr.Start();
  loop.RunFor(Milliseconds(200));  // let the resolver join
  std::printf("resolver %s is up (joined=%d)\n", inr.address().ToString().c_str(),
              inr.topology().joined() ? 1 : 0);

  // --- A service: a thermostat in room 510 ----------------------------------
  auto svc_transport = BatchedUdpTransport::Bind(&loop, MakeAddress(10, kBasePort + 2));
  ClientConfig svc_config;
  svc_config.inr = inr.address();
  svc_config.dsr = (*dsr_transport)->local_address();
  InsClient service(&loop, svc_transport->get(), svc_config);
  service.Start();

  NameSpecifier thermostat_name =
      Name("[service=thermostat[id=t1]][room=510][building=ne43]");
  auto advertisement = service.Advertise(thermostat_name, {{9000, "udp"}});
  service.OnData([&](const NameSpecifier& from, const Bytes& payload) {
    std::printf("service: request '%.*s' from %s\n", static_cast<int>(payload.size()),
                reinterpret_cast<const char*>(payload.data()), from.ToString().c_str());
    const char* reply = "21.5C";
    service.SendAnycast(from, Bytes(reply, reply + 5), thermostat_name);
  });

  // --- A client: finds the thermostat by what it is, not where it is ---------
  auto cli_transport = BatchedUdpTransport::Bind(&loop, MakeAddress(20, kBasePort + 3));
  ClientConfig cli_config;
  cli_config.inr = inr.address();
  cli_config.dsr = (*dsr_transport)->local_address();
  InsClient client(&loop, cli_transport->get(), cli_config);
  client.Start();
  NameSpecifier client_name = Name("[service=quickstart-client[id=c1]]");
  auto client_ad = client.Advertise(client_name);

  loop.RunFor(Milliseconds(300));  // advertisements propagate

  // 1. Discovery: what thermostats exist in room 510?
  client.Discover(Name("[service=thermostat][room=510]"), "",
                  [](Status s, std::vector<InsClient::DiscoveredName> names) {
                    std::printf("discovery (%s): %zu name(s)\n", s.ToString().c_str(),
                                names.size());
                    for (const auto& n : names) {
                      std::printf("  %s\n", n.name.ToString().c_str());
                    }
                  });

  // 2. Early binding: DNS-style resolution to addresses + metrics.
  client.ResolveEarly(Name("[service=thermostat][room=510]"),
                      [](Status s, std::vector<InsClient::Binding> bindings) {
                        std::printf("early binding (%s): %zu location(s)\n",
                                    s.ToString().c_str(), bindings.size());
                        for (const auto& b : bindings) {
                          std::printf("  %s metric=%.1f\n",
                                      b.endpoint.address.ToString().c_str(), b.app_metric);
                        }
                      });

  // 3. Late binding: send straight to the intentional name.
  bool done = false;
  client.OnData([&](const NameSpecifier& from, const Bytes& payload) {
    std::printf("client: '%.*s' from %s\n", static_cast<int>(payload.size()),
                reinterpret_cast<const char*>(payload.data()), from.ToString().c_str());
    done = true;
    loop.Stop();
  });
  const char* question = "temp?";
  client.SendAnycast(Name("[service=thermostat][room=510]"),
                     Bytes(question, question + 5), client_name);

  loop.RunFor(Seconds(3));
  std::printf(done ? "quickstart: OK\n" : "quickstart: FAILED (no reply)\n");
  return done ? 0 : 1;
}
