// Floorplan demo (paper §3.1): map-based discovery of location-dependent
// services.
//
// Brings up a DSR, an INR, a Locator map server, a camera, two printers, and
// a Floorplan display. The display fetches the region map from the Locator
// (routed purely by intentional name), discovers every service on the floor,
// and prints them as an ASCII floorplan. One camera then moves rooms; a
// refresh shows its icon following the service.
//
//   $ ./floorplan_demo

#include <cstdio>
#include <memory>

#include "ins/apps/camera.h"
#include "ins/apps/floorplan.h"
#include "ins/apps/printer.h"
#include "ins/inr/inr.h"
#include "ins/overlay/dsr.h"
#include "ins/transport/batched_udp_transport.h"

namespace {

constexpr uint16_t kBasePort = 15820;

struct Node {
  std::unique_ptr<ins::BatchedUdpTransport> transport;
  std::unique_ptr<ins::InsClient> client;

  Node(ins::RealEventLoop* loop, uint32_t host, uint16_t port, ins::NodeAddress inr,
       ins::NodeAddress dsr) {
    auto t = ins::BatchedUdpTransport::Bind(loop, ins::MakeAddress(host, port));
    if (!t.ok()) {
      std::fprintf(stderr, "bind %u failed: %s\n", port, t.status().ToString().c_str());
      std::exit(1);
    }
    transport = std::move(t).value();
    ins::ClientConfig config;
    config.inr = inr;
    config.dsr = dsr;
    client = std::make_unique<ins::InsClient>(loop, transport.get(), config);
    client->Start();
  }
};

void PrintIcons(const ins::FloorplanApp& ui) {
  std::printf("+---------------- floor 5, building NE43 ----------------+\n");
  for (const auto& [key, icon] : ui.icons()) {
    std::printf("| room %-5s  [%s]  %s\n", icon.room.c_str(), icon.service.c_str(),
                key.c_str());
  }
  std::printf("+--------------------------------------------------------+\n");
}

}  // namespace

int main() {
  using namespace ins;
  RealEventLoop loop;

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
  loop.RunFor(Milliseconds(200));

  NodeAddress inr_addr = inr.address();
  NodeAddress dsr_addr = (*dsr_transport)->local_address();

  // Services on the floor.
  Node locator_node(&loop, 10, kBasePort + 2, inr_addr, dsr_addr);
  LocatorService locator(locator_node.client.get());
  locator.AddMap("ne43-5", {'<', '5', 't', 'h', '-', 'f', 'l', 'o', 'o', 'r', '>'});

  Node camera_node(&loop, 11, kBasePort + 3, inr_addr, dsr_addr);
  CameraTransmitter camera(camera_node.client.get(), "cam-a", "510");

  Node lw1_node(&loop, 12, kBasePort + 4, inr_addr, dsr_addr);
  PrinterSpooler lw1(lw1_node.client.get(), "lw1", "517");
  Node lw2_node(&loop, 13, kBasePort + 5, inr_addr, dsr_addr);
  PrinterSpooler lw2(lw2_node.client.get(), "lw2", "504");

  // The user's display.
  Node display_node(&loop, 20, kBasePort + 6, inr_addr, dsr_addr);
  FloorplanApp ui(display_node.client.get(), "disp1");

  loop.RunFor(Milliseconds(400));  // advertisements propagate

  ui.RequestMap("ne43-5", [](Status s, Bytes map) {
    std::printf("map fetch: %s, %zu bytes: %.*s\n", s.ToString().c_str(), map.size(),
                static_cast<int>(map.size()), reinterpret_cast<const char*>(map.data()));
  });
  ui.Refresh([&](Status s) {
    std::printf("discovery round 1: %s\n", s.ToString().c_str());
    PrintIcons(ui);
  });
  loop.RunFor(Seconds(1));

  // The camera is carried to another room: service mobility — its icon
  // follows on the next refresh with no re-configuration anywhere.
  std::printf("\n>> camera cam-a moves from room 510 to room 504\n\n");
  camera.MoveToRoom("504");
  loop.RunFor(Milliseconds(400));

  bool ok = false;
  ui.Refresh([&](Status s) {
    std::printf("discovery round 2: %s\n", s.ToString().c_str());
    PrintIcons(ui);
    for (const auto& [key, icon] : ui.icons()) {
      if (icon.service == "camera" && icon.room == "504") {
        ok = true;
      }
    }
  });
  loop.RunFor(Seconds(1));

  std::printf(ok ? "floorplan_demo: OK\n" : "floorplan_demo: FAILED\n");
  return ok ? 0 : 1;
}
