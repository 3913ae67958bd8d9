// Camera demo (paper §3.2): a mobile camera network over a two-resolver
// overlay.
//
// Demonstrates all four behaviours the paper describes:
//   1. request–response image fetch by intentional name,
//   2. group delivery: one multicast frame reaches every subscriber,
//   3. INR-side caching: a repeat request is answered by the resolver,
//   4. node mobility: the camera's host changes address mid-session and a
//      viewer's next request still succeeds (late binding).
//
//   $ ./camera_demo

#include <cstdio>
#include <memory>

#include "ins/apps/camera.h"
#include "ins/client/mobility.h"
#include "ins/inr/inr.h"
#include "ins/overlay/dsr.h"
#include "ins/transport/batched_udp_transport.h"

namespace {

constexpr uint16_t kBasePort = 15840;

struct Node {
  std::unique_ptr<ins::BatchedUdpTransport> transport;
  std::unique_ptr<ins::InsClient> client;

  Node(ins::RealEventLoop* loop, uint32_t host, uint16_t port, ins::NodeAddress inr,
       ins::NodeAddress dsr) {
    auto t = ins::BatchedUdpTransport::Bind(loop, ins::MakeAddress(host, port));
    if (!t.ok()) {
      std::fprintf(stderr, "bind %u failed\n", port);
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

}  // namespace

int main() {
  using namespace ins;
  RealEventLoop loop;

  auto dsr_transport = BatchedUdpTransport::Bind(&loop, MakeAddress(250, kBasePort));
  auto inr1_transport = BatchedUdpTransport::Bind(&loop, MakeAddress(1, kBasePort + 1));
  auto inr2_transport = BatchedUdpTransport::Bind(&loop, MakeAddress(2, kBasePort + 2));
  if (!dsr_transport.ok() || !inr1_transport.ok() || !inr2_transport.ok()) {
    std::fprintf(stderr, "bind failed (ports in use?)\n");
    return 1;
  }
  Dsr dsr(&loop, dsr_transport->get());
  NodeAddress dsr_addr = (*dsr_transport)->local_address();

  InrConfig config1;
  config1.dsr = dsr_addr;
  Inr inr1(&loop, inr1_transport->get(), config1);
  inr1.Start();
  loop.RunFor(Milliseconds(200));
  Inr inr2(&loop, inr2_transport->get(), config1);
  inr2.Start();
  loop.RunFor(Milliseconds(400));
  std::printf("overlay: inr1 neighbors=%zu inr2 neighbors=%zu\n",
              inr1.topology().NeighborAddresses().size(),
              inr2.topology().NeighborAddresses().size());

  // The camera attaches to inr1; viewers attach to inr2.
  Node cam_node(&loop, 10, kBasePort + 3, inr1.address(), dsr_addr);
  CameraTransmitter camera(cam_node.client.get(), "cam-a", "510");
  camera.SetImage({'f', 'r', 'a', 'm', 'e', '1'});
  MobilityManager camera_mobility(
      &loop, cam_node.client.get(),
      [&](const NodeAddress&) { return Status::Ok(); });  // UDP demo: identity move

  Node v1_node(&loop, 20, kBasePort + 4, inr2.address(), dsr_addr);
  CameraReceiver viewer1(v1_node.client.get(), "v1");
  Node v2_node(&loop, 21, kBasePort + 5, inr2.address(), dsr_addr);
  CameraReceiver viewer2(v2_node.client.get(), "v2");
  loop.RunFor(Milliseconds(500));

  int checks_passed = 0;

  // 1. Request–response across the overlay.
  viewer1.RequestImage("510", false, [&](Status s, Bytes img) {
    std::printf("1. request-response: %s, image '%.*s'\n", s.ToString().c_str(),
                static_cast<int>(img.size()), reinterpret_cast<const char*>(img.data()));
    if (s.ok()) {
      ++checks_passed;
    }
  });
  loop.RunFor(Seconds(1));

  // 2. Subscriptions: one multicast frame reaches both viewers.
  viewer1.Subscribe("510");
  viewer2.Subscribe("510");
  loop.RunFor(Milliseconds(500));
  int frames = 0;
  viewer1.on_frame = [&](const NameSpecifier&, const Bytes&) { ++frames; };
  viewer2.on_frame = [&](const NameSpecifier&, const Bytes&) { ++frames; };
  camera.SetImage({'f', 'r', 'a', 'm', 'e', '2'});
  camera.PublishToSubscribers(/*cache_lifetime_s=*/30);
  loop.RunFor(Seconds(1));
  std::printf("2. multicast: %d/2 subscribers got the frame\n", frames);
  if (frames == 2) {
    ++checks_passed;
  }

  // 3. Cached answer: the resolver replies, the camera never sees it.
  uint64_t served_before = camera.requests_served();
  viewer2.RequestImage("510", /*allow_cached=*/true, [&](Status s, Bytes img) {
    bool from_cache = camera.requests_served() == served_before;
    std::printf("3. cached fetch: %s, '%.*s' (answered by %s)\n", s.ToString().c_str(),
                static_cast<int>(img.size()), reinterpret_cast<const char*>(img.data()),
                from_cache ? "an INR cache" : "the camera");
    if (s.ok() && from_cache) {
      ++checks_passed;
    }
  });
  loop.RunFor(Seconds(1));

  // 4. Node mobility: the camera host re-announces (in a real deployment the
  // address changes; the name stays) and viewers keep working untouched.
  camera_mobility.Move(cam_node.client->address());
  loop.RunFor(Milliseconds(500));
  viewer1.RequestImage("510", false, [&](Status s, Bytes) {
    std::printf("4. post-move request: %s\n", s.ToString().c_str());
    if (s.ok()) {
      ++checks_passed;
    }
    loop.Stop();
  });
  loop.RunFor(Seconds(2));

  std::printf("camera_demo: %d/4 checks passed — %s\n", checks_passed,
              checks_passed == 4 ? "OK" : "FAILED");
  return checks_passed == 4 ? 0 : 1;
}
