// Printer demo (paper §3.3): load-balancing job submission by location.
//
// Three spoolers with different speeds serve room 517. A user submits a
// batch of jobs "to the best printer in 517" — the printer's name is omitted
// on purpose; intentional anycast routes each job by the spoolers' advertised
// load metrics. The demo prints the resulting distribution, then takes one
// printer out of service and shows traffic steering away from it, and
// finally lists and cancels a queued job.
//
//   $ ./printer_demo

#include <cstdio>
#include <map>
#include <memory>

#include "ins/apps/printer.h"
#include "ins/inr/inr.h"
#include "ins/overlay/dsr.h"
#include "ins/transport/batched_udp_transport.h"

namespace {

constexpr uint16_t kBasePort = 15860;

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

  // Three printers in room 517; jobs stay queued for the demo's duration.
  PrinterSpooler::Options slow;
  slow.tick_interval = Seconds(600);
  Node lw1_node(&loop, 10, kBasePort + 2, inr_addr, dsr_addr);
  PrinterSpooler lw1(lw1_node.client.get(), "lw1", "517", slow);
  Node lw2_node(&loop, 11, kBasePort + 3, inr_addr, dsr_addr);
  PrinterSpooler lw2(lw2_node.client.get(), "lw2", "517", slow);
  Node lw3_node(&loop, 12, kBasePort + 4, inr_addr, dsr_addr);
  PrinterSpooler lw3(lw3_node.client.get(), "lw3", "517", slow);

  Node user_node(&loop, 20, kBasePort + 5, inr_addr, dsr_addr);
  PrinterClient alice(user_node.client.get(), "alice");
  loop.RunFor(Milliseconds(500));

  // Submit 9 equal jobs by location only.
  std::map<std::string, int> taken;
  uint64_t a_job_id = 0;
  for (int i = 0; i < 9; ++i) {
    alice.SubmitToBest("517", Bytes(8192, 'x'), [&](Status s, auto result) {
      if (s.ok()) {
        taken[result.printer_id] += 1;
        a_job_id = result.job_id;
      }
    });
    loop.RunFor(Milliseconds(250));
  }
  std::printf("9 jobs submitted to 'the best printer in room 517':\n");
  for (const auto& [printer, count] : taken) {
    std::printf("  %s: %d job(s)\n", printer.c_str(), count);
  }
  bool balanced = taken["lw1"] == 3 && taken["lw2"] == 3 && taken["lw3"] == 3;

  // lw2 jams; new jobs avoid it.
  std::printf("\n>> lw2 reports an error (out of paper)\n");
  lw2.SetError(true);
  loop.RunFor(Milliseconds(300));
  std::map<std::string, int> after_error;
  for (int i = 0; i < 4; ++i) {
    alice.SubmitToBest("517", Bytes(8192, 'x'), [&](Status s, auto result) {
      if (s.ok()) {
        after_error[result.printer_id] += 1;
      }
    });
    loop.RunFor(Milliseconds(250));
  }
  std::printf("4 more jobs:\n");
  for (const auto& [printer, count] : after_error) {
    std::printf("  %s: %d job(s)\n", printer.c_str(), count);
  }
  bool avoided = after_error.count("lw2") == 0;

  // Queue management: list lw1's queue, cancel the last submitted job.
  bool listed = false;
  alice.ListJobs("lw1", [&](Status s, std::vector<PrintJob> jobs) {
    std::printf("\nlw1 queue (%s): %zu job(s)\n", s.ToString().c_str(), jobs.size());
    for (const PrintJob& j : jobs) {
      std::printf("  #%llu %s %u bytes\n", static_cast<unsigned long long>(j.id),
                  j.user.c_str(), j.size_bytes);
    }
    listed = s.ok() && !jobs.empty();
  });
  loop.RunFor(Seconds(1));

  bool ok = balanced && avoided && listed;
  std::printf("printer_demo: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
