// Real-socket transport ablation — sim::Network vs BatchedUdpTransport.
//
// Every other number in this repo was measured on the deterministic sim
// transport; this bench measures the wire path itself on real loopback
// sockets. One sender and one receiver share a RealEventLoop; the sender
// pumps fixed-size datagrams as fast as backpressure allows while the
// receiver drains, and each payload carries its send timestamp so
// send-to-deliver latency comes out of the same run.
//
// Series: sim::Network on a zero-latency link driven by its EventLoop (the
// no-syscall ceiling, and what the tier-1 suite runs on), and
// BatchedUdpTransport at 1/8/64 datagrams per sendmmsg.
//
// Invariant (exit 1): batch 64 must move >= 2x the datagrams/s of batch 1 —
// the syscall amortization the transport exists for. CI runs this gate on
// every push.
//
// Writes a JSON report (argv[1], default bench_udp_throughput.json):
//   {"bench": "udp_throughput", "payload_bytes": 64, "datagrams": ...,
//    "batch64_vs_batch1": ..., "series": [{"transport": "batched", "batch": 64,
//    "datagrams_per_sec": ..., "p50_us": ..., "p99_us": ...,
//    "delivered_fraction": ...}, ...]}

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "ins/common/metrics.h"
#include "ins/sim/network.h"
#include "ins/transport/batched_udp_transport.h"

namespace {

using namespace ins;

constexpr size_t kPayloadBytes = 64;
constexpr uint64_t kDatagrams = 200'000;
constexpr uint16_t kBasePort = 46100;

struct RunResult {
  std::string transport;
  size_t batch = 0;
  double datagrams_per_sec = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double delivered_fraction = 0.0;
};

double WallSeconds(std::chrono::steady_clock::time_point a,
                   std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

void StampNow(Bytes* payload, TimePoint now) {
  const int64_t us = now.count();
  std::memcpy(payload->data(), &us, sizeof(us));
}

int64_t ReadStamp(const Bytes& payload) {
  int64_t us = 0;
  std::memcpy(&us, payload.data(), sizeof(us));
  return us;
}

// Pumps kDatagrams through sender->receiver on one RealEventLoop, draining
// as backpressure demands, and reports throughput + latency quantiles.
RunResult RunReal(RealEventLoop& loop, BatchedUdpTransport& sender, Transport& receiver,
                  const NodeAddress& dest) {
  RunResult r;
  r.transport = "batched";

  uint64_t received = 0;
  Histogram latency;
  auto wall_start = std::chrono::steady_clock::now();
  auto wall_last_recv = wall_start;
  receiver.SetReceiveHandler([&](const NodeAddress&, const Bytes& data) {
    ++received;
    const int64_t sent_at = ReadStamp(data);
    const int64_t now = loop.Now().count();
    latency.Record(now > sent_at ? static_cast<uint64_t>(now - sent_at) : 0);
    wall_last_recv = std::chrono::steady_clock::now();
  });

  Bytes payload(kPayloadBytes, 0x42);
  uint64_t sent = 0;
  wall_start = std::chrono::steady_clock::now();
  while (sent < kDatagrams) {
    bool blocked = false;
    for (int burst = 0; burst < 4096 && sent < kDatagrams; ++burst) {
      StampNow(&payload, loop.Now());
      Status s = sender.Send(dest, payload);
      if (!s.ok()) {
        blocked = true;
        break;
      }
      ++sent;
    }
    // Let the receiver drain (and a blocked sender queue flush).
    loop.RunFor(Milliseconds(blocked ? 2 : 1));
  }
  sender.FlushNow();
  // Drain the tail: stop once receipt goes quiet.
  for (int quiet = 0; quiet < 20 && received < sent; ++quiet) {
    const uint64_t before = received;
    loop.RunFor(Milliseconds(25));
    if (received != before) {
      quiet = 0;
    }
  }

  const double elapsed = WallSeconds(wall_start, wall_last_recv);
  r.datagrams_per_sec = elapsed > 0 ? static_cast<double>(received) / elapsed : 0;
  r.p50_us = latency.P50();
  r.p99_us = latency.P99();
  r.delivered_fraction =
      sent > 0 ? static_cast<double>(received) / static_cast<double>(sent) : 0;
  receiver.SetReceiveHandler(nullptr);
  return r;
}

RunResult RunSim() {
  // The deterministic virtual-time network the tier-1 suite runs on, with a
  // zero-latency link: the no-syscall upper bound for this host.
  RunResult r;
  r.transport = "sim";
  sim::EventLoop loop;
  sim::Network net(&loop);
  net.SetDefaultLink(sim::LinkParams{.latency = Duration(0)});
  auto a = net.Bind(MakeAddress(1));
  auto b = net.Bind(MakeAddress(2));
  uint64_t received = 0;
  b->SetReceiveHandler([&](const NodeAddress&, const Bytes&) { ++received; });
  Bytes payload(kPayloadBytes, 0x42);
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < kDatagrams; ++i) {
    a->Send(MakeAddress(2), payload);
    if (i % 4096 == 4095) {
      loop.RunUntilIdle();
    }
  }
  loop.RunUntilIdle();
  const double elapsed = WallSeconds(start, std::chrono::steady_clock::now());
  r.datagrams_per_sec = elapsed > 0 ? static_cast<double>(received) / elapsed : 0;
  r.delivered_fraction = static_cast<double>(received) / static_cast<double>(kDatagrams);
  return r;
}

RunResult RunBatched(size_t batch, uint16_t port) {
  RealEventLoop loop;
  BatchedUdpConfig config;
  config.batch_size = batch;
  auto a = BatchedUdpTransport::Bind(&loop, MakeAddress(1, port), config);
  auto b = BatchedUdpTransport::Bind(&loop, MakeAddress(2, port + 1), config);
  if (!a.ok() || !b.ok()) {
    std::printf("FAILED: bind: %s\n",
                (!a.ok() ? a.status() : b.status()).ToString().c_str());
    std::exit(1);
  }
  RunResult r = RunReal(loop, **a, **b, MakeAddress(2, port + 1));
  r.batch = batch;
  return r;
}

void PrintRow(const RunResult& r) {
  std::printf("%-8s %-6s %14.0f %10.1f %10.1f %10.3f\n", r.transport.c_str(),
              r.batch == 0 ? "-" : std::to_string(r.batch).c_str(), r.datagrams_per_sec,
              r.p50_us, r.p99_us, r.delivered_fraction);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "bench_udp_throughput.json";

  std::printf("udp throughput: %llu datagrams of %zu bytes, loopback\n",
              static_cast<unsigned long long>(kDatagrams), kPayloadBytes);
  std::printf("%-8s %-6s %14s %10s %10s %10s\n", "mode", "batch", "datagrams/s", "p50 us",
              "p99 us", "delivered");

  std::vector<RunResult> series;
  series.push_back(RunSim());
  PrintRow(series.back());

  uint16_t port = kBasePort + 10;
  double batch1 = 0;
  double batch64 = 0;
  for (size_t batch : {size_t{1}, size_t{8}, size_t{64}}) {
    series.push_back(RunBatched(batch, port));
    port += 2;
    PrintRow(series.back());
    if (batch == 1) {
      batch1 = series.back().datagrams_per_sec;
    }
    if (batch == 64) {
      batch64 = series.back().datagrams_per_sec;
    }
  }

  const double ratio = batch1 > 0 ? batch64 / batch1 : 0;
  std::printf("batch 64 / batch 1: %.2fx\n", ratio);
  if (ratio < 2.0) {
    std::printf("FAILED: batch 64 must reach >= 2x the datagrams/s of batch 1 "
                "(got %.2fx)\n", ratio);
    return 1;
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::printf("cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"udp_throughput\",\n");
  std::fprintf(f, "  \"payload_bytes\": %zu,\n  \"datagrams\": %llu,\n", kPayloadBytes,
               static_cast<unsigned long long>(kDatagrams));
  std::fprintf(f, "  \"batch64_vs_batch1\": %.2f,\n  \"series\": [\n", ratio);
  for (size_t i = 0; i < series.size(); ++i) {
    const RunResult& r = series[i];
    std::fprintf(f,
                 "    {\"transport\": \"%s\", \"batch\": %zu, "
                 "\"datagrams_per_sec\": %.0f, \"p50_us\": %.1f, \"p99_us\": %.1f, "
                 "\"delivered_fraction\": %.4f}%s\n",
                 r.transport.c_str(), r.batch, r.datagrams_per_sec, r.p50_us, r.p99_us,
                 r.delivered_fraction,
                 i + 1 < series.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("report: %s\n", out_path.c_str());
  return 0;
}
