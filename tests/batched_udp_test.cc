// Tests for BatchedUdpTransport: batching counters, partial batches leaving
// before the loop sleeps, queue backpressure accounting under real kernel
// pushback, the oversize bypass, the wire format
// as a raw POSIX socket sees it, bind failures, and the zero-allocation
// guarantee on the hot path.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <linux/filter.h>
#include <linux/seccomp.h>
#include <netinet/in.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>

#include "alloc_window.h"
#include "ins/common/metrics.h"
#include "ins/transport/batched_udp_transport.h"
#include "ins/transport/timer_wheel.h"

namespace ins {
namespace {

TEST(BatchedUdpTest, RoundTripAndBatchingCounters) {
  RealEventLoop loop;
  BatchedUdpConfig config;
  config.batch_size = 8;
  auto a = BatchedUdpTransport::Bind(&loop, MakeAddress(1, 43411), config);
  auto b = BatchedUdpTransport::Bind(&loop, MakeAddress(2, 43412), config);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();

  MetricsRegistry tx_metrics;
  MetricsRegistry rx_metrics;
  (*a)->AttachMetrics(&tx_metrics);
  (*b)->AttachMetrics(&rx_metrics);

  int received = 0;
  NodeAddress from;
  Bytes last;
  (*b)->SetReceiveHandler([&](const NodeAddress& src, const Bytes& data) {
    ++received;
    from = src;
    last = data;
    if (received == 64) {
      loop.Stop();
    }
  });

  // 64 sends at batch_size 8: full batches flush inline, one sendmmsg each.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE((*a)->Send(MakeAddress(2, 43412), {1, 2, static_cast<uint8_t>(i)}).ok());
  }
  loop.RunFor(Seconds(5));

  EXPECT_EQ(received, 64);
  EXPECT_EQ(from, MakeAddress(1, 43411));
  EXPECT_EQ(last, (Bytes{1, 2, 63}));
  EXPECT_EQ(tx_metrics.Counter("transport.send.datagrams"), 64u);
  EXPECT_EQ(tx_metrics.Counter("transport.send.batches"), 8u);
  EXPECT_EQ(rx_metrics.Counter("transport.recv.datagrams"), 64u);
  // recvmmsg amortization: far fewer syscalls than datagrams.
  EXPECT_LT(rx_metrics.Counter("transport.recv.batches"), 64u);
}

// A blocking AF_INET UDP socket on 127.0.0.1:<port> with a receive timeout,
// standing in for a peer that knows nothing of this transport's code.
struct RawUdpSocket {
  explicit RawUdpSocket(uint16_t port) : fd(::socket(AF_INET, SOCK_DGRAM, 0)) {
    timeval timeout{};
    timeout.tv_sec = 5;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in sa = Loopback(port);
    bound = ::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) == 0;
  }
  ~RawUdpSocket() { ::close(fd); }

  static sockaddr_in Loopback(uint16_t port) {
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(port);
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return sa;
  }
  bool SendTo(uint16_t port, const Bytes& frame) {
    sockaddr_in sa = Loopback(port);
    return ::sendto(fd, frame.data(), frame.size(), 0, reinterpret_cast<sockaddr*>(&sa),
                    sizeof(sa)) == static_cast<ssize_t>(frame.size());
  }
  Bytes Receive() {
    uint8_t buf[2048];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    return n < 0 ? Bytes{} : Bytes(buf, buf + n);
  }

  int fd;
  bool bound = false;
};

TEST(BatchedUdpTest, WireFormatMatchesRawSocket) {
  RealEventLoop loop;
  auto batched = BatchedUdpTransport::Bind(&loop, MakeAddress(7, 43421));
  ASSERT_TRUE(batched.ok()) << batched.status();
  RawUdpSocket raw(43422);
  ASSERT_TRUE(raw.bound);
  MetricsRegistry metrics;
  (*batched)->AttachMetrics(&metrics);

  // Outbound: exactly the big-endian (ip, port) virtual-source header of
  // 10.0.0.7:43421, then the payload.
  ASSERT_TRUE((*batched)->Send(MakeAddress(8, 43422), {1, 2, 3}).ok());
  (*batched)->FlushNow();
  EXPECT_EQ(raw.Receive(), (Bytes{0x0a, 0x00, 0x00, 0x07, 0xa9, 0x9d, 1, 2, 3}));

  // Inbound: a runt shorter than the header never reaches the handler; a
  // hand-built frame arrives with its claimed source and its payload.
  int calls = 0;
  NodeAddress src;
  Bytes got;
  (*batched)->SetReceiveHandler([&](const NodeAddress& from, const Bytes& data) {
    ++calls;
    src = from;
    got = data;
    loop.Stop();
  });
  ASSERT_TRUE(raw.SendTo(43421, {0x0a, 0x00, 0x00, 0x08, 0xa9}));
  ASSERT_TRUE(raw.SendTo(43421, {0x0a, 0x00, 0x00, 0x08, 0xa9, 0x9e, 4, 5, 6}));
  loop.RunFor(Seconds(5));
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(src, MakeAddress(8, 43422));
  EXPECT_EQ(got, (Bytes{4, 5, 6}));
  EXPECT_EQ(metrics.Counter("transport.recv.datagrams"), 1u);
}

TEST(BatchedUdpTest, BindConflictFails) {
  RealEventLoop loop;
  auto a = BatchedUdpTransport::Bind(&loop, MakeAddress(1, 43471));
  ASSERT_TRUE(a.ok()) << a.status();
  auto b = BatchedUdpTransport::Bind(&loop, MakeAddress(2, 43471));
  EXPECT_FALSE(b.ok());
}

// One pass of the event loop that cannot sleep: a Stop() due now bounds the
// epoll_wait timeout at zero, and the pass ends with the timer wheel's
// Advance(), as every loop iteration does.
void PollNow(RealEventLoop& loop) {
  loop.ScheduleAt(loop.Now(), [&loop] { loop.Stop(); });
  loop.Run();
}

// The tests below run 64 rounds, and round r sends 16r µs into a tick of the
// timer wheel, so the rounds sweep the whole 1.024-ms tick. A flush deferred
// by any delay d misses the end of its iteration in the rounds that send
// within d of a tick's end.
constexpr int kRounds = 64;

void WaitForTickPhaseOfRound(const RealEventLoop& loop, int round) {
  constexpr int64_t kTickMask = (int64_t{1} << TimerWheel::kTickShift) - 1;
  while ((loop.Now().count() & kTickMask) / 16 != round) {
  }
}

TEST(BatchedUdpTest, PartialBatchLeavesBeforeTheLoopSleeps) {
  RealEventLoop loop;
  BatchedUdpConfig config;
  config.batch_size = 64;  // never reached: every batch here is partial
  auto a = BatchedUdpTransport::Bind(&loop, MakeAddress(1, 43431), config);
  auto b = BatchedUdpTransport::Bind(&loop, MakeAddress(2, 43432));
  ASSERT_TRUE(a.ok() && b.ok());
  MetricsRegistry metrics;
  (*a)->AttachMetrics(&metrics);

  int received = 0;
  (*b)->SetReceiveHandler([&](const NodeAddress&, const Bytes&) {
    if (++received == 3 * kRounds) {
      loop.Stop();
    }
  });
  for (int round = 0; round < kRounds; ++round) {
    WaitForTickPhaseOfRound(loop, round);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE((*a)->Send(MakeAddress(2, 43432), {9}).ok());
    }
    ASSERT_EQ((*a)->queued(), 3u);
    PollNow(loop);
    ASSERT_EQ((*a)->queued(), 0u) << "round " << round;
  }
  // What one iteration queued left in one sendmmsg.
  EXPECT_EQ(metrics.Counter("transport.send.batches"), static_cast<uint64_t>(kRounds));
  if (received < 3 * kRounds) {
    loop.RunFor(Seconds(5));
  }
  EXPECT_EQ(received, 3 * kRounds);
}

TEST(BatchedUdpTest, SendFromATimerLeavesBeforeTheLoopSleeps) {
  RealEventLoop loop;
  auto a = BatchedUdpTransport::Bind(&loop, MakeAddress(1, 43433));
  auto b = BatchedUdpTransport::Bind(&loop, MakeAddress(2, 43434));
  ASSERT_TRUE(a.ok() && b.ok());
  (*b)->SetReceiveHandler([](const NodeAddress&, const Bytes&) {});

  for (int round = 0; round < kRounds; ++round) {
    WaitForTickPhaseOfRound(loop, round);
    loop.ScheduleAt(loop.Now(), [&] {
      for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE((*a)->Send(MakeAddress(2, 43434), {7}).ok());
      }
    });
    PollNow(loop);
    // The timer's sends scheduled their flush while the wheel was firing. It
    // is already due, so the loop's next epoll_wait has a zero timeout, and
    // that iteration sends the batch.
    PollNow(loop);
    ASSERT_EQ((*a)->queued(), 0u) << "round " << round;
  }
}

TEST(BatchedUdpTest, EchoFromAReceiveHandlerLeavesBeforeTheLoopSleeps) {
  RealEventLoop loop;
  auto a = BatchedUdpTransport::Bind(&loop, MakeAddress(1, 43435));
  auto b = BatchedUdpTransport::Bind(&loop, MakeAddress(2, 43436));
  ASSERT_TRUE(a.ok() && b.ok());

  int echoed = 0;
  int replies = 0;
  (*b)->SetReceiveHandler([&](const NodeAddress& src, const Bytes& data) {
    ASSERT_TRUE((*b)->Send(src, data).ok());
    ++echoed;
  });
  (*a)->SetReceiveHandler([&](const NodeAddress&, const Bytes&) {
    if (++replies == 3 * kRounds) {
      loop.Stop();
    }
  });
  for (int round = 0; round < kRounds; ++round) {
    WaitForTickPhaseOfRound(loop, round);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE((*a)->Send(MakeAddress(2, 43436), {5}).ok());
    }
    (*a)->FlushNow();
    // The replies the handler queued leave in the iteration that ran it.
    for (int polls = 0; echoed < 3 * (round + 1) && polls < 100'000; ++polls) {
      PollNow(loop);
      ASSERT_EQ((*b)->queued(), 0u) << "round " << round;
    }
    ASSERT_EQ(echoed, 3 * (round + 1));
  }
  if (replies < 3 * kRounds) {
    loop.RunFor(Seconds(5));
  }
  EXPECT_EQ(replies, 3 * kRounds);
}

// Makes every later sendmmsg in this process fail with EAGAIN, the kernel
// pushback that loopback never produces on its own: a four-instruction
// seccomp filter (load the syscall number; sendmmsg -> errno; else allow).
bool RefuseSendmmsgWithEagain() {
  sock_filter filter[] = {
      BPF_STMT(BPF_LD | BPF_W | BPF_ABS, offsetof(seccomp_data, nr)),
      BPF_JUMP(BPF_JMP | BPF_JEQ | BPF_K, __NR_sendmmsg, 0, 1),
      BPF_STMT(BPF_RET | BPF_K, SECCOMP_RET_ERRNO | (EAGAIN & SECCOMP_RET_DATA)),
      BPF_STMT(BPF_RET | BPF_K, SECCOMP_RET_ALLOW),
  };
  sock_fprog program{static_cast<unsigned short>(std::size(filter)), filter};
  return ::prctl(PR_SET_NO_NEW_PRIVS, 1, 0, 0, 0) == 0 &&
         ::prctl(PR_SET_SECCOMP, SECCOMP_MODE_FILTER, &program) == 0;
}

// The death-test child of QueueOverflowIsTypedAndCounted. Returns its exit
// code: 0 when every expectation holds, otherwise non-zero after printing
// what it saw.
int FloodUnderKernelPushback() {
  if (!RefuseSendmmsgWithEagain()) {
    std::perror("prctl(seccomp)");
    return 2;
  }
  RealEventLoop loop;
  BatchedUdpConfig config;
  config.batch_size = 16;
  config.max_queue = 64;
  auto a = BatchedUdpTransport::Bind(&loop, MakeAddress(1, 43441), config);
  if (!a.ok()) {
    std::fprintf(stderr, "bind: %s\n", a.status().ToString().c_str());
    return 3;
  }
  MetricsRegistry metrics;
  (*a)->AttachMetrics(&metrics);

  int accepted = 0;
  int rejected = 0;
  int untyped = 0;
  for (int i = 0; i < 500; ++i) {
    Status s = (*a)->Send(MakeAddress(2, 43442), {1, 2, 3, 4});
    if (s.ok()) {
      ++accepted;
    } else if (s.code() == StatusCode::kResourceExhausted) {
      ++rejected;
    } else {
      ++untyped;
    }
  }
  const uint64_t backpressure = metrics.Counter("transport.drop.backpressure");
  const uint64_t sent_or_queued = metrics.Counter("transport.send.datagrams") + (*a)->queued();
  const uint64_t write_blocked = metrics.Counter("transport.send.write_blocked");
  if (accepted != 64 || rejected != 436 || untyped != 0 || backpressure != 436 ||
      sent_or_queued != 64 || write_blocked != 1) {
    std::fprintf(stderr,
                 "accepted=%d rejected=%d untyped=%d backpressure=%llu "
                 "sent+queued=%llu write_blocked=%llu\n",
                 accepted, rejected, untyped, static_cast<unsigned long long>(backpressure),
                 static_cast<unsigned long long>(sent_or_queued),
                 static_cast<unsigned long long>(write_blocked));
    return 1;
  }
  return 0;
}

TEST(BatchedUdpTest, QueueOverflowIsTypedAndCounted) {
  // Under kernel pushback the first full batch's sendmmsg fails with EAGAIN,
  // which parks the ring until EPOLLOUT; the flood then fills all max_queue
  // slots. Every datagram past that must surface as kResourceExhausted AND
  // be counted, and accepted = queued + sent must hold exactly (no silent
  // loss). The seccomp filter cannot be removed again, so the flood runs in
  // a forked child; _exit skips the child's atexit handlers.
  EXPECT_EXIT(_exit(FloodUnderKernelPushback()), ::testing::ExitedWithCode(0), "");
}

TEST(BatchedUdpTest, OversizeFramesBypassTheRing) {
  RealEventLoop loop;
  auto a = BatchedUdpTransport::Bind(&loop, MakeAddress(1, 43451));
  auto b = BatchedUdpTransport::Bind(&loop, MakeAddress(2, 43452));
  ASSERT_TRUE(a.ok() && b.ok());
  MetricsRegistry metrics;
  (*a)->AttachMetrics(&metrics);

  size_t got = 0;
  (*b)->SetReceiveHandler([&](const NodeAddress&, const Bytes& data) {
    got = data.size();
    loop.Stop();
  });

  Bytes big(10'000, 0xAB);  // > kTxSlotBytes, < max datagram
  ASSERT_TRUE((*a)->Send(MakeAddress(2, 43452), big).ok());
  loop.RunFor(Seconds(5));
  EXPECT_EQ(got, 10'000u);
  EXPECT_EQ(metrics.Counter("transport.send.oversize_direct"), 1u);

  Bytes too_big(70'000, 0);
  EXPECT_EQ((*a)->Send(MakeAddress(2, 43452), too_big).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(metrics.Counter("transport.drop.oversize"), 1u);
}

TEST(BatchedUdpTest, HotPathDoesNotAllocate) {
  RealEventLoop loop;
  BatchedUdpConfig config;
  config.batch_size = 16;
  auto a = BatchedUdpTransport::Bind(&loop, MakeAddress(1, 43461), config);
  auto b = BatchedUdpTransport::Bind(&loop, MakeAddress(2, 43462), config);
  ASSERT_TRUE(a.ok() && b.ok());

  int received = 0;
  int target = 0;
  (*b)->SetReceiveHandler([&](const NodeAddress&, const Bytes& data) {
    received += static_cast<int>(data.size() != 0);
    if (received >= target) {
      loop.Stop();
    }
  });
  Bytes payload(64, 0x5A);
  auto burst = [&](int datagrams) {
    target += datagrams;
    for (int i = 0; i < datagrams; ++i) {
      ASSERT_TRUE((*a)->Send(MakeAddress(2, 43462), payload).ok());
    }
    loop.RunFor(Seconds(5));
    ASSERT_EQ(received, target);
  };

  // Warm-up: grows the rx scratch capacity, faults in slots, pools timer
  // nodes, and warms the epoll dispatch path.
  burst(160);

  // Measured window: full batches flush inline from Send; receive drains
  // through recvmmsg into pooled buffers. Nothing may touch the heap.
  {
    AllocWindow window;
    burst(160);
    ASSERT_EQ(window.count(), 0u)
        << window.count() << " allocations on the batched hot path";
  }
}

}  // namespace
}  // namespace ins
