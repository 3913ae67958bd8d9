// sendmmsg/recvmmsg need _GNU_SOURCE; must precede every libc include.
#ifndef _GNU_SOURCE
#define _GNU_SOURCE 1
#endif

#include "ins/transport/batched_udp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/udp.h>
#include <sys/socket.h>
#include <unistd.h>

// Older libc headers may lack the GSO/GRO socket options (kernel >= 4.18).
#ifndef UDP_SEGMENT
#define UDP_SEGMENT 103
#endif
#ifndef UDP_GRO
#define UDP_GRO 104
#endif

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>

namespace ins {

namespace {

constexpr size_t kVirtualHeader = 6;  // u32 virtual ip + u16 virtual port
constexpr size_t kMaxDatagram = 65507;

// recvmmsg drains this many datagrams per syscall. Buffers must fit a
// maximal datagram, so this also bounds the preallocated receive memory
// (32 * 64 KiB = 2 MiB per transport).
constexpr size_t kRxBatch = 32;
constexpr size_t kRxBufBytes = 65536;
constexpr size_t kMaxSendBatch = 64;

// Kernel caps on one GSO superpacket: UDP_MAX_SEGMENTS segments, and the
// linearized payload must still fit a UDP datagram.
constexpr size_t kMaxGsoSegments = 64;
constexpr size_t kMaxGsoBytes = 65535;
constexpr size_t kRxCmsgSpace = CMSG_SPACE(sizeof(int));

void FillSockaddr(uint16_t port, sockaddr_in* sa) {
  std::memset(sa, 0, sizeof(*sa));
  sa->sin_family = AF_INET;
  sa->sin_port = htons(port);
  sa->sin_addr.s_addr = htonl(INADDR_LOOPBACK);
}

// Opens a non-blocking AF_INET UDP socket bound to 127.0.0.1:<port> with
// enlarged kernel buffers. Returns the fd or a Status.
Result<int> OpenBoundSocket(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return InternalError(std::string("socket(): ") + std::strerror(errno));
  }
  // Deep kernel buffers: the bench floods loopback far past the 212 KiB
  // default, and a resolver handling a burst should absorb it rather than
  // shed at the socket. Best effort — the kernel clamps to rmem_max/wmem_max.
  const int kBufBytes = 4 * 1024 * 1024;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &kBufBytes, sizeof(kBufBytes));
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &kBufBytes, sizeof(kBufBytes));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return UnavailableError("bind(127.0.0.1:" + std::to_string(port) + "): " + err);
  }
  return fd;
}

// Writes the 6-byte virtual-source header for `self` into `out`.
void WriteVirtualHeader(const NodeAddress& self, uint8_t* out) {
  out[0] = static_cast<uint8_t>(self.ip >> 24);
  out[1] = static_cast<uint8_t>(self.ip >> 16);
  out[2] = static_cast<uint8_t>(self.ip >> 8);
  out[3] = static_cast<uint8_t>(self.ip);
  out[4] = static_cast<uint8_t>(self.port >> 8);
  out[5] = static_cast<uint8_t>(self.port);
}

// Parses the header into `src`; false if the frame is too short.
bool ReadVirtualHeader(const uint8_t* data, size_t size, NodeAddress* src) {
  if (size < kVirtualHeader) {
    return false;
  }
  src->ip = static_cast<uint32_t>(data[0]) << 24 | static_cast<uint32_t>(data[1]) << 16 |
            static_cast<uint32_t>(data[2]) << 8 | static_cast<uint32_t>(data[3]);
  src->port = static_cast<uint16_t>(static_cast<uint16_t>(data[4]) << 8 | data[5]);
  return true;
}

}  // namespace

Result<std::unique_ptr<BatchedUdpTransport>> BatchedUdpTransport::Bind(
    RealEventLoop* loop, const NodeAddress& address, const BatchedUdpConfig& config) {
  if (config.batch_size == 0 || config.max_queue < config.batch_size) {
    return InvalidArgumentError("BatchedUdpConfig: need 0 < batch_size <= max_queue");
  }
  Result<int> fd = OpenBoundSocket(address.port);
  if (!fd.ok()) {
    return fd.status();
  }
  auto t = std::unique_ptr<BatchedUdpTransport>(
      new BatchedUdpTransport(loop, address, *fd, config));
  loop->RegisterFd(*fd, [raw = t.get()] { raw->OnReadable(); });
  loop->SetWritableHandler(*fd, [raw = t.get()] { raw->OnWritable(); });
  return t;
}

BatchedUdpTransport::BatchedUdpTransport(RealEventLoop* loop, NodeAddress address,
                                         int fd, const BatchedUdpConfig& config)
    : loop_(loop), address_(address), fd_(fd), config_(config) {
  if (config_.batch_size > kMaxSendBatch) {
    config_.batch_size = kMaxSendBatch;
  }
  tx_slots_.resize(config_.max_queue);
  free_slots_.reserve(config_.max_queue);
  for (size_t i = config_.max_queue; i > 0; --i) {
    free_slots_.push_back(static_cast<uint32_t>(i - 1));
  }
  ring_.resize(config_.max_queue + 1);
  rx_bufs_.resize(kRxBatch);
  for (auto& buf : rx_bufs_) {
    buf.resize(kRxBufBytes);
  }
  rx_cmsg_.resize(kRxBatch * kRxCmsgSpace);
  rx_scratch_.reserve(kRxBufBytes);
  // GRO is best-effort: without it runs still arrive as individual
  // datagrams, just without the coalescing win on the receive side.
  int one = 1;
  ::setsockopt(fd_, IPPROTO_UDP, UDP_GRO, &one, sizeof(one));
  RegisterMetrics(&own_metrics_);
}

BatchedUdpTransport::~BatchedUdpTransport() {
  if (flush_task_ != kInvalidTaskId) {
    loop_->Cancel(flush_task_);
  }
  loop_->UnregisterFd(fd_);
  ::close(fd_);
}

void BatchedUdpTransport::RegisterMetrics(MetricsRegistry* metrics) {
  sent_datagrams_ = metrics->RegisterCounter("transport.send.datagrams");
  recv_datagrams_ = metrics->RegisterCounter("transport.recv.datagrams");
  send_batches_ = metrics->RegisterCounter("transport.send.batches");
  recv_batches_ = metrics->RegisterCounter("transport.recv.batches");
  drop_full_ = metrics->RegisterCounter("transport.drop.backpressure");
  drop_error_ = metrics->RegisterCounter("transport.drop.error");
  drop_oversize_ = metrics->RegisterCounter("transport.drop.oversize");
  oversize_direct_ = metrics->RegisterCounter("transport.send.oversize_direct");
  write_blocks_ = metrics->RegisterCounter("transport.send.write_blocked");
  gso_batches_ = metrics->RegisterCounter("transport.send.gso_batches");
  gro_splits_ = metrics->RegisterCounter("transport.recv.gro_splits");
  batch_fill_ = metrics->RegisterHistogram("transport.send.batch_fill");
}

void BatchedUdpTransport::AttachMetrics(MetricsRegistry* metrics) {
  RegisterMetrics(metrics != nullptr ? metrics : &own_metrics_);
}

uint32_t BatchedUdpTransport::RingPop() {
  const uint32_t slot = ring_[ring_head_];
  ring_head_ = (ring_head_ + 1) % ring_.size();
  --ring_count_;
  return slot;
}

void BatchedUdpTransport::RingPush(uint32_t slot) {
  ring_[(ring_head_ + ring_count_) % ring_.size()] = slot;
  ++ring_count_;
}

Status BatchedUdpTransport::Send(const NodeAddress& destination, const Bytes& data) {
  const size_t frame_len = kVirtualHeader + data.size();
  if (frame_len > kMaxDatagram) {
    drop_oversize_.Increment();
    return InvalidArgumentError("datagram too large: " + std::to_string(data.size()));
  }
  if (frame_len > kTxSlotBytes) {
    return SendOversize(destination, data);
  }
  if (free_slots_.empty()) {
    // The queue is the backpressure bound; a forced flush here could recurse
    // into the kernel while it is already pushing back, so fail typed and
    // let the caller's retry/soft-state machinery handle it.
    drop_full_.Increment();
    return ResourceExhaustedError("batched udp queue full (" +
                                  std::to_string(config_.max_queue) + " datagrams)");
  }
  const uint32_t slot_index = free_slots_.back();
  free_slots_.pop_back();
  TxSlot& slot = tx_slots_[slot_index];
  WriteVirtualHeader(address_, slot.data);
  std::memcpy(slot.data + kVirtualHeader, data.data(), data.size());
  slot.len = static_cast<uint32_t>(frame_len);
  slot.dest_port = destination.port;
  RingPush(slot_index);

  if (ring_count_ >= config_.batch_size) {
    Flush();
  } else if (flush_task_ == kInvalidTaskId && !write_blocked_) {
    // Due at once: the wheel fires it in the Advance() that ends this loop
    // iteration, after every ready fd's handler has run.
    flush_task_ = loop_->ScheduleAt(loop_->Now(), [this] {
      flush_task_ = kInvalidTaskId;
      Flush();
    });
  }
  return Status::Ok();
}

Status BatchedUdpTransport::SendOversize(const NodeAddress& destination,
                                         const Bytes& data) {
  // Rare control-plane case (> kTxSlotBytes frame): bypass the slot ring
  // with a direct sendto. Queued smaller datagrams flush first to keep
  // per-destination ordering.
  Flush();
  uint8_t frame[kMaxDatagram];
  WriteVirtualHeader(address_, frame);
  std::memcpy(frame + kVirtualHeader, data.data(), data.size());
  sockaddr_in sa;
  FillSockaddr(destination.port, &sa);
  ssize_t sent;
  do {
    sent = ::sendto(fd_, frame, kVirtualHeader + data.size(), 0,
                    reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
  } while (sent < 0 && errno == EINTR);
  if (sent < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS) {
      drop_full_.Increment();
      return ResourceExhaustedError("udp send backpressure: " +
                                    std::string(std::strerror(errno)));
    }
    drop_error_.Increment();
    return UnavailableError("sendto " + destination.ToString() + ": " +
                            std::strerror(errno));
  }
  oversize_direct_.Increment();
  sent_datagrams_.Increment();
  return Status::Ok();
}

void BatchedUdpTransport::OnWritable() {
  write_blocked_ = false;
  loop_->SetWriteInterest(fd_, false);
  Flush();
}

void BatchedUdpTransport::Flush() {
  if (write_blocked_) {
    return;  // EPOLLOUT will resume us
  }
  mmsghdr hdrs[kMaxSendBatch];
  iovec iovs[kMaxSendBatch];
  sockaddr_in dests[kMaxSendBatch];
  char cmsg_bufs[kMaxSendBatch][CMSG_SPACE(sizeof(uint16_t))];
  size_t group_slots[kMaxSendBatch];  // datagrams carried by each mmsghdr

  while (ring_count_ > 0) {
    const size_t want = ring_count_ < config_.batch_size ? ring_count_ : config_.batch_size;
    // One mmsghdr per wire group. A group is a run of consecutive datagrams
    // with the same destination and length — with GSO those collapse into a
    // single UDP_SEGMENT superpacket (one skb through the kernel); without
    // it every group is a single datagram. Runs only, so arrival order is
    // preserved across destinations.
    std::memset(hdrs, 0, want * sizeof(mmsghdr));
    size_t ngroups = 0;
    bool any_multi = false;
    for (size_t i = 0; i < want;) {
      TxSlot& first = tx_slots_[ring_[(ring_head_ + i) % ring_.size()]];
      size_t run = 1;
      if (gso_enabled_) {
        const size_t max_run =
            std::min({want - i, kMaxGsoSegments, kMaxGsoBytes / first.len});
        while (run < max_run) {
          const TxSlot& next =
              tx_slots_[ring_[(ring_head_ + i + run) % ring_.size()]];
          if (next.dest_port != first.dest_port || next.len != first.len) {
            break;
          }
          ++run;
        }
      }
      const size_t g = ngroups++;
      group_slots[g] = run;
      FillSockaddr(first.dest_port, &dests[g]);
      for (size_t j = 0; j < run; ++j) {
        TxSlot& slot = tx_slots_[ring_[(ring_head_ + i + j) % ring_.size()]];
        iovs[i + j].iov_base = slot.data;
        iovs[i + j].iov_len = slot.len;
      }
      hdrs[g].msg_hdr.msg_name = &dests[g];
      hdrs[g].msg_hdr.msg_namelen = sizeof(dests[g]);
      hdrs[g].msg_hdr.msg_iov = &iovs[i];
      hdrs[g].msg_hdr.msg_iovlen = run;
      if (run > 1) {
        any_multi = true;
        std::memset(cmsg_bufs[g], 0, sizeof(cmsg_bufs[g]));
        hdrs[g].msg_hdr.msg_control = cmsg_bufs[g];
        hdrs[g].msg_hdr.msg_controllen = sizeof(cmsg_bufs[g]);
        cmsghdr* cm = CMSG_FIRSTHDR(&hdrs[g].msg_hdr);
        cm->cmsg_level = SOL_UDP;
        cm->cmsg_type = UDP_SEGMENT;
        cm->cmsg_len = CMSG_LEN(sizeof(uint16_t));
        const uint16_t seg = static_cast<uint16_t>(first.len);
        std::memcpy(CMSG_DATA(cm), &seg, sizeof(seg));
      }
      i += run;
    }
    int sent;
    do {
      sent = ::sendmmsg(fd_, hdrs, static_cast<unsigned>(ngroups), 0);
    } while (sent < 0 && errno == EINTR);
    if (sent < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS) {
        // Kernel pushback: keep everything queued and resume on EPOLLOUT.
        write_blocks_.Increment();
        write_blocked_ = true;
        loop_->SetWriteInterest(fd_, true);
        return;
      }
      if (any_multi && gso_enabled_) {
        // This kernel (or this path) rejects UDP_SEGMENT: degrade to plain
        // sendmmsg for good and retry the same datagrams, still queued.
        gso_enabled_ = false;
        continue;
      }
      // Non-transient socket error: drop this batch so the queue cannot
      // wedge permanently, and count every datagram lost.
      drop_error_.Increment(static_cast<uint64_t>(want));
      for (size_t i = 0; i < want; ++i) {
        free_slots_.push_back(RingPop());
      }
      continue;
    }
    uint64_t committed_datagrams = 0;
    for (int g = 0; g < sent; ++g) {
      for (size_t j = 0; j < group_slots[g]; ++j) {
        free_slots_.push_back(RingPop());
        ++committed_datagrams;
      }
      if (group_slots[g] > 1) {
        gso_batches_.Increment();
      }
    }
    sent_datagrams_.Increment(committed_datagrams);
    send_batches_.Increment();
    batch_fill_.Record(committed_datagrams);
    if (static_cast<size_t>(sent) < ngroups) {
      // Partial batch: the kernel ran out of buffer mid-call.
      write_blocks_.Increment();
      write_blocked_ = true;
      loop_->SetWriteInterest(fd_, true);
      return;
    }
  }
}

void BatchedUdpTransport::FlushNow() {
  if (flush_task_ != kInvalidTaskId) {
    loop_->Cancel(flush_task_);
    flush_task_ = kInvalidTaskId;
  }
  Flush();
}

void BatchedUdpTransport::SetReceiveHandler(ReceiveHandler handler) {
  handler_ = std::move(handler);
}

void BatchedUdpTransport::DispatchDatagram(const uint8_t* buf, size_t len) {
  NodeAddress src;
  if (!ReadVirtualHeader(buf, len, &src) || handler_ == nullptr) {
    return;
  }
  recv_datagrams_.Increment();
  rx_scratch_.assign(buf + kVirtualHeader, buf + len);
  handler_(src, rx_scratch_);
}

void BatchedUdpTransport::OnReadable() {
  // Edge-triggered: drain until EAGAIN. All receive state is preallocated;
  // the only per-packet work is one memcpy into the reused scratch payload.
  mmsghdr hdrs[kRxBatch];
  iovec iovs[kRxBatch];
  for (;;) {
    std::memset(hdrs, 0, sizeof(hdrs));
    for (size_t i = 0; i < kRxBatch; ++i) {
      iovs[i].iov_base = rx_bufs_[i].data();
      iovs[i].iov_len = kRxBufBytes;
      hdrs[i].msg_hdr.msg_iov = &iovs[i];
      hdrs[i].msg_hdr.msg_iovlen = 1;
      hdrs[i].msg_hdr.msg_control = rx_cmsg_.data() + i * kRxCmsgSpace;
      hdrs[i].msg_hdr.msg_controllen = kRxCmsgSpace;
    }
    int n;
    do {
      n = ::recvmmsg(fd_, hdrs, kRxBatch, 0, nullptr);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) {
      return;  // EAGAIN: drained
    }
    recv_batches_.Increment();
    for (int i = 0; i < n; ++i) {
      const uint8_t* buf = rx_bufs_[static_cast<size_t>(i)].data();
      const size_t len = hdrs[i].msg_len;
      // A GRO-coalesced buffer carries several equal-length wire datagrams
      // back to back (the last may be shorter); the segment size rides in a
      // UDP_GRO cmsg. Split it back into datagrams before dispatch.
      size_t seg = 0;
      for (cmsghdr* cm = CMSG_FIRSTHDR(&hdrs[i].msg_hdr); cm != nullptr;
           cm = CMSG_NXTHDR(&hdrs[i].msg_hdr, cm)) {
        if (cm->cmsg_level == SOL_UDP && cm->cmsg_type == UDP_GRO) {
          int gro = 0;
          std::memcpy(&gro, CMSG_DATA(cm), sizeof(gro));
          seg = gro > 0 ? static_cast<size_t>(gro) : 0;
        }
      }
      if (seg == 0 || seg >= len) {
        DispatchDatagram(buf, len);
        continue;
      }
      gro_splits_.Increment();
      for (size_t off = 0; off < len; off += seg) {
        DispatchDatagram(buf + off, std::min(seg, len - off));
      }
    }
    if (static_cast<size_t>(n) < kRxBatch) {
      return;  // fewer than asked: the queue is empty
    }
  }
}

}  // namespace ins
