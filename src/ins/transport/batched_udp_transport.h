// Real UDP transport: sendmmsg/recvmmsg batching.
//
// The runnable examples and the realnet tier deploy INRs, services and
// clients as actual UDP endpoints on the loopback interface. INS
// NodeAddresses are virtual: each datagram carries a 6-byte virtual-source
// header (u32 ip, u16 port, big-endian) and is sent to 127.0.0.1:<virtual
// port>, so a multi-process demo needs no configuration beyond distinct
// ports. The transport amortizes syscalls and eliminates per-packet
// allocation:
//
//   * Send() copies the frame into a preallocated transmit slot and enqueues
//     its index on a fixed ring — no heap traffic. Slots are flushed with one
//     sendmmsg per batch; since each mmsghdr carries its own destination
//     address, one batch spans destinations in arrival order (no reordering).
//   * Runs of consecutive equal-length datagrams to one destination collapse
//     into a single UDP_SEGMENT (GSO) superpacket — one skb through the
//     kernel instead of one per datagram — and the receive socket enables
//     UDP_GRO so such runs arrive re-coalesced and are split back into
//     datagrams in user space. Both are transparent framing: every datagram
//     on the wire is byte-identical to one sent on its own, and both
//     sides degrade to plain sendmmsg/recvmmsg at runtime if the kernel
//     refuses the options.
//   * A full batch flushes inline; a partial batch leaves at the end of the
//     loop iteration that queued it, on a pooled timer node due at once —
//     still no allocation, and the loop never sleeps with a batch queued.
//   * Inbound traffic drains with recvmmsg into a preallocated buffer ring;
//     the payload handed to the receive handler reuses one scratch buffer
//     whose capacity persists, so steady state does not allocate either.
//   * When the kernel pushes back (EAGAIN/ENOBUFS, partial sendmmsg) the
//     queue holds the datagrams and EPOLLOUT resumes the flush; when the
//     queue itself fills, Send() fails typed (kResourceExhausted) and the
//     drop is counted — bounded backpressure, never silent loss.

#ifndef INS_TRANSPORT_BATCHED_UDP_TRANSPORT_H_
#define INS_TRANSPORT_BATCHED_UDP_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "ins/common/metrics.h"
#include "ins/common/transport.h"
#include "ins/transport/real_event_loop.h"

namespace ins {

struct BatchedUdpConfig {
  size_t batch_size = 32;   // datagrams per sendmmsg/recvmmsg call
  size_t max_queue = 4096;  // transmit slots; the backpressure bound
};

class BatchedUdpTransport : public Transport {
 public:
  // Frames at most this long (header + payload) ride the zero-allocation
  // slot path; longer ones fall back to a direct sendto.
  static constexpr size_t kTxSlotBytes = 2048;

  static Result<std::unique_ptr<BatchedUdpTransport>> Bind(
      RealEventLoop* loop, const NodeAddress& address,
      const BatchedUdpConfig& config = {});
  ~BatchedUdpTransport() override;

  // Enqueues the datagram; kResourceExhausted once `max_queue` datagrams are
  // waiting (counted under transport.drop.backpressure).
  Status Send(const NodeAddress& destination, const Bytes& data) override;
  void SetReceiveHandler(ReceiveHandler handler) override;
  NodeAddress local_address() const override { return address_; }
  void AttachMetrics(MetricsRegistry* metrics) override;

  // Sends everything queued now instead of at the end of the loop iteration
  // (still subject to kernel backpressure). Tests and shutdown paths use it.
  void FlushNow();

  size_t queued() const { return ring_count_; }

 private:
  struct TxSlot {
    uint8_t data[kTxSlotBytes];
    uint32_t len = 0;
    uint16_t dest_port = 0;
  };

  BatchedUdpTransport(RealEventLoop* loop, NodeAddress address, int fd,
                      const BatchedUdpConfig& config);
  void RegisterMetrics(MetricsRegistry* metrics);

  // Sends everything queued, a batch per sendmmsg, until the kernel pushes
  // back; EPOLLOUT then resumes it.
  void Flush();
  void OnWritable();
  void OnReadable();
  void DispatchDatagram(const uint8_t* buf, size_t len);
  Status SendOversize(const NodeAddress& destination, const Bytes& data);

  // Fixed-capacity FIFO of transmit-slot indices (capacity max_queue + 1).
  uint32_t RingPop();
  void RingPush(uint32_t slot);

  RealEventLoop* loop_;
  NodeAddress address_;
  int fd_;
  BatchedUdpConfig config_;
  ReceiveHandler handler_;

  // Transmit side: slot pool + free stack + pending ring.
  std::vector<TxSlot> tx_slots_;
  std::vector<uint32_t> free_slots_;
  std::vector<uint32_t> ring_;  // circular buffer of pending slot indices
  size_t ring_head_ = 0;
  size_t ring_count_ = 0;
  TaskId flush_task_ = kInvalidTaskId;
  bool write_blocked_ = false;

  // Whether sends may still use UDP_SEGMENT; cleared on the first kernel
  // rejection so every later flush goes straight to plain sendmmsg.
  bool gso_enabled_ = true;

  // Receive side: preallocated recvmmsg buffers (+ per-message control space
  // for the UDP_GRO segment-size cmsg) and one reusable payload.
  std::vector<std::vector<uint8_t>> rx_bufs_;
  std::vector<char> rx_cmsg_;
  Bytes rx_scratch_;

  MetricsRegistry own_metrics_;
  CounterHandle sent_datagrams_;
  CounterHandle recv_datagrams_;
  CounterHandle send_batches_;
  CounterHandle recv_batches_;
  CounterHandle drop_full_;        // transport.drop.backpressure
  CounterHandle drop_error_;       // transport.drop.error
  CounterHandle drop_oversize_;    // transport.drop.oversize
  CounterHandle oversize_direct_;  // transport.send.oversize_direct
  CounterHandle write_blocks_;     // transport.send.write_blocked
  CounterHandle gso_batches_;      // transport.send.gso_batches
  CounterHandle gro_splits_;       // transport.recv.gro_splits
  HistogramHandle batch_fill_;     // transport.send.batch_fill
};

}  // namespace ins

#endif  // INS_TRANSPORT_BATCHED_UDP_TRANSPORT_H_
