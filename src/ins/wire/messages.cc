#include "ins/wire/messages.h"

#include <algorithm>
#include <array>
#include <bit>
#include <type_traits>
#include <utility>

namespace ins {

namespace {

// --- Field declarations --------------------------------------------------------
//
// Each message body and each shared sub-record is declared once, as the order
// of its fields on the wire. The Writer and the Reader below both visit these
// declarations, so encode and decode cannot disagree. How a field travels
// follows from its C++ type alone and is decided in the Writer and the Reader:
// integers big-endian, bools as one byte, doubles and i64 gauges as their
// 64-bit pattern, strings and lists behind a u16 count (u8 for a histogram's
// buckets). The Figure-10 packet is one opaque field with its own codec
// (wire/packet.h).

template <class Io>
void Fields(Io& io, NodeAddress& a) { io(a.ip, a.port); }
template <class Io>
void Fields(Io& io, AnnouncerId& a) { io(a.ip, a.start_time_us, a.discriminator); }
template <class Io>
void Fields(Io& io, PortBinding& b) { io(b.port, b.transport); }
template <class Io>
void Fields(Io& io, EndpointInfo& e) { io(e.address, e.bindings); }
template <class Io>
void Fields(Io& io, NameUpdateEntry& e) {
  io(e.name_text, e.announcer, e.endpoint, e.app_metric, e.route_metric, e.lifetime_s, e.version);
}
template <class Io>
void Fields(Io& io, DiscoveryResponse::Item& i) { io(i.name_text, i.endpoint, i.app_metric); }
template <class Io>
void Fields(Io& io, EarlyBindingResponse::Item& i) { io(i.endpoint, i.app_metric); }
template <class Io>
void Fields(Io& io, JournalDigest::Item& i) { io(i.vspace, i.serial); }
template <class Io>
void Fields(Io& io, JournalDeltaResponse::Entry& e) {
  io(e.op, e.name_text, e.announcer, e.endpoint, e.app_metric, e.route_metric, e.lifetime_s,
     e.version);
}
template <class Io>
void Fields(Io& io, MetricsDeltaResponse::CounterItem& c) { io(c.name, c.value); }
template <class Io>
void Fields(Io& io, MetricsDeltaResponse::GaugeItem& g) { io(g.name, g.value); }
template <class Io>
void Fields(Io& io, MetricsDeltaResponse::HistogramItem& h) {
  io(h.name, h.sum, h.min, h.max, h.buckets);
}

template <class Io>
void Fields(Io& io, Advertisement& a) {
  io(a.vspace, a.name_text, a.announcer, a.endpoint, a.app_metric, a.lifetime_s, a.version);
}
template <class Io>
void Fields(Io& io, NameUpdate& u) { io(u.vspace, u.triggered, u.entries); }
template <class Io>
void Fields(Io& io, DiscoveryRequest& d) { io(d.request_id, d.vspace, d.filter_text, d.reply_to); }
template <class Io>
void Fields(Io& io, DiscoveryResponse& d) { io(d.request_id, d.vspace, d.items); }
template <class Io>
void Fields(Io& io, EarlyBindingResponse& e) { io(e.request_id, e.items); }
template <class Io>
void Fields(Io& io, Ping& p) { io(p.nonce, p.send_time_us); }
template <class Io>
void Fields(Io& io, Pong& p) { io(p.nonce, p.echo_send_time_us); }
template <class Io>
void Fields(Io& io, PeerRequest& p) { io(p.requester); }
template <class Io>
void Fields(Io& io, PeerAccept& p) { io(p.accepter); }
template <class Io>
void Fields(Io& io, PeerClose& p) { io(p.closer); }
template <class Io>
void Fields(Io& io, DsrRegister& d) { io(d.inr, d.active, d.vspaces, d.lifetime_s); }
template <class Io>
void Fields(Io& io, DsrListRequest& d) { io(d.request_id); }
template <class Io>
void Fields(Io& io, DsrListResponse& d) {
  io(d.request_id, d.active_inrs, d.join_orders);
  io.Expect(d.join_orders.size() == d.active_inrs.size(),
            "join_orders/active_inrs length mismatch");
}
template <class Io>
void Fields(Io& io, DsrVspaceRequest& d) { io(d.request_id, d.vspace); }
template <class Io>
void Fields(Io& io, DsrVspaceResponse& d) { io(d.request_id, d.vspace, d.inr); }
template <class Io>
void Fields(Io& io, DsrCandidatesRequest& d) { io(d.request_id); }
template <class Io>
void Fields(Io& io, DsrCandidatesResponse& d) { io(d.request_id, d.candidates); }
template <class Io>
void Fields(Io& io, SpawnRequest& s) { io(s.requester, s.vspaces); }
template <class Io>
void Fields(Io& io, DelegateVspace& d) { io(d.from, d.vspace); }
template <class Io>
void Fields(Io& io, DsrAssignmentsRequest& d) { io(d.request_id, d.inr); }
template <class Io>
void Fields(Io& io, DsrAssignmentsResponse& d) { io(d.request_id, d.vspaces); }
template <class Io>
void Fields(Io& io, PeerKeepalive& p) { io(p.from); }
// A retired type has no fields: it cannot be constructed, so it is never
// encoded, and DecodeMessage rejects its type before reading a body.
template <class Io, uint8_t N>
void Fields(Io&, Retired<N>&) {}
template <class Io>
void Fields(Io& io, JournalDigest& d) { io(d.from, d.items); }
template <class Io>
void Fields(Io& io, JournalDeltaRequest& d) { io(d.from, d.vspace, d.after_serial, d.full); }
template <class Io>
void Fields(Io& io, JournalDeltaResponse& d) {
  io(d.from, d.vspace, d.snapshot, d.to_serial, d.seq, d.last, d.entries);
}
template <class Io>
void Fields(Io& io, DsrReplicaSetRequest& d) { io(d.request_id, d.vspace); }
template <class Io>
void Fields(Io& io, DsrReplicaSetResponse& d) {
  io(d.request_id, d.vspace, d.replicas, d.candidates);
}
template <class Io>
void Fields(Io& io, ReplicaInvite& d) { io(d.from, d.vspace); }
template <class Io>
void Fields(Io& io, DsrDeadInrReport& d) { io(d.reporter, d.dead); }
template <class Io>
void Fields(Io& io, MetricsDeltaRequest& m) { io(m.request_id, m.reply_to, m.since_seq); }
template <class Io>
void Fields(Io& io, MetricsDeltaResponse& m) {
  io(m.request_id, m.inr, m.seq, m.since_seq, m.full, m.counters, m.gauges, m.histograms);
}

// --- Writer and Reader ---------------------------------------------------------

// The wire type of a list's count: a histogram's sparse log2 buckets number
// at most 65, so their count is one byte; every other list's is a u16.
template <class T>
using CountOf =
    std::conditional_t<std::is_same_v<T, std::pair<uint8_t, uint64_t>>, uint8_t, uint16_t>;

class Writer {
 public:
  template <class... Ts>
  void operator()(const Ts&... fields) { (Put(fields), ...); }
  void Expect(bool, const char*) {}

  ByteWriter out;

 private:
  void Put(uint8_t v) { out.WriteU8(v); }
  void Put(uint16_t v) { out.WriteU16(v); }
  void Put(uint32_t v) { out.WriteU32(v); }
  void Put(uint64_t v) { out.WriteU64(v); }
  void Put(bool v) { out.WriteU8(v ? 1 : 0); }
  void Put(int64_t v) { out.WriteU64(static_cast<uint64_t>(v)); }
  void Put(double v) { out.WriteU64(std::bit_cast<uint64_t>(v)); }
  void Put(const std::string& s) { out.WriteString(s); }
  void Put(const Packet& p) {
    const Bytes encoded = EncodePacket(p);
    out.WriteU32(static_cast<uint32_t>(encoded.size()));
    out.WriteBytes(encoded);
  }
  template <class A, class B>
  void Put(const std::pair<A, B>& p) { (*this)(p.first, p.second); }
  // A list longer than its count type can say is sent with a wrapped count;
  // the receiver then finds bytes left after the body and drops it.
  template <class T>
  void Put(const std::vector<T>& v) {
    Put(static_cast<CountOf<T>>(v.size()));
    for (const T& item : v) {
      Put(item);
    }
  }
  // Visiting a record only reads its fields.
  template <class T>
  void Put(const T& record) { Fields(*this, const_cast<T&>(record)); }
};

// The fewest bytes one T occupies on the wire: the encoding of a default T
// (fixed-width scalars, empty strings and lists). Never zero.
template <class T>
size_t MinWireSize() {
  static const size_t size = [] {
    Writer w;
    w(T{});
    return w.out.size();
  }();
  return size;
}

// Reads fields in declaration order and keeps the first error. Once a read
// fails, later values are meaningless: lists stop early, and the caller sees
// only that error.
class Reader {
 public:
  Reader(const uint8_t* data, size_t len) : in_(data, len) {}

  template <class... Ts>
  void operator()(Ts&... fields) { (Get(fields), ...); }
  void Expect(bool holds, const char* what) {
    if (!holds) {
      Fail(InvalidArgumentError(what));
    }
  }

  const Status& status() const { return status_; }
  size_t remaining() const { return in_.remaining(); }

 private:
  void Fail(const Status& s) {
    if (status_.ok()) {
      status_ = s;
    }
  }
  template <class T>
  void Take(T& field, Result<T> read) {
    if (read.ok()) {
      field = std::move(*read);
    } else {
      Fail(read.status());
    }
  }

  void Get(uint8_t& v) { Take(v, in_.ReadU8()); }
  void Get(uint16_t& v) { Take(v, in_.ReadU16()); }
  void Get(uint32_t& v) { Take(v, in_.ReadU32()); }
  void Get(uint64_t& v) { Take(v, in_.ReadU64()); }
  void Get(std::string& s) { Take(s, in_.ReadString()); }
  void Get(bool& v) {
    uint8_t byte = 0;
    Get(byte);
    v = byte != 0;
  }
  void Get(int64_t& v) {
    uint64_t bits = 0;
    Get(bits);
    v = static_cast<int64_t>(bits);
  }
  void Get(double& v) {
    uint64_t bits = 0;
    Get(bits);
    v = std::bit_cast<double>(bits);
  }
  void Get(Packet& p) {
    uint32_t len = 0;
    Get(len);
    Result<Bytes> raw = in_.ReadBytes(len);
    if (raw.ok()) {
      Take(p, DecodePacket(*raw));
    } else {
      Fail(raw.status());
    }
  }
  template <class A, class B>
  void Get(std::pair<A, B>& p) { (*this)(p.first, p.second); }
  template <class T>
  void Get(std::vector<T>& v) {
    CountOf<T> n = 0;
    Get(n);
    // The count comes off the wire: reserve no more items than the bytes
    // left could hold, so a forged count cannot drive a large allocation.
    v.reserve(std::min<size_t>(n, in_.remaining() / MinWireSize<T>()));
    for (size_t i = 0; i < n && status_.ok(); ++i) {
      Get(v.emplace_back());
    }
  }
  template <class T>
  void Get(T& record) { Fields(*this, record); }

  ByteReader in_;
  Status status_;
};

// --- Envelope dispatch ---------------------------------------------------------

using Decoder = void (*)(Reader&, MessageBody&);

template <class T>
void DecodeInto(Reader& in, MessageBody& body) { in(body.emplace<T>()); }

template <class T>
constexpr bool kIsRetired = false;
template <uint8_t N>
constexpr bool kIsRetired<Retired<N>> = true;

template <class T>
constexpr Decoder DecoderFor() {
  if constexpr (kIsRetired<T>) {
    return nullptr;
  } else {
    return &DecodeInto<T>;
  }
}

template <size_t... I>
constexpr auto MakeDecoders(std::index_sequence<I...>) {
  return std::array{DecoderFor<std::variant_alternative_t<I, MessageBody>>()...};
}

// kDecoders[N - 1] decodes a body of wire type N; null for a retired type.
constexpr auto kDecoders =
    MakeDecoders(std::make_index_sequence<std::variant_size_v<MessageBody>>());

template <MessageType kType, class T>
constexpr bool kIsAlternative =
    std::is_same_v<std::variant_alternative_t<static_cast<size_t>(kType) - 1, MessageBody>, T>;

}  // namespace

MessageType Envelope::type() const {
  // Wire type N is MessageBody alternative N - 1; type() and DecodeMessage's
  // table both rely on it.
  using enum MessageType;
  static_assert(
      kIsAlternative<kData, Packet> && kIsAlternative<kAdvertisement, Advertisement> &&
      kIsAlternative<kNameUpdate, NameUpdate> &&
      kIsAlternative<kDiscoveryRequest, DiscoveryRequest> &&
      kIsAlternative<kDiscoveryResponse, DiscoveryResponse> &&
      kIsAlternative<kEarlyBindingResponse, EarlyBindingResponse> &&
      kIsAlternative<kPing, Ping> && kIsAlternative<kPong, Pong> &&
      kIsAlternative<kPeerRequest, PeerRequest> && kIsAlternative<kPeerAccept, PeerAccept> &&
      kIsAlternative<kPeerClose, PeerClose> && kIsAlternative<kDsrRegister, DsrRegister> &&
      kIsAlternative<kDsrListRequest, DsrListRequest> &&
      kIsAlternative<kDsrListResponse, DsrListResponse> &&
      kIsAlternative<kDsrVspaceRequest, DsrVspaceRequest> &&
      kIsAlternative<kDsrVspaceResponse, DsrVspaceResponse> &&
      kIsAlternative<kDsrCandidatesRequest, DsrCandidatesRequest> &&
      kIsAlternative<kDsrCandidatesResponse, DsrCandidatesResponse> &&
      kIsAlternative<kSpawnRequest, SpawnRequest> &&
      kIsAlternative<kDelegateVspace, DelegateVspace> &&
      kIsAlternative<kDsrAssignmentsRequest, DsrAssignmentsRequest> &&
      kIsAlternative<kDsrAssignmentsResponse, DsrAssignmentsResponse> &&
      kIsAlternative<kPeerKeepalive, PeerKeepalive> &&
      kIsAlternative<MessageType{24}, Retired<24>> &&
      kIsAlternative<MessageType{25}, Retired<25>> &&
      kIsAlternative<kJournalDigest, JournalDigest> &&
      kIsAlternative<kJournalDeltaRequest, JournalDeltaRequest> &&
      kIsAlternative<kJournalDeltaResponse, JournalDeltaResponse> &&
      kIsAlternative<kDsrReplicaSetRequest, DsrReplicaSetRequest> &&
      kIsAlternative<kDsrReplicaSetResponse, DsrReplicaSetResponse> &&
      kIsAlternative<kReplicaInvite, ReplicaInvite> &&
      kIsAlternative<kDsrDeadInrReport, DsrDeadInrReport> &&
      kIsAlternative<kMetricsDeltaRequest, MetricsDeltaRequest> &&
      kIsAlternative<kMetricsDeltaResponse, MetricsDeltaResponse> &&
      std::variant_size_v<MessageBody> == static_cast<size_t>(kMetricsDeltaResponse));
  return static_cast<MessageType>(body.index() + 1);
}

uint32_t EnvelopeChecksum(const uint8_t* data, size_t len) {
  // 32-bit FNV-1a. Not cryptographic — it plays the role of the UDP/link
  // checksum the real deployment gets for free: a datagram that took bit
  // damage in flight is dropped at decode instead of poisoning soft state
  // (a flipped NameUpdate version or metric field would otherwise install a
  // route that honest refreshes cannot displace until lifetime expiry).
  uint32_t h = 2166136261u;
  for (size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 16777619u;
  }
  return h;
}

Bytes EncodeMessage(const Envelope& e) {
  Writer w;
  w(static_cast<uint8_t>(e.type()));
  std::visit(w, e.body);
  w(EnvelopeChecksum(w.out.bytes().data(), w.out.size()));
  return std::move(w.out).TakeBytes();
}

Result<Envelope> DecodeMessage(const Bytes& buffer) {
  if (buffer.size() < 5) {  // type byte + trailing checksum
    return InvalidArgumentError("envelope too short");
  }
  const size_t body_len = buffer.size() - 4;
  ByteReader trailer(buffer.data() + body_len, 4);
  uint32_t stored = 0;
  INS_ASSIGN_OR_RETURN(stored, trailer.ReadU32());
  if (EnvelopeChecksum(buffer.data(), body_len) != stored) {
    return InvalidArgumentError("envelope checksum mismatch");
  }
  const uint8_t type = buffer[0];
  if (type == 0 || type > kDecoders.size() || kDecoders[type - 1] == nullptr) {
    return InvalidArgumentError("unknown message type " + std::to_string(type));
  }
  Reader in(buffer.data() + 1, body_len - 1);
  Envelope e;
  kDecoders[type - 1](in, e.body);
  // A body uses its bytes exactly. Bytes left over mean the message is not
  // what its type says, e.g. a list whose count wrapped on send.
  in.Expect(in.remaining() == 0, "trailing bytes after message body");
  if (!in.status().ok()) {
    return in.status();
  }
  return e;
}

// --- Metrics conversions -------------------------------------------------------

MetricsDeltaResponse BuildMetricsFull(uint64_t request_id, const NodeAddress& inr,
                                      uint64_t seq, const MetricsSnapshot& now) {
  // Against an empty baseline every slot of `now` is new, so ships.
  MetricsDeltaResponse resp = BuildMetricsDelta(request_id, inr, seq, 0, MetricsSnapshot{}, now);
  resp.full = true;
  return resp;
}

MetricsDeltaResponse BuildMetricsDelta(uint64_t request_id, const NodeAddress& inr,
                                       uint64_t seq, uint64_t since_seq,
                                       const MetricsSnapshot& baseline,
                                       const MetricsSnapshot& now) {
  MetricsDeltaResponse resp;
  resp.request_id = request_id;
  resp.inr = inr;
  resp.seq = seq;
  resp.since_seq = since_seq;
  resp.full = false;
  for (const auto& [name, value] : now.counters) {
    auto it = baseline.counters.find(name);
    if (it == baseline.counters.end() || it->second != value) {
      resp.counters.push_back({name, value});
    }
  }
  for (const auto& [name, value] : now.gauges) {
    auto it = baseline.gauges.find(name);
    if (it == baseline.gauges.end() || it->second != value) {
      resp.gauges.push_back({name, value});
    }
  }
  // Histograms ship whole (cumulative) whenever any sample landed since the
  // baseline; the client swaps the histogram in rather than merging buckets.
  for (const auto& [name, h] : now.histograms) {
    auto it = baseline.histograms.find(name);
    if (it == baseline.histograms.end() || it->second.count() != h.count()) {
      resp.histograms.push_back({name, h.sum(), h.min(), h.max(), h.SparseBuckets()});
    }
  }
  return resp;
}

void ApplyMetricsDelta(const MetricsDeltaResponse& resp, MetricsSnapshot& view) {
  if (resp.full) {
    view = MetricsSnapshot{};
  }
  for (const MetricsDeltaResponse::CounterItem& c : resp.counters) {
    view.counters[c.name] = c.value;
  }
  for (const MetricsDeltaResponse::GaugeItem& g : resp.gauges) {
    view.gauges[g.name] = g.value;
  }
  for (const MetricsDeltaResponse::HistogramItem& h : resp.histograms) {
    view.histograms[h.name] = Histogram::FromParts(h.sum, h.min, h.max, h.buckets);
  }
}

}  // namespace ins
