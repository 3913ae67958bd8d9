// Round-trip tests for every control-plane message codec.

#include <gtest/gtest.h>

#include "alloc_window.h"
#include "ins/common/rng.h"
#include "ins/wire/messages.h"

namespace ins {
namespace {

template <typename T>
T RoundTrip(const T& body) {
  Bytes encoded = Encode(body);
  auto decoded = DecodeMessage(encoded);
  EXPECT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(std::holds_alternative<T>(decoded->body));
  return std::get<T>(decoded->body);
}

EndpointInfo SampleEndpoint() {
  EndpointInfo e;
  e.address = MakeAddress(3, 7001);
  e.bindings = {{8080, "http"}, {5004, "rtp"}};
  return e;
}

AnnouncerId SampleAnnouncer() { return AnnouncerId{0x0a000003, 123456789, 2}; }

// Appends the envelope checksum to a hand-built type byte and body.
Bytes Sealed(Bytes body) {
  const uint32_t sum = EnvelopeChecksum(body.data(), body.size());
  for (int shift = 24; shift >= 0; shift -= 8) {
    body.push_back(static_cast<uint8_t>(sum >> shift));
  }
  return body;
}

TEST(MessagesTest, Advertisement) {
  Advertisement a;
  a.vspace = "building-ne43";
  a.name_text = "[service=camera[id=a]][room=510]";
  a.announcer = SampleAnnouncer();
  a.endpoint = SampleEndpoint();
  a.app_metric = 2.5;
  a.lifetime_s = 45;
  a.version = 9;
  Advertisement b = RoundTrip(a);
  EXPECT_EQ(b.vspace, a.vspace);
  EXPECT_EQ(b.name_text, a.name_text);
  EXPECT_EQ(b.announcer, a.announcer);
  EXPECT_EQ(b.endpoint, a.endpoint);
  EXPECT_DOUBLE_EQ(b.app_metric, 2.5);
  EXPECT_EQ(b.lifetime_s, 45u);
  EXPECT_EQ(b.version, 9u);
}

TEST(MessagesTest, NameUpdateBatch) {
  NameUpdate u;
  u.vspace = "camera-ne43";
  u.triggered = true;
  for (int i = 0; i < 3; ++i) {
    NameUpdateEntry e;
    e.name_text = "[service=camera[id=c" + std::to_string(i) + "]]";
    e.announcer = AnnouncerId{0x0a000000u + static_cast<uint32_t>(i), 42, 0};
    e.endpoint = SampleEndpoint();
    e.app_metric = i * 1.5;
    e.route_metric = i * 0.25;
    e.lifetime_s = 45;
    e.version = static_cast<uint64_t>(i);
    u.entries.push_back(e);
  }
  NameUpdate v = RoundTrip(u);
  EXPECT_EQ(v.vspace, u.vspace);
  EXPECT_TRUE(v.triggered);
  ASSERT_EQ(v.entries.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(v.entries[i].name_text, u.entries[i].name_text);
    EXPECT_EQ(v.entries[i].announcer, u.entries[i].announcer);
    EXPECT_DOUBLE_EQ(v.entries[i].route_metric, u.entries[i].route_metric);
    EXPECT_EQ(v.entries[i].version, u.entries[i].version);
  }
}

TEST(MessagesTest, EmptyNameUpdateIsValid) {
  NameUpdate u;
  NameUpdate v = RoundTrip(u);
  EXPECT_TRUE(v.entries.empty());
  EXPECT_FALSE(v.triggered);
}

TEST(MessagesTest, Discovery) {
  DiscoveryRequest req;
  req.request_id = 77;
  req.vspace = "wl";
  req.filter_text = "[service=*]";
  DiscoveryRequest req2 = RoundTrip(req);
  EXPECT_EQ(req2.request_id, 77u);
  EXPECT_EQ(req2.filter_text, "[service=*]");

  DiscoveryResponse resp;
  resp.request_id = 77;
  resp.vspace = "wl";
  resp.items.push_back({"[service=camera]", SampleEndpoint(), 1.0});
  resp.items.push_back({"[service=printer]", SampleEndpoint(), 4.0});
  DiscoveryResponse resp2 = RoundTrip(resp);
  ASSERT_EQ(resp2.items.size(), 2u);
  EXPECT_EQ(resp2.items[1].name_text, "[service=printer]");
  EXPECT_DOUBLE_EQ(resp2.items[1].app_metric, 4.0);
}

TEST(MessagesTest, EarlyBindingResponse) {
  EarlyBindingResponse e;
  e.request_id = 5;
  e.items.push_back({SampleEndpoint(), 0.5});
  EarlyBindingResponse f = RoundTrip(e);
  ASSERT_EQ(f.items.size(), 1u);
  EXPECT_EQ(f.items[0].endpoint, SampleEndpoint());
}

TEST(MessagesTest, PingPong) {
  Ping p{42, 9999};
  Ping p2 = RoundTrip(p);
  EXPECT_EQ(p2.nonce, 42u);
  EXPECT_EQ(p2.send_time_us, 9999u);
  Pong q{42, 9999};
  Pong q2 = RoundTrip(q);
  EXPECT_EQ(q2.nonce, 42u);
  EXPECT_EQ(q2.echo_send_time_us, 9999u);
}

TEST(MessagesTest, Peering) {
  EXPECT_EQ(RoundTrip(PeerRequest{MakeAddress(9)}).requester, MakeAddress(9));
  EXPECT_EQ(RoundTrip(PeerAccept{MakeAddress(8)}).accepter, MakeAddress(8));
  EXPECT_EQ(RoundTrip(PeerClose{MakeAddress(7)}).closer, MakeAddress(7));
}

TEST(MessagesTest, DsrMessages) {
  DsrRegister reg;
  reg.inr = MakeAddress(4);
  reg.active = true;
  reg.vspaces = {"a", "b"};
  reg.lifetime_s = 60;
  DsrRegister reg2 = RoundTrip(reg);
  EXPECT_EQ(reg2.inr, MakeAddress(4));
  EXPECT_EQ(reg2.vspaces, (std::vector<std::string>{"a", "b"}));

  DsrListResponse list;
  list.request_id = 3;
  list.active_inrs = {MakeAddress(1), MakeAddress(2)};
  list.join_orders = {7, 12};
  DsrListResponse list2 = RoundTrip(list);
  EXPECT_EQ(list2.active_inrs, list.active_inrs);
  EXPECT_EQ(list2.join_orders, list.join_orders);

  // A response whose join_orders does not pair up with active_inrs is
  // rejected at decode time.
  DsrListResponse bad;
  bad.request_id = 5;
  bad.active_inrs = {MakeAddress(1), MakeAddress(2)};
  bad.join_orders = {7};
  EXPECT_FALSE(DecodeMessage(Encode(bad)).ok());

  DsrVspaceResponse vr;
  vr.request_id = 4;
  vr.vspace = "cam";
  vr.inr = MakeAddress(5);
  DsrVspaceResponse vr2 = RoundTrip(vr);
  EXPECT_EQ(vr2.inr, MakeAddress(5));

  DsrCandidatesResponse cr;
  cr.request_id = 6;
  cr.candidates = {MakeAddress(10), MakeAddress(11)};
  EXPECT_EQ(RoundTrip(cr).candidates, cr.candidates);

  EXPECT_EQ(RoundTrip(DsrListRequest{12}).request_id, 12u);
  EXPECT_EQ(RoundTrip(DsrVspaceRequest{13, "x"}).vspace, "x");
  EXPECT_EQ(RoundTrip(DsrCandidatesRequest{14}).request_id, 14u);

  DsrAssignmentsRequest ar;
  ar.request_id = 15;
  ar.inr = MakeAddress(6);
  DsrAssignmentsRequest ar2 = RoundTrip(ar);
  EXPECT_EQ(ar2.request_id, 15u);
  EXPECT_EQ(ar2.inr, MakeAddress(6));

  DsrAssignmentsResponse asr;
  asr.request_id = 15;
  asr.vspaces = {"cam", "building"};
  EXPECT_EQ(RoundTrip(asr).vspaces, asr.vspaces);

  EXPECT_EQ(RoundTrip(PeerKeepalive{MakeAddress(7)}).from, MakeAddress(7));
}

TEST(MessagesTest, LoadBalancingMessages) {
  SpawnRequest s;
  s.requester = MakeAddress(2);
  s.vspaces = {"cams"};
  SpawnRequest s2 = RoundTrip(s);
  EXPECT_EQ(s2.vspaces, s.vspaces);

  DelegateVspace d{MakeAddress(2), "cams"};
  DelegateVspace d2 = RoundTrip(d);
  EXPECT_EQ(d2.vspace, "cams");
  EXPECT_EQ(d2.from, MakeAddress(2));
}

TEST(MessagesTest, ReplicationMessages) {
  JournalDigest d;
  d.from = MakeAddress(1, 5001);
  d.items = {{"", 42}, {"camera-ne43", 7}};
  JournalDigest d2 = RoundTrip(d);
  EXPECT_EQ(d2.from, d.from);
  ASSERT_EQ(d2.items.size(), 2u);
  EXPECT_EQ(d2.items[0].vspace, "");
  EXPECT_EQ(d2.items[0].serial, 42u);
  EXPECT_EQ(d2.items[1].vspace, "camera-ne43");
  EXPECT_EQ(d2.items[1].serial, 7u);

  JournalDeltaRequest req;
  req.from = MakeAddress(2, 5002);
  req.vspace = "camera-ne43";
  req.after_serial = 7;
  req.full = true;
  JournalDeltaRequest req2 = RoundTrip(req);
  EXPECT_EQ(req2.from, req.from);
  EXPECT_EQ(req2.vspace, req.vspace);
  EXPECT_EQ(req2.after_serial, 7u);
  EXPECT_TRUE(req2.full);

  JournalDeltaResponse resp;
  resp.from = MakeAddress(1, 5001);
  resp.vspace = "camera-ne43";
  resp.snapshot = true;
  resp.to_serial = 42;
  resp.seq = 3;
  resp.last = false;
  JournalDeltaResponse::Entry upsert;
  upsert.op = 0;
  upsert.name_text = "[service=camera[id=c1]]";
  upsert.announcer = SampleAnnouncer();
  upsert.endpoint = SampleEndpoint();
  upsert.app_metric = 1.5;
  upsert.route_metric = 3.25;
  upsert.lifetime_s = 45;
  upsert.version = 9;
  resp.entries.push_back(upsert);
  JournalDeltaResponse::Entry tombstone;
  tombstone.op = 2;
  tombstone.announcer = AnnouncerId{0x0a000009, 11, 1};
  resp.entries.push_back(tombstone);
  JournalDeltaResponse resp2 = RoundTrip(resp);
  EXPECT_EQ(resp2.from, resp.from);
  EXPECT_EQ(resp2.vspace, resp.vspace);
  EXPECT_TRUE(resp2.snapshot);
  EXPECT_EQ(resp2.to_serial, 42u);
  EXPECT_EQ(resp2.seq, 3u);
  EXPECT_FALSE(resp2.last);
  ASSERT_EQ(resp2.entries.size(), 2u);
  EXPECT_EQ(resp2.entries[0].op, 0);
  EXPECT_EQ(resp2.entries[0].name_text, upsert.name_text);
  EXPECT_EQ(resp2.entries[0].announcer, upsert.announcer);
  EXPECT_EQ(resp2.entries[0].endpoint, upsert.endpoint);
  EXPECT_DOUBLE_EQ(resp2.entries[0].app_metric, 1.5);
  EXPECT_DOUBLE_EQ(resp2.entries[0].route_metric, 3.25);
  EXPECT_EQ(resp2.entries[0].lifetime_s, 45u);
  EXPECT_EQ(resp2.entries[0].version, 9u);
  EXPECT_EQ(resp2.entries[1].op, 2);
  EXPECT_EQ(resp2.entries[1].announcer, tombstone.announcer);
  EXPECT_EQ(resp2.entries[1].name_text, "");
  EXPECT_EQ(Encode(d)[0], static_cast<uint8_t>(MessageType::kJournalDigest));
  EXPECT_EQ(Encode(req)[0], static_cast<uint8_t>(MessageType::kJournalDeltaRequest));
  EXPECT_EQ(Encode(resp)[0], static_cast<uint8_t>(MessageType::kJournalDeltaResponse));
}

TEST(MessagesTest, ReplicaSetMessages) {
  DsrReplicaSetRequest req;
  req.request_id = (1ull << 63) | 17;  // the LB's tagged-id form survives
  req.vspace = "camera-ne43";
  DsrReplicaSetRequest req2 = RoundTrip(req);
  EXPECT_EQ(req2.request_id, req.request_id);
  EXPECT_EQ(req2.vspace, "camera-ne43");

  DsrReplicaSetResponse resp;
  resp.request_id = 17;
  resp.vspace = "camera-ne43";
  resp.replicas = {MakeAddress(1), MakeAddress(2)};
  resp.candidates = {MakeAddress(3)};
  DsrReplicaSetResponse resp2 = RoundTrip(resp);
  EXPECT_EQ(resp2.request_id, 17u);
  EXPECT_EQ(resp2.vspace, "camera-ne43");
  EXPECT_EQ(resp2.replicas, resp.replicas);
  EXPECT_EQ(resp2.candidates, resp.candidates);

  ReplicaInvite inv{MakeAddress(1), "camera-ne43"};
  ReplicaInvite inv2 = RoundTrip(inv);
  EXPECT_EQ(inv2.from, MakeAddress(1));
  EXPECT_EQ(inv2.vspace, "camera-ne43");

  DsrDeadInrReport report{MakeAddress(2), MakeAddress(1)};
  DsrDeadInrReport report2 = RoundTrip(report);
  EXPECT_EQ(report2.reporter, MakeAddress(2));
  EXPECT_EQ(report2.dead, MakeAddress(1));

  EXPECT_EQ(Encode(req)[0], static_cast<uint8_t>(MessageType::kDsrReplicaSetRequest));
  EXPECT_EQ(Encode(resp)[0], static_cast<uint8_t>(MessageType::kDsrReplicaSetResponse));
  EXPECT_EQ(Encode(inv)[0], static_cast<uint8_t>(MessageType::kReplicaInvite));
  EXPECT_EQ(Encode(report)[0], static_cast<uint8_t>(MessageType::kDsrDeadInrReport));
}

TEST(MessagesTest, DataEnvelopeCarriesPacket) {
  Packet p;
  p.destination_name = "[service=printer]";
  p.payload = {9, 9, 9};
  Packet p2 = RoundTrip(p);
  EXPECT_EQ(p2.destination_name, p.destination_name);
  EXPECT_EQ(p2.payload, p.payload);
}

TEST(MessagesTest, RejectsGarbage) {
  EXPECT_FALSE(DecodeMessage({}).ok());
  EXPECT_FALSE(DecodeMessage({0xff, 1, 2}).ok());
  Bytes truncated = Encode(DsrListRequest{1});
  truncated.resize(truncated.size() - 1);
  EXPECT_FALSE(DecodeMessage(truncated).ok());
  // Type bytes just outside 1..34, under a valid checksum, so the type check
  // itself (not the checksum) is what rejects them.
  for (uint8_t type : {0, 35, 255}) {
    Bytes forged = Sealed({type, 1, 2});
    auto result = DecodeMessage(forged);
    ASSERT_FALSE(result.ok()) << "type " << int{type};
    EXPECT_EQ(result.status().message(), "unknown message type " + std::to_string(type));
  }
}

// Types 24 and 25 carried the retired full-snapshot metrics poll. Whatever
// body follows, under a valid checksum, they are rejected exactly like a type
// that never existed.
TEST(MessagesTest, RetiredTypesAreRejectedLikeUnknownTypes) {
  const Status unknown = DecodeMessage(Sealed({35, 1, 2})).status();
  Rng rng(24);
  for (uint8_t type : {24, 25}) {
    std::vector<Bytes> bodies = {{}, {1, 2}};
    // The retired type-24 request layout: u64 request id, then a reply address.
    bodies.push_back({0, 0, 0, 0, 0, 0, 0, 15, 10, 0, 0, 9, 0x16, 0x2e});
    for (int i = 0; i < 50; ++i) {
      Bytes random(rng.NextBelow(200));
      for (uint8_t& b : random) {
        b = static_cast<uint8_t>(rng.NextU64());
      }
      bodies.push_back(std::move(random));
    }
    for (const Bytes& body : bodies) {
      Bytes forged = {type};
      forged.insert(forged.end(), body.begin(), body.end());
      auto result = DecodeMessage(Sealed(std::move(forged)));
      ASSERT_FALSE(result.ok()) << "type " << int{type} << ", " << body.size() << "-byte body";
      EXPECT_EQ(result.status().code(), unknown.code());
      EXPECT_EQ(result.status().message(), "unknown message type " + std::to_string(type));
    }
  }
}

TEST(MessagesTest, RejectsTrailingBytes) {
  Bytes body = Encode(DsrListRequest{1});
  body.resize(body.size() - 4);  // drop the checksum
  body.push_back(0);
  EXPECT_FALSE(DecodeMessage(Sealed(body)).ok());
}

// A list longer than a u16 count can say is sent with a wrapped count. The
// receiver must drop it, not deliver the first (count mod 65536) items.
TEST(MessagesTest, OverlongListIsRejectedNotTruncated) {
  EarlyBindingResponse eb;
  eb.request_id = 1;
  eb.items.assign(65536, {EndpointInfo{MakeAddress(4), {}}, 0.5});
  EXPECT_FALSE(DecodeMessage(Encode(eb)).ok()) << "count wrapped to 0";

  DiscoveryResponse discovery;
  discovery.request_id = 2;
  discovery.items.assign(70000, {"[a=b]", EndpointInfo{MakeAddress(4), {}}, 1.0});
  EXPECT_FALSE(DecodeMessage(Encode(discovery)).ok()) << "count wrapped to 4464";
}

// A count read off the wire must not size an allocation before the bytes
// behind it are checked: 29 bytes claiming 65,535 journal entries.
TEST(MessagesTest, ForgedListCountDoesNotDriveAllocation) {
  Bytes forged = Encode(JournalDeltaResponse{});
  ASSERT_EQ(forged.size(), 29u);
  forged.resize(forged.size() - 4);  // drop the checksum
  forged[23] = 0xff;                 // the entry count: last u16 of the body
  forged[24] = 0xff;
  forged = Sealed(forged);
  uint64_t allocated = 0;
  {
    AllocWindow window;
    EXPECT_FALSE(DecodeMessage(forged).ok());
    allocated = window.bytes();
  }
  EXPECT_LT(allocated, 64u * 1024) << "bytes allocated while decoding";
}

TEST(MessagesTest, TypeTagsAreStable) {
  EXPECT_EQ(Encode(Ping{})[0], static_cast<uint8_t>(MessageType::kPing));
  EXPECT_EQ(Encode(DsrListRequest{})[0], static_cast<uint8_t>(MessageType::kDsrListRequest));
  Packet p;
  EXPECT_EQ(Encode(p)[0], static_cast<uint8_t>(MessageType::kData));
  EXPECT_EQ(Encode(MetricsDeltaRequest{})[0],
            static_cast<uint8_t>(MessageType::kMetricsDeltaRequest));
  EXPECT_EQ(Encode(MetricsDeltaResponse{})[0],
            static_cast<uint8_t>(MessageType::kMetricsDeltaResponse));
}

TEST(MessagesTest, EnvelopeChecksumRejectsBitDamage) {
  Bytes valid = Encode(DsrListRequest{42});
  ASSERT_TRUE(DecodeMessage(valid).ok());
  // Any single-bit flip — in the body or in the trailer itself — is caught.
  for (size_t byte = 0; byte < valid.size(); ++byte) {
    Bytes damaged = valid;
    damaged[byte] ^= 0x10;
    EXPECT_FALSE(DecodeMessage(damaged).ok()) << "flip at byte " << byte;
  }
}

TEST(MessagesTest, MetricsDeltaRoundTrip) {
  MetricsDeltaRequest req;
  req.request_id = 88;
  req.reply_to = MakeAddress(9, 7100);
  req.since_seq = 41;
  MetricsDeltaRequest req2 = RoundTrip(req);
  EXPECT_EQ(req2.request_id, 88u);
  EXPECT_EQ(req2.reply_to, MakeAddress(9, 7100));
  EXPECT_EQ(req2.since_seq, 41u);

  MetricsDeltaResponse resp;
  resp.request_id = 88;
  resp.inr = MakeAddress(1, 5678);
  resp.seq = 42;
  resp.since_seq = 41;
  resp.full = false;
  resp.counters = {{"forwarding.delivered", 10}, {"lookup.requests", 99}};
  resp.gauges = {{"admission.queue_depth", -1}};
  MetricsDeltaResponse::HistogramItem h;
  h.name = "latency.stage.lookup";
  h.sum = 500;
  h.min = 2;
  h.max = 300;
  h.buckets = {{2, 1}, {9, 3}};
  resp.histograms.push_back(h);
  MetricsDeltaResponse resp2 = RoundTrip(resp);
  EXPECT_EQ(resp2.seq, 42u);
  EXPECT_EQ(resp2.since_seq, 41u);
  EXPECT_FALSE(resp2.full);
  ASSERT_EQ(resp2.counters.size(), 2u);
  EXPECT_EQ(resp2.counters[1].name, "lookup.requests");
  EXPECT_EQ(resp2.counters[1].value, 99u);
  ASSERT_EQ(resp2.gauges.size(), 1u);
  EXPECT_EQ(resp2.gauges[0].value, -1);
  ASSERT_EQ(resp2.histograms.size(), 1u);
  EXPECT_EQ(resp2.histograms[0].buckets.size(), 2u);

  resp.full = true;
  EXPECT_TRUE(RoundTrip(resp).full);
}

TEST(MessagesTest, BuildMetricsDeltaShipsOnlyChangedSlots) {
  MetricsSnapshot baseline;
  baseline.counters["a"] = 1;
  baseline.counters["b"] = 2;
  baseline.gauges["g"] = 5;
  Histogram h;
  h.Record(10);
  baseline.histograms["h"] = h;
  Histogram quiet;
  quiet.Record(3);
  baseline.histograms["quiet"] = quiet;

  MetricsSnapshot now = baseline;
  now.counters["b"] = 7;         // changed
  now.counters["c"] = 1;         // new
  now.histograms["h"].Record(20);  // sampled since baseline

  MetricsDeltaResponse d =
      BuildMetricsDelta(1, MakeAddress(1, 5678), 42, 41, baseline, now);
  EXPECT_FALSE(d.full);
  ASSERT_EQ(d.counters.size(), 2u);  // b and c, not a
  EXPECT_EQ(d.gauges.size(), 0u);    // unchanged gauge is not shipped
  ASSERT_EQ(d.histograms.size(), 1u);
  EXPECT_EQ(d.histograms[0].name, "h");  // quiet histogram is not shipped

  // Applying the delta onto the baseline view reproduces `now` exactly.
  MetricsSnapshot view = baseline;
  ApplyMetricsDelta(d, view);
  EXPECT_EQ(view.counters, now.counters);
  EXPECT_EQ(view.gauges, now.gauges);
  EXPECT_EQ(view.histograms.at("h").count(), 2u);
}

TEST(MessagesTest, FullMetricsResponseReplacesTheView) {
  MetricsSnapshot now;
  now.counters["x"] = 3;
  MetricsDeltaResponse full = BuildMetricsFull(2, MakeAddress(1, 5678), 7, now);
  EXPECT_TRUE(full.full);
  EXPECT_EQ(full.seq, 7u);

  MetricsSnapshot view;
  view.counters["stale"] = 99;  // must not survive a full replacement
  ApplyMetricsDelta(full, view);
  EXPECT_EQ(view.counters.count("stale"), 0u);
  EXPECT_EQ(view.counters.at("x"), 3u);
}

}  // namespace
}  // namespace ins
