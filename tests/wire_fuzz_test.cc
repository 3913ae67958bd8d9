// Robustness property tests on the wire codecs and the parser: random and
// mutated inputs must never crash, and valid inputs must round-trip. The
// resolvers sit on an open UDP port (§2: any device can talk to an INR), so
// decoder hardening is a correctness requirement, not a nicety.

#include <gtest/gtest.h>

#include "ins/name/parser.h"
#include "ins/wire/messages.h"
#include "ins/workload/namegen.h"

namespace ins {
namespace {

class WireFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WireFuzzTest, RandomBytesNeverCrashDecoder) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    Bytes garbage(rng.NextBelow(300));
    for (uint8_t& b : garbage) {
      b = static_cast<uint8_t>(rng.NextU64());
    }
    auto result = DecodeMessage(garbage);  // must return, never crash
    (void)result;
  }
}

TEST_P(WireFuzzTest, TruncationsOfValidMessagesNeverCrash) {
  Rng rng(GetParam());
  NameUpdate update;
  update.vspace = "building";
  for (int i = 0; i < 4; ++i) {
    NameUpdateEntry e;
    e.name_text = GenerateSizedName(rng, 82).ToString();
    e.announcer = AnnouncerId{1, 2, static_cast<uint32_t>(i)};
    e.endpoint.address = MakeAddress(3);
    e.endpoint.bindings = {{80, "http"}, {554, "rtsp"}};
    e.lifetime_s = 45;
    update.entries.push_back(std::move(e));
  }
  Bytes valid = Encode(update);
  for (size_t len = 0; len < valid.size(); ++len) {
    Bytes truncated(valid.begin(), valid.begin() + static_cast<long>(len));
    auto result = DecodeMessage(truncated);
    EXPECT_FALSE(result.ok()) << "truncation to " << len << " decoded";
  }
}

TEST_P(WireFuzzTest, SingleByteMutationsNeverCrash) {
  Rng rng(GetParam());
  Advertisement ad;
  ad.vspace = "v";
  ad.name_text = GenerateSizedName(rng, 82).ToString();
  ad.announcer = AnnouncerId{7, 8, 9};
  ad.endpoint.address = MakeAddress(3);
  ad.endpoint.bindings = {{80, "http"}};
  ad.lifetime_s = 45;
  Bytes valid = Encode(ad);
  for (int i = 0; i < 1000; ++i) {
    Bytes mutated = valid;
    size_t pos = rng.NextBelow(mutated.size());
    mutated[pos] ^= static_cast<uint8_t>(1 + rng.NextBelow(255));
    auto result = DecodeMessage(mutated);
    (void)result;  // ok() either way; just must not crash or over-read
  }
}

TEST_P(WireFuzzTest, RandomPacketsRoundTrip) {
  Rng rng(GetParam());
  for (int i = 0; i < 300; ++i) {
    Packet p;
    p.early_binding = rng.NextBool(0.3);
    p.deliver_all = rng.NextBool(0.3);
    p.answer_from_cache = rng.NextBool(0.2);
    p.hop_limit = static_cast<uint16_t>(rng.NextBelow(32));
    p.cache_lifetime_s = static_cast<uint32_t>(rng.NextBelow(1000));
    p.source_name = GenerateSizedName(rng, 40 + rng.NextBelow(80)).ToString();
    p.destination_name = GenerateSizedName(rng, 40 + rng.NextBelow(80)).ToString();
    p.payload = Bytes(rng.NextBelow(600), static_cast<uint8_t>(rng.NextU64()));
    if (rng.NextBool(0.3)) {
      p.trace_id = rng.NextU64();  // sampled: header grows by the extension
    }
    auto decoded = DecodePacket(EncodePacket(p));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->source_name, p.source_name);
    EXPECT_EQ(decoded->destination_name, p.destination_name);
    EXPECT_EQ(decoded->payload, p.payload);
    EXPECT_EQ(decoded->hop_limit, p.hop_limit);
    EXPECT_EQ(decoded->trace_id, p.trace_id);
  }
}

TEST_P(WireFuzzTest, ParserNeverCrashesOnRandomText) {
  Rng rng(GetParam());
  const char alphabet[] = "[]=<>* \tabz019.-";
  for (int i = 0; i < 3000; ++i) {
    std::string text;
    size_t len = rng.NextBelow(120);
    for (size_t j = 0; j < len; ++j) {
      text.push_back(alphabet[rng.NextBelow(sizeof(alphabet) - 1)]);
    }
    auto result = ParseNameSpecifier(text);  // must return, never crash
    if (result.ok()) {
      // Anything accepted must survive a canonicalization round trip.
      auto again = ParseNameSpecifier(result->ToString());
      ASSERT_TRUE(again.ok()) << "'" << text << "' -> '" << result->ToString() << "'";
      EXPECT_EQ(*again, *result);
    }
  }
}

TEST_P(WireFuzzTest, GeneratedNamesAlwaysRoundTripThroughWireText) {
  Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    UniformNameParams shape{1 + rng.NextBelow(4), 1 + rng.NextBelow(4), 0, 1 + rng.NextBelow(4)};
    shape.na = 1 + rng.NextBelow(shape.ra);
    NameSpecifier n = GenerateUniformName(rng, shape);
    auto parsed = ParseNameSpecifier(n.ToString());
    ASSERT_TRUE(parsed.ok()) << n.ToString();
    EXPECT_EQ(*parsed, n);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzTest, ::testing::Values(1, 2, 3, 4, 5));

// --- Exhaustive corruption sweep ---------------------------------------------
//
// One valid instance of every control message type; every single-bit flip of
// every byte, and every truncation, must decode without crashing or
// over-reading (run under ASan/UBSan in CI). This is what the in-flight
// corruption the fault injector produces looks like on arrival.

std::vector<Bytes> EncodedSpecimens() {
  Rng rng(99);
  std::vector<Bytes> specimens;

  Packet p;
  p.hop_limit = 8;
  p.source_name = "[service=fuzz]";
  p.destination_name = GenerateSizedName(rng, 82).ToString();
  p.payload = {1, 2, 3};
  specimens.push_back(Encode(p));

  Advertisement ad;
  ad.vspace = "v";
  ad.name_text = GenerateSizedName(rng, 82).ToString();
  ad.announcer = AnnouncerId{7, 8, 9};
  ad.endpoint.address = MakeAddress(3);
  ad.endpoint.bindings = {{80, "http"}};
  ad.lifetime_s = 45;
  specimens.push_back(Encode(ad));

  NameUpdate update;
  update.vspace = "building";
  for (int i = 0; i < 2; ++i) {
    NameUpdateEntry e;
    e.name_text = GenerateSizedName(rng, 82).ToString();
    e.announcer = AnnouncerId{1, 2, static_cast<uint32_t>(i)};
    e.endpoint.address = MakeAddress(3);
    e.endpoint.bindings = {{554, "rtsp"}};
    e.lifetime_s = 45;
    update.entries.push_back(std::move(e));
  }
  specimens.push_back(Encode(update));

  DiscoveryRequest dreq;
  dreq.request_id = 5;
  dreq.vspace = "cam";
  dreq.filter_text = "[service=camera]";
  dreq.reply_to = MakeAddress(9);
  specimens.push_back(Encode(dreq));

  DiscoveryResponse dresp;
  dresp.request_id = 5;
  dresp.vspace = "cam";
  dresp.items.push_back({"[service=camera[id=c1]]",
                         EndpointInfo{MakeAddress(4), {{554, "rtsp"}}}, 1.5});
  specimens.push_back(Encode(dresp));

  EarlyBindingResponse eb;
  eb.request_id = 6;
  eb.items.push_back({EndpointInfo{MakeAddress(4), {{80, "http"}}}, 0.5});
  specimens.push_back(Encode(eb));

  specimens.push_back(Encode(Ping{42, 123456}));
  specimens.push_back(Encode(Pong{42, 123456}));
  specimens.push_back(Encode(PeerRequest{MakeAddress(1)}));
  specimens.push_back(Encode(PeerAccept{MakeAddress(2)}));
  specimens.push_back(Encode(PeerClose{MakeAddress(3)}));

  DsrRegister reg;
  reg.inr = MakeAddress(4);
  reg.active = true;
  reg.vspaces = {"a", "b"};
  reg.lifetime_s = 60;
  specimens.push_back(Encode(reg));

  specimens.push_back(Encode(DsrListRequest{11}));

  DsrListResponse list;
  list.request_id = 11;
  list.active_inrs = {MakeAddress(1), MakeAddress(2)};
  list.join_orders = {1, 2};
  specimens.push_back(Encode(list));

  specimens.push_back(Encode(DsrVspaceRequest{12, "cam"}));
  specimens.push_back(Encode(DsrVspaceResponse{12, "cam", MakeAddress(2)}));
  specimens.push_back(Encode(DsrCandidatesRequest{13}));
  specimens.push_back(Encode(DsrCandidatesResponse{13, {MakeAddress(7)}}));
  specimens.push_back(Encode(SpawnRequest{MakeAddress(1), {"cam"}}));
  specimens.push_back(Encode(DelegateVspace{MakeAddress(1), "cam"}));
  specimens.push_back(Encode(DsrAssignmentsRequest{14, MakeAddress(2)}));
  specimens.push_back(Encode(DsrAssignmentsResponse{14, {"cam", "building"}}));
  specimens.push_back(Encode(PeerKeepalive{MakeAddress(3)}));

  JournalDigest jd;
  jd.from = MakeAddress(1);
  jd.items = {{"", 42}, {"cam", 7}};
  specimens.push_back(Encode(jd));

  JournalDeltaRequest jreq;
  jreq.from = MakeAddress(2);
  jreq.vspace = "cam";
  jreq.after_serial = 7;
  specimens.push_back(Encode(jreq));

  JournalDeltaResponse jresp;
  jresp.from = MakeAddress(1);
  jresp.vspace = "cam";
  jresp.to_serial = 42;
  jresp.seq = 0;
  jresp.last = true;
  JournalDeltaResponse::Entry upsert;
  upsert.op = 0;
  upsert.name_text = GenerateSizedName(rng, 82).ToString();
  upsert.announcer = AnnouncerId{1, 2, 3};
  upsert.endpoint = EndpointInfo{MakeAddress(4), {{554, "rtsp"}}};
  upsert.app_metric = 1.5;
  upsert.route_metric = 3.25;
  upsert.lifetime_s = 45;
  upsert.version = 9;
  jresp.entries.push_back(std::move(upsert));
  JournalDeltaResponse::Entry tombstone;
  tombstone.op = 1;
  tombstone.announcer = AnnouncerId{1, 2, 4};
  jresp.entries.push_back(std::move(tombstone));
  specimens.push_back(Encode(jresp));

  specimens.push_back(Encode(DsrReplicaSetRequest{(1ull << 63) | 16, "cam"}));
  DsrReplicaSetResponse rset;
  rset.request_id = 16;
  rset.vspace = "cam";
  rset.replicas = {MakeAddress(1), MakeAddress(2)};
  rset.candidates = {MakeAddress(3)};
  specimens.push_back(Encode(rset));
  specimens.push_back(Encode(ReplicaInvite{MakeAddress(1), "cam"}));
  specimens.push_back(Encode(DsrDeadInrReport{MakeAddress(2), MakeAddress(1)}));

  MetricsDeltaRequest mdreq;
  mdreq.request_id = (1ull << 62) | 5;
  mdreq.reply_to = MakeAddress(9);
  mdreq.since_seq = 17;
  specimens.push_back(Encode(mdreq));

  MetricsDeltaResponse mdresp;
  mdresp.request_id = 5;
  mdresp.inr = MakeAddress(1);
  mdresp.seq = 18;
  mdresp.since_seq = 17;
  mdresp.full = false;
  mdresp.counters = {{"forwarding.delivered", 41}, {"lookup.requests", 1002}};
  mdresp.gauges = {{"topology.neighbors", 3}};
  MetricsDeltaResponse::HistogramItem dh;
  dh.name = "latency.stage.lookup";
  dh.sum = 1234;
  dh.min = 80;
  dh.max = 700;
  dh.buckets = {{6, 3}, {8, 2}};
  mdresp.histograms.push_back(std::move(dh));
  specimens.push_back(Encode(mdresp));

  // One specimen beyond the one-per-type set: a SAMPLED packet, whose
  // header carries the trace extension — the sweep must cover both layouts.
  Packet traced = p;
  traced.trace_id = 0xDEADBEEFCAFEF00Dull;
  specimens.push_back(Encode(traced));
  return specimens;
}

TEST(WireCorruptionSweepTest, EveryBitFlipOfEveryMessageTypeIsSafe) {
  std::vector<Bytes> specimens = EncodedSpecimens();
  // One specimen per message type (retired types 24 and 25 have none) plus
  // the traced-packet variant.
  ASSERT_EQ(specimens.size(), std::variant_size_v<MessageBody> - 2 + 1);
  for (const Bytes& valid : specimens) {
    ASSERT_TRUE(DecodeMessage(valid).ok());
    for (size_t byte = 0; byte < valid.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        Bytes mutated = valid;
        mutated[byte] ^= static_cast<uint8_t>(1u << bit);
        auto result = DecodeMessage(mutated);
        (void)result;  // either verdict is fine; must not crash or over-read
      }
    }
  }
}

TEST(WireCorruptionSweepTest, EveryTruncationOfEveryMessageTypeIsRejected) {
  for (const Bytes& valid : EncodedSpecimens()) {
    for (size_t len = 0; len < valid.size(); ++len) {
      Bytes truncated(valid.begin(), valid.begin() + static_cast<long>(len));
      auto result = DecodeMessage(truncated);
      EXPECT_FALSE(result.ok()) << "truncation to " << len << " decoded";
    }
  }
}

// --- Golden wire bytes --------------------------------------------------------
//
// The exact encoding of every specimen above, plus a few that set the flags
// the sweep's specimens leave at their defaults, pinned as (length, 64-bit
// FNV-1a digest). The values were captured from the hand-written per-type
// codecs that first defined these formats. Any codec change that alters one
// byte of one message type fails here; never re-capture them to make a
// change pass.

std::vector<Bytes> GoldenOnlySpecimens() {
  Rng rng(7);
  std::vector<Bytes> specimens;

  Packet p;
  p.early_binding = true;
  p.deliver_all = true;
  p.answer_from_cache = true;
  p.hop_limit = 3;
  p.cache_lifetime_s = 30;
  p.deadline_budget_ms = 250;
  p.source_name = "[service=golden]";
  p.destination_name = GenerateSizedName(rng, 60).ToString();
  p.payload = {0, 0xff, 0x80};
  specimens.push_back(Encode(p));

  NameUpdate update;
  update.vspace = "building";
  update.triggered = true;
  NameUpdateEntry e;
  e.name_text = GenerateSizedName(rng, 40).ToString();
  e.announcer = AnnouncerId{1, 2, 3};
  e.endpoint = EndpointInfo{MakeAddress(3, 7001), {{80, "http"}, {5004, "rtp"}}};
  e.app_metric = -0.75;
  e.route_metric = 12.5;
  e.lifetime_s = 45;
  e.version = 1ull << 40;
  update.entries.push_back(std::move(e));
  specimens.push_back(Encode(update));

  DsrRegister candidate;
  candidate.inr = MakeAddress(5);
  candidate.active = false;
  candidate.lifetime_s = 60;
  specimens.push_back(Encode(candidate));

  JournalDeltaRequest jreq;
  jreq.from = MakeAddress(2);
  jreq.vspace = "cam";
  jreq.after_serial = 7;
  jreq.full = true;
  specimens.push_back(Encode(jreq));

  JournalDeltaResponse snapshot;
  snapshot.from = MakeAddress(1);
  snapshot.vspace = "cam";
  snapshot.snapshot = true;
  snapshot.to_serial = 99;
  snapshot.seq = 3;
  snapshot.last = false;
  JournalDeltaResponse::Entry expire;
  expire.op = 2;
  expire.name_text = "[service=camera[id=c9]]";
  expire.announcer = AnnouncerId{9, 8, 7};
  expire.lifetime_s = 1;
  snapshot.entries.push_back(std::move(expire));
  specimens.push_back(Encode(snapshot));

  MetricsDeltaResponse full;
  full.request_id = 6;
  full.inr = MakeAddress(1);
  full.seq = 1;
  full.full = true;
  full.counters = {{"transport.drop.oversize", 2}};
  full.gauges = {{"admission.lag_us", -(1ll << 40)}};
  MetricsDeltaResponse::HistogramItem h;
  h.name = "latency.stage.encode";
  h.sum = 77;
  h.min = 77;
  h.max = 77;
  h.buckets = {{6, 1}};
  full.histograms.push_back(std::move(h));
  specimens.push_back(Encode(full));
  return specimens;
}

uint64_t Fnv1a64(const Bytes& bytes) {
  uint64_t h = 14695981039346656037ull;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

struct GoldenEncoding {
  size_t size;
  uint64_t digest;
};

// EncodedSpecimens() in order (wire types 1..34 without the retired 24 and
// 25, then the traced packet), followed by GoldenOnlySpecimens().
constexpr GoldenEncoding kGolden[] = {
    {119, 0xdb3a5ff0c7306a26ull},  // 1 Data
    {136, 0x6c6b5b5fda0ee2feull},  // 2 Advertisement
    {287, 0x42ee342c348ce072ull},  // 3 NameUpdate
    {42, 0xe12fc4917b24b239ull},   // 4 DiscoveryRequest
    {69, 0x41b244629fda5df2ull},   // 5 DiscoveryResponse
    {39, 0x6ed23557b17d1192ull},   // 6 EarlyBindingResponse
    {21, 0x9a7a3939986f6adbull},   // 7 Ping
    {21, 0x480b82621ecb2eb2ull},   // 8 Pong
    {11, 0x6c3e0c1d13cc21ffull},   // 9 PeerRequest
    {11, 0xa1046dd3c4a48d1bull},   // 10 PeerAccept
    {11, 0x713cc9e72022cd88ull},   // 11 PeerClose
    {24, 0xb107e8e19d4a6c80ull},   // 12 DsrRegister
    {13, 0xeea2fa55469fb0e0ull},   // 13 DsrListRequest
    {45, 0x94fae1c1cddeec7aull},   // 14 DsrListResponse
    {18, 0x4c403c6da07c0a4eull},   // 15 DsrVspaceRequest
    {24, 0x42fb40602d7a06e2ull},   // 16 DsrVspaceResponse
    {13, 0x2e6529aac1cc837full},   // 17 DsrCandidatesRequest
    {21, 0xacb3568eb7197b43ull},   // 18 DsrCandidatesResponse
    {18, 0x4a3522c177f6b287ull},   // 19 SpawnRequest
    {16, 0x5e3313a307863488ull},   // 20 DelegateVspace
    {19, 0x466e6b6aa9a1fa44ull},   // 21 DsrAssignmentsRequest
    {30, 0x542e4af3097dc7c7ull},   // 22 DsrAssignmentsResponse
    {11, 0x794830b7792e1311ull},   // 23 PeerKeepalive
    {36, 0xef2f56ff579bda6full},   // 26 JournalDigest
    {25, 0xe56307950d0285b6ull},   // 27 JournalDeltaRequest
    {222, 0x300ecd076409780eull},  // 28 JournalDeltaResponse
    {18, 0xb760c344e15c3bfcull},   // 29 DsrReplicaSetRequest
    {40, 0x89e1d5bd15804babull},   // 30 DsrReplicaSetResponse
    {16, 0x3b7efbe3a4cf726cull},   // 31 ReplicaInvite
    {17, 0x7af6b5bc849edc96ull},   // 32 DsrDeadInrReport
    {27, 0x85a412cbc22db5dfull},   // 33 MetricsDeltaRequest
    {190, 0xbd303d0d2887436full},  // 34 MetricsDeltaResponse
    {127, 0x21d599b6c786acbaull},  // traced Packet
    {104, 0x761f7ac68bdf353eull},  // Packet with B, D and cache bits
    {125, 0x5dd69f23aee64a0bull},  // NameUpdate, triggered
    {18, 0xb8da4ed1efc44859ull},   // DsrRegister, candidate only
    {25, 0x1fc64143ef227a10ull},   // JournalDeltaRequest, full
    {110, 0xf4b65433ef4ecbefull},  // JournalDeltaResponse, snapshot, not last
    {157, 0x1d94caed84013d4aull},  // MetricsDeltaResponse, full
};

TEST(WireGoldenTest, EverySpecimenEncodesToPinnedBytes) {
  std::vector<Bytes> specimens = EncodedSpecimens();
  for (Bytes& extra : GoldenOnlySpecimens()) {
    specimens.push_back(std::move(extra));
  }
  ASSERT_EQ(specimens.size(), std::size(kGolden));
  for (size_t i = 0; i < specimens.size(); ++i) {
    const Bytes& bytes = specimens[i];
    SCOPED_TRACE("specimen " + std::to_string(i) + ", wire type " + std::to_string(bytes[0]));
    EXPECT_EQ(bytes.size(), kGolden[i].size);
    EXPECT_EQ(Fnv1a64(bytes), kGolden[i].digest);
    // Decoding and re-encoding must reproduce the same bytes, so the decode
    // side of every field layout is pinned too.
    auto decoded = DecodeMessage(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(EncodeMessage(*decoded), bytes);
  }
}

}  // namespace
}  // namespace ins
