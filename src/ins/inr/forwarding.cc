#include "ins/inr/forwarding.h"

#include <chrono>

#include "ins/common/logging.h"
#include "ins/name/parser.h"

namespace ins {

Bytes EncodeEarlyBindingPayload(uint64_t request_id, const NodeAddress& reply_to) {
  ByteWriter w;
  w.WriteU64(request_id);
  w.WriteU32(reply_to.ip);
  w.WriteU16(reply_to.port);
  return std::move(w).TakeBytes();
}

Result<std::pair<uint64_t, NodeAddress>> DecodeEarlyBindingPayload(const Bytes& payload) {
  ByteReader r(payload);
  uint64_t id = 0;
  NodeAddress addr;
  INS_ASSIGN_OR_RETURN(id, r.ReadU64());
  INS_ASSIGN_OR_RETURN(addr.ip, r.ReadU32());
  INS_ASSIGN_OR_RETURN(addr.port, r.ReadU16());
  return std::make_pair(id, addr);
}

ForwardingAgent::ForwardingAgent(Executor* executor, SendFn send, NodeAddress self,
                                 VspaceManager* vspaces, TopologyManager* topology,
                                 PacketCache* cache, MetricsRegistry* metrics,
                                 TraceRing* trace)
    : executor_(executor),
      send_(std::move(send)),
      self_(self),
      vspaces_(vspaces),
      topology_(topology),
      cache_(cache),
      metrics_(metrics),
      trace_(trace),
      packets_(metrics->RegisterCounter("forwarding.packets")),
      lookups_(metrics->RegisterCounter("forwarding.lookups")),
      anycasts_(metrics->RegisterCounter("forwarding.anycast")),
      multicasts_(metrics->RegisterCounter("forwarding.multicast")),
      early_bindings_(metrics->RegisterCounter("forwarding.early_binding")),
      local_deliveries_(metrics->RegisterCounter("forwarding.local_deliveries")),
      tunneled_(metrics->RegisterCounter("forwarding.tunneled")),
      cross_vspace_(metrics->RegisterCounter("forwarding.cross_vspace")),
      cache_answers_(metrics->RegisterCounter("forwarding.cache_answers")),
      cache_inserts_(metrics->RegisterCounter("forwarding.cache_inserts")),
      dead_replica_reroutes_(metrics->RegisterCounter("availability.dead_replica_reroutes")),
      lookup_us_(metrics->RegisterHistogram("forwarding.lookup_us")) {
  for (size_t i = 0; i < kForwardingDropReasonCount; ++i) {
    drops_[i] = metrics->RegisterCounter(std::string("forwarding.drop.") +
                                         kForwardingDropReasonNames[i]);
  }
}

void ForwardingAgent::Trace(const Packet& packet, TraceEventKind kind, const char* detail,
                            NodeAddress peer, uint64_t value) {
  if (!packet.traced() || trace_ == nullptr) {
    return;
  }
  TraceEvent ev;
  ev.trace_id = packet.trace_id;
  ev.at = executor_->Now();
  ev.node = self_;
  ev.kind = kind;
  ev.detail = detail;
  ev.peer = peer;
  ev.value = value;
  trace_->Record(ev);
}

void ForwardingAgent::NoteDrop(const Packet& packet, ForwardingDropReason reason) {
  drops_[static_cast<size_t>(reason)].Increment();
  Trace(packet, TraceEventKind::kDropped, ForwardingDropReasonName(reason));
}

void ForwardingAgent::HandleData(const NodeAddress& src, const Packet& packet) {
  packets_.Increment();
  if (packet.hop_limit == 0) {
    NoteDrop(packet, ForwardingDropReason::kHopLimit);
    return;
  }
  // Decode the destination once per packet; the memoizing decoder makes the
  // steady-state cost of a repeated destination one probe, not a re-parse.
  auto dst = decoder_.Decode(packet.destination_name);
  if (!dst.ok()) {
    NoteDrop(packet, ForwardingDropReason::kBadDestination);
    INS_LOG(kDebug) << "undeliverable packet: " << dst.status();
    return;
  }
  if (packet.answer_from_cache && TryAnswerFromCache(packet, **dst)) {
    return;
  }
  ResolveAndForward(src, packet, **dst);
}

void ForwardingAgent::ResolveAndForward(const NodeAddress& src, const Packet& packet,
                                        const NameSpecifier& dst) {
  const std::string vspace = VspaceManager::VspaceOf(dst);
  const ShardedNameTree& store = vspaces_->store();
  if (!store.Routes(vspace)) {
    ForwardToVspaceOwner(packet, vspace);
    return;
  }

  lookups_.Increment();
  const auto lookup_start = std::chrono::steady_clock::now();

  // The callback only reduces the matches (no sends, no metrics); the
  // packet is acted on below, once the lookup is done.
  const bool early_binding = packet.early_binding;
  const bool deliver_all = packet.deliver_all;
  const bool from_neighbor_inr = topology_->IsNeighbor(src);
  Resolution res;
  store.ForEachShardMatch(
      vspace, dst,
      [&](size_t, const NameTree&, const std::vector<const NameRecord*>& matches) {
        res.matches = matches.size();
        if (early_binding) {
          res.records.reserve(matches.size());
          for (const NameRecord* rec : matches) {
            res.records.push_back(rec->Detached());
          }
          return;
        }
        if (deliver_all) {
          for (const NameRecord* rec : matches) {
            if (rec->route.IsLocal()) {
              res.locals.push_back(rec->Detached());
            } else if (vspaces_->IsDeadReplica(rec->route.next_hop_inr)) {
              // Survivor promotion: the next hop is a dead replica-set
              // member, but a replica holds the record's full endpoint, so
              // deliver directly instead of tunneling into the black hole.
              res.locals.push_back(rec->Detached());
              ++res.rescued;
            } else if (!(from_neighbor_inr && rec->route.next_hop_inr == src)) {
              // Split horizon on the data path: never bounce a multicast
              // copy back to the neighbor it came from.
              res.next_hops.insert(rec->route.next_hop_inr);
            }
          }
          return;
        }
        const NameRecord* best = nullptr;
        for (const NameRecord* rec : matches) {
          if (best == nullptr || rec->app_metric < best->app_metric ||
              (rec->app_metric == best->app_metric && rec->announcer < best->announcer)) {
            best = rec;
          }
        }
        if (best != nullptr) {
          res.best = best->Detached();
        }
      });

  lookup_us_.Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - lookup_start)
          .count()));

  MaybeCache(packet);

  if (res.rescued > 0) {
    dead_replica_reroutes_.Increment(res.rescued);
  }
  Trace(packet, TraceEventKind::kLookup, "", {}, res.matches);

  if (early_binding) {
    HandleEarlyBinding(src, packet, std::move(res.records));
    return;
  }
  if (res.matches == 0) {
    NoteDrop(packet, ForwardingDropReason::kNoMatch);
    return;
  }
  if (deliver_all) {
    HandleMulticast(packet, res);
  } else {
    HandleAnycast(packet, *res.best);
  }
}

void ForwardingAgent::ForwardToVspaceOwner(const Packet& packet, const std::string& vspace) {
  cross_vspace_.Increment();
  vspaces_->ResolveOwner(vspace, [this, packet, vspace](const NodeAddress& owner) {
    if (!owner.IsValid() || owner == self_) {
      NoteDrop(packet, ForwardingDropReason::kVspaceUnresolved);
      return;
    }
    ForwardToInr(packet, owner);
  });
}

void ForwardingAgent::HandleEarlyBinding(const NodeAddress& src, const Packet& packet,
                                         std::vector<NameRecord> records) {
  early_bindings_.Increment();
  uint64_t request_id = 0;
  NodeAddress reply_to = src;
  if (auto parsed = DecodeEarlyBindingPayload(packet.payload); parsed.ok()) {
    request_id = parsed->first;
    if (parsed->second.IsValid()) {
      reply_to = parsed->second;
    }
  }
  EarlyBindingResponse resp;
  resp.request_id = request_id;
  for (const NameRecord& rec : records) {
    resp.items.push_back({rec.endpoint, rec.app_metric});
  }
  Trace(packet, TraceEventKind::kDelivered, "early_binding", reply_to, records.size());
  send_(reply_to, Envelope{MessageBody(std::move(resp))});
}

void ForwardingAgent::HandleAnycast(const Packet& packet, const NameRecord& best) {
  // Exactly one destination: the least application metric; announcer id is
  // the deterministic tie-break.
  anycasts_.Increment();
  if (best.route.IsLocal()) {
    DeliverLocal(packet, best);
  } else if (vspaces_->IsDeadReplica(best.route.next_hop_inr)) {
    // Survivor promotion: this record was learned from a replica-set member
    // that digest silence has declared dead. Replicas carry the full
    // endpoint, so serve the name directly — this is what keeps lookups
    // inside the (k-1)/k goodput floor while the set heals.
    dead_replica_reroutes_.Increment();
    DeliverLocal(packet, best);
  } else {
    ForwardToInr(packet, best.route.next_hop_inr);
  }
}

void ForwardingAgent::HandleMulticast(const Packet& packet, const Resolution& res) {
  multicasts_.Increment();
  // Deliver to locally attached matches in announcer order (the lookup's
  // order), and forward exactly one copy per distinct next-hop INR.
  for (const NameRecord& rec : res.locals) {
    DeliverLocal(packet, rec);
  }
  for (const NodeAddress& hop : res.next_hops) {
    ForwardToInr(packet, hop);
  }
}

void ForwardingAgent::DeliverLocal(const Packet& packet, const NameRecord& record) {
  local_deliveries_.Increment();
  Trace(packet, TraceEventKind::kDelivered, "", record.endpoint.address);
  send_(record.endpoint.address, Envelope{MessageBody(packet)});
}

void ForwardingAgent::ForwardToInr(const Packet& packet, const NodeAddress& next_hop) {
  Packet copy = packet;
  copy.hop_limit -= 1;
  // Each overlay hop also charges the deadline budget (1ms minimum): a packet
  // whose budget dies here is dead work for every resolver downstream too.
  if (!ConsumeDeadlineBudget(copy, kHopDeadlineCostMs)) {
    NoteDrop(copy, ForwardingDropReason::kDeadline);
    return;
  }
  tunneled_.Increment();
  Trace(copy, TraceEventKind::kNextHopChosen, "", next_hop, copy.hop_limit);
  send_(next_hop, Envelope{MessageBody(std::move(copy))});
}

bool ForwardingAgent::TryAnswerFromCache(const Packet& packet, const NameSpecifier& dst) {
  const PacketCache::Entry* entry = cache_->Lookup(dst.ToString(), executor_->Now());
  if (entry == nullptr) {
    return false;
  }
  cache_answers_.Increment();
  Trace(packet, TraceEventKind::kDelivered, "cache_answer", self_);
  Packet reply;
  reply.source_name = entry->name_key;
  reply.destination_name = packet.source_name;
  reply.payload = entry->payload;
  reply.hop_limit = kDefaultHopLimit;
  // The reply routes like any other packet (anycast towards the requester's
  // own advertised name).
  HandleData(self_, reply);
  return true;
}

void ForwardingAgent::MaybeCache(const Packet& packet) {
  if (packet.cache_lifetime_s == 0 || packet.source_name.empty()) {
    return;
  }
  auto src_name = decoder_.Decode(packet.source_name);
  if (!src_name.ok()) {
    return;
  }
  cache_->Insert((*src_name)->ToString(), packet.payload,
                 executor_->Now() + Seconds(packet.cache_lifetime_s));
  cache_inserts_.Increment();
}

}  // namespace ins
