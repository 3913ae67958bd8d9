#include "ins/client/api.h"

#include <algorithm>

#include "ins/common/logging.h"
#include "ins/inr/forwarding.h"
#include "ins/inr/vspace.h"
#include "ins/name/parser.h"
#include "ins/overlay/ping.h"

namespace ins {

namespace {
// Soft-state lifetime of an advertisement.
constexpr uint32_t kAdvertisementLifetimeS = 45;
constexpr Duration kRequestTimeout = Seconds(2);
constexpr BackoffConfig kRetryBackoff{Milliseconds(250), Seconds(2), 2.0, 0.3};
// Consecutive request timeouts (or missed resolver pongs) after which the
// attached resolver is presumed dead and the client re-attaches through the
// DSR, preferring a different resolver. Needs a valid `dsr`.
constexpr int kFailoverAfterTimeouts = 2;
constexpr BackoffConfig kAttachBackoff{Milliseconds(500), Seconds(8), 2.0, 0.3};
// Seed for retry jitter; mixed with the client's address, it keeps a fleet
// decorrelated while simulation runs stay reproducible.
constexpr uint64_t kJitterSeed = 0xC11E57;
}  // namespace

// --- AdvertisementHandle -----------------------------------------------------

AdvertisementHandle::~AdvertisementHandle() {
  if (client_ != nullptr) {
    auto& ads = client_->advertisements_;
    ads.erase(std::remove(ads.begin(), ads.end(), this), ads.end());
    // No de-registration message: the name simply stops being refreshed and
    // expires out of every resolver (soft state).
  }
}

void AdvertisementHandle::SetMetric(double metric) {
  metric_ = metric;
  if (client_ != nullptr) {
    client_->AnnounceNow(this);
  }
}

void AdvertisementHandle::SetName(NameSpecifier name) {
  name_ = std::move(name);
  vspace_ = VspaceManager::VspaceOf(name_);
  if (client_ != nullptr) {
    client_->AnnounceNow(this);
  }
}

// --- InsClient ----------------------------------------------------------------

InsClient::InsClient(Executor* executor, Transport* transport, ClientConfig config)
    : executor_(executor),
      transport_(transport),
      config_(config),
      rng_(kJitterSeed ^ transport->local_address().ip),
      attach_backoff_(kAttachBackoff, &rng_) {
  transport_->SetReceiveHandler(
      [this](const NodeAddress& src, const Bytes& data) { OnMessage(src, data); });
}

InsClient::~InsClient() {
  executor_->Cancel(refresh_task_);
  executor_->Cancel(attach_retry_task_);
  for (auto& [id, pending] : pending_discovers_) {
    executor_->Cancel(pending.timeout_task);
  }
  for (auto& [id, pending] : pending_resolves_) {
    executor_->Cancel(pending.timeout_task);
  }
  for (AdvertisementHandle* handle : advertisements_) {
    handle->client_ = nullptr;  // outstanding handles become inert
  }
  transport_->SetReceiveHandler(nullptr);
}

void InsClient::Start() {
  if (!started_) {
    started_ = true;
    refresh_task_ = executor_->ScheduleAfter(config_.refresh_interval, [this] { RefreshTick(); });
  }
  if (config_.inr.IsValid()) {
    inr_ = config_.inr;
  } else if (!attached()) {
    // Calling Start() again while unattached retries the attachment at once
    // (the backoff loop keeps retrying on its own either way).
    BeginAttach(kInvalidAddress);
  }
}

void InsClient::BeginAttach(const NodeAddress& exclude) {
  if (exclude.IsValid()) {
    excluded_inrs_.insert(exclude);
  }
  attach_request_id_ = next_request_id_++;
  DsrListRequest req;
  req.request_id = attach_request_id_;
  transport_->Send(config_.dsr, Encode(req));
  metrics_.Increment("client.attach_attempts");
  executor_->Cancel(attach_retry_task_);
  attach_retry_task_ = executor_->ScheduleAfter(attach_backoff_.Next(), [this] {
    attach_retry_task_ = kInvalidTaskId;
    if (!attached()) {
      BeginAttach(kInvalidAddress);
    }
  });
}

void InsClient::NoteRequestTimeout() {
  metrics_.Increment("client.request_timeouts");
  if (++consecutive_timeouts_ < kFailoverAfterTimeouts) {
    return;
  }
  if (!attached() || !config_.dsr.IsValid()) {
    return;
  }
  // The resolver stopped answering: presume it dead and find another. The
  // attachment drops, so new operations queue until the DSR names a
  // replacement; in-flight retries burn attempts but keep their deadlines.
  consecutive_timeouts_ = 0;
  resolver_pong_outstanding_ = false;
  metrics_.Increment("client.failovers");
  NodeAddress dead = inr_;
  inr_ = kInvalidAddress;
  BeginAttach(dead);
}

void InsClient::NoteResolverHealthy() {
  consecutive_timeouts_ = 0;
  // A working attachment ends the failover hunt: resolvers excluded along
  // the way are forgiven, so one that recovers is eligible next time.
  excluded_inrs_.clear();
}

bool InsClient::QueuePending(std::function<void()> fn) {
  if (pending_until_attached_.size() >= config_.max_pending_ops) {
    metrics_.Increment("client.pending_overflow");
    return false;
  }
  pending_until_attached_.push_back(std::move(fn));
  return true;
}

AnnouncerId InsClient::NextAnnouncer() {
  AnnouncerId id;
  id.ip = transport_->local_address().ip;
  id.start_time_us = static_cast<uint64_t>(executor_->Now().count());
  id.discriminator = next_discriminator_++;
  return id;
}

std::unique_ptr<AdvertisementHandle> InsClient::Advertise(NameSpecifier name,
                                                          std::vector<PortBinding> bindings,
                                                          double metric) {
  auto handle = std::unique_ptr<AdvertisementHandle>(new AdvertisementHandle());
  handle->client_ = this;
  handle->vspace_ = VspaceManager::VspaceOf(name);
  handle->name_ = std::move(name);
  handle->announcer_ = NextAnnouncer();
  handle->endpoint_.address = transport_->local_address();
  handle->endpoint_.bindings = std::move(bindings);
  handle->metric_ = metric;
  advertisements_.push_back(handle.get());
  AnnounceNow(handle.get());
  return handle;
}

void InsClient::AnnounceNow(AdvertisementHandle* handle) {
  if (!attached()) {
    AdvertisementHandle* raw = handle;
    // Overflow is fine to drop silently here: the handle stays registered,
    // so the next refresh tick after attachment announces it anyway.
    QueuePending([this, raw] {
      // The handle may have been destroyed while we waited.
      if (std::find(advertisements_.begin(), advertisements_.end(), raw) !=
          advertisements_.end()) {
        AnnounceNow(raw);
      }
    });
    return;
  }
  handle->endpoint_.address = transport_->local_address();
  Advertisement ad;
  ad.vspace = handle->vspace_;
  ad.name_text = handle->name_.ToString();
  ad.announcer = handle->announcer_;
  ad.endpoint = handle->endpoint_;
  ad.app_metric = handle->metric_;
  ad.lifetime_s = kAdvertisementLifetimeS;
  ad.version = ++handle->version_;
  transport_->Send(inr_, Encode(ad));
  metrics_.Increment("client.advertisements_sent");
}

void InsClient::RefreshTick() {
  for (AdvertisementHandle* handle : advertisements_) {
    AnnounceNow(handle);
  }
  if (attached() && config_.dsr.IsValid()) {
    // Attachment liveness: a client that only advertises gets no responses,
    // so a dead resolver would silently eat its refreshes until every name
    // expired. An unanswered ping from the previous tick counts like a
    // request timeout and feeds the same failover counter.
    if (resolver_pong_outstanding_) {
      NoteRequestTimeout();
    }
    if (attached()) {  // NoteRequestTimeout may have dropped the attachment
      Ping ping;
      ping.nonce = next_request_id_++;
      ping.send_time_us = static_cast<uint64_t>(executor_->Now().count());
      resolver_pong_outstanding_ = true;
      transport_->Send(inr_, Encode(ping));
    }
  }
  refresh_task_ = executor_->ScheduleAfter(config_.refresh_interval, [this] { RefreshTick(); });
}

void InsClient::Discover(const NameSpecifier& filter, const std::string& vspace,
                         DiscoverCallback cb) {
  if (!attached()) {
    if (pending_until_attached_.size() >= config_.max_pending_ops) {
      metrics_.Increment("client.pending_overflow");
      cb(UnavailableError("client is not attached and its pending queue is full"), {});
      return;
    }
    QueuePending([this, filter, vspace, cb = std::move(cb)] { Discover(filter, vspace, cb); });
    return;
  }
  uint64_t id = next_request_id_++;
  DiscoveryRequest req;
  req.request_id = id;
  req.vspace = vspace;
  req.filter_text = filter.ToString();
  req.reply_to = transport_->local_address();

  TaskId timeout = executor_->ScheduleAfter(kRequestTimeout, [this, id] { OnDiscoverTimeout(id); });
  pending_discovers_.emplace(
      id, PendingDiscover{req, std::move(cb), timeout, 1, Backoff(kRetryBackoff, &rng_)});
  transport_->Send(inr_, Encode(req));
  metrics_.Increment("client.discoveries_sent");
}

void InsClient::OnDiscoverTimeout(uint64_t id) {
  auto it = pending_discovers_.find(id);
  if (it == pending_discovers_.end()) {
    return;
  }
  NoteRequestTimeout();
  if (it->second.attempts >= config_.max_request_attempts) {
    DiscoverCallback cb = std::move(it->second.callback);
    pending_discovers_.erase(it);
    cb(DeadlineExceededError("discovery request timed out"), {});
    return;
  }
  it->second.timeout_task = executor_->ScheduleAfter(it->second.backoff.Next(),
                                                     [this, id] { ResendDiscover(id); });
}

void InsClient::ResendDiscover(uint64_t id) {
  auto it = pending_discovers_.find(id);
  if (it == pending_discovers_.end()) {
    return;
  }
  ++it->second.attempts;
  // Unattached mid-failover: the attempt still burns (total time stays
  // bounded) but nothing is sent; the next one lands on the new resolver.
  if (attached()) {
    metrics_.Increment("client.discover_retries");
    transport_->Send(inr_, Encode(it->second.request));
  }
  it->second.timeout_task =
      executor_->ScheduleAfter(kRequestTimeout, [this, id] { OnDiscoverTimeout(id); });
}

void InsClient::ResolveEarly(const NameSpecifier& name, ResolveCallback cb) {
  if (!attached()) {
    if (pending_until_attached_.size() >= config_.max_pending_ops) {
      metrics_.Increment("client.pending_overflow");
      cb(UnavailableError("client is not attached and its pending queue is full"), {});
      return;
    }
    QueuePending([this, name, cb = std::move(cb)] { ResolveEarly(name, cb); });
    return;
  }
  uint64_t id = next_request_id_++;
  Packet req;
  req.early_binding = true;
  req.destination_name = name.ToString();
  req.payload = EncodeEarlyBindingPayload(id, transport_->local_address());

  TaskId timeout = executor_->ScheduleAfter(kRequestTimeout, [this, id] { OnResolveTimeout(id); });
  pending_resolves_.emplace(
      id, PendingResolve{req, std::move(cb), timeout, 1, Backoff(kRetryBackoff, &rng_)});
  transport_->Send(inr_, Encode(req));
  metrics_.Increment("client.resolves_sent");
}

void InsClient::OnResolveTimeout(uint64_t id) {
  auto it = pending_resolves_.find(id);
  if (it == pending_resolves_.end()) {
    return;
  }
  NoteRequestTimeout();
  if (it->second.attempts >= config_.max_request_attempts) {
    ResolveCallback cb = std::move(it->second.callback);
    pending_resolves_.erase(it);
    cb(DeadlineExceededError("early binding request timed out"), {});
    return;
  }
  it->second.timeout_task =
      executor_->ScheduleAfter(it->second.backoff.Next(), [this, id] { ResendResolve(id); });
}

void InsClient::ResendResolve(uint64_t id) {
  auto it = pending_resolves_.find(id);
  if (it == pending_resolves_.end()) {
    return;
  }
  ++it->second.attempts;
  if (attached()) {
    metrics_.Increment("client.resolve_retries");
    transport_->Send(inr_, Encode(it->second.request));
  }
  it->second.timeout_task =
      executor_->ScheduleAfter(kRequestTimeout, [this, id] { OnResolveTimeout(id); });
}

Status InsClient::SendData(const NameSpecifier& destination, const Bytes& payload,
                           const NameSpecifier& source, bool deliver_all,
                           bool answer_from_cache, uint32_t cache_lifetime_s) {
  if (!attached()) {
    Packet queued;  // capture everything needed by value
    queued.destination_name = destination.ToString();
    queued.source_name = source.ToString();
    queued.deliver_all = deliver_all;
    queued.answer_from_cache = answer_from_cache;
    queued.cache_lifetime_s = cache_lifetime_s;
    queued.payload = payload;
    queued.trace_id = NextTraceId();
    if (!QueuePending([this, queued = std::move(queued)] { transport_->Send(inr_, Encode(queued)); })) {
      return UnavailableError("client is not attached and its pending queue is full");
    }
    return Status::Ok();
  }
  Packet p;
  p.destination_name = destination.ToString();
  p.source_name = source.ToString();
  p.deliver_all = deliver_all;
  p.answer_from_cache = answer_from_cache;
  p.cache_lifetime_s = cache_lifetime_s;
  p.payload = payload;
  p.trace_id = NextTraceId();
  metrics_.Increment(deliver_all ? "client.multicasts_sent" : "client.anycasts_sent");
  return transport_->Send(inr_, Encode(p));
}

uint64_t InsClient::NextTraceId() {
  const uint64_t n = ++data_packets_sent_;
  if (config_.trace_sample_every == 0 || n % config_.trace_sample_every != 0) {
    return 0;
  }
  const NodeAddress self = address();
  uint64_t id = (static_cast<uint64_t>(self.ip) << 32) ^
                (static_cast<uint64_t>(self.port) << 16) ^ n;
  if (id == 0) {
    id = 1;  // 0 on the wire means "untraced"
  }
  last_trace_id_ = id;
  return id;
}

Status InsClient::SendAnycast(const NameSpecifier& destination, const Bytes& payload,
                              const NameSpecifier& source, uint32_t cache_lifetime_s) {
  return SendData(destination, payload, source, /*deliver_all=*/false,
                  /*answer_from_cache=*/false, cache_lifetime_s);
}

Status InsClient::SendMulticast(const NameSpecifier& destination, const Bytes& payload,
                                const NameSpecifier& source, uint32_t cache_lifetime_s) {
  return SendData(destination, payload, source, /*deliver_all=*/true,
                  /*answer_from_cache=*/false, cache_lifetime_s);
}

Status InsClient::SendCacheable(const NameSpecifier& destination, const Bytes& payload,
                                const NameSpecifier& source) {
  return SendData(destination, payload, source, /*deliver_all=*/false,
                  /*answer_from_cache=*/true, /*cache_lifetime_s=*/0);
}

void InsClient::HandleAddressChange() {
  metrics_.Increment("client.address_changes");
  // Late binding at work: nothing to tear down. Re-announce every name from
  // the new address so resolvers track the move at once.
  for (AdvertisementHandle* handle : advertisements_) {
    AnnounceNow(handle);
  }
}

void InsClient::FlushPendingWhenAttached() {
  std::vector<std::function<void()>> pending = std::move(pending_until_attached_);
  pending_until_attached_.clear();
  for (auto& fn : pending) {
    fn();
  }
}

void InsClient::OnMessage(const NodeAddress& src, const Bytes& data) {
  (void)src;
  auto env = DecodeMessage(data);
  if (!env.ok()) {
    metrics_.Increment("client.decode_errors");
    return;
  }

  if (auto* list = std::get_if<DsrListResponse>(&env->body)) {
    if (list->request_id == attach_request_id_ && !attached()) {
      if (list->active_inrs.empty()) {
        // Keep the backoff retry loop running until a resolver shows up.
        INS_LOG(kWarning) << "InsClient: no active resolvers in the domain";
        return;
      }
      attach_request_id_ = 0;
      // Prefer any resolver not excluded by the ongoing failover hunt; take
      // the first anyway if every listed one is excluded (one may have
      // restarted). The exclusion set survives until the new attachment
      // proves healthy — back-to-back failovers must not bounce between two
      // dead resolvers.
      NodeAddress chosen = list->active_inrs.front();
      for (const NodeAddress& candidate : list->active_inrs) {
        if (excluded_inrs_.count(candidate) == 0) {
          chosen = candidate;
          break;
        }
      }
      inr_ = chosen;
      consecutive_timeouts_ = 0;
      resolver_pong_outstanding_ = false;
      attach_backoff_.Reset();
      executor_->Cancel(attach_retry_task_);
      attach_retry_task_ = kInvalidTaskId;
      metrics_.Increment("client.attached");
      FlushPendingWhenAttached();
    }
    return;
  }

  if (auto* resp = std::get_if<DiscoveryResponse>(&env->body)) {
    auto it = pending_discovers_.find(resp->request_id);
    if (it == pending_discovers_.end()) {
      return;
    }
    executor_->Cancel(it->second.timeout_task);
    DiscoverCallback cb = std::move(it->second.callback);
    pending_discovers_.erase(it);
    NoteResolverHealthy();

    std::vector<DiscoveredName> names;
    for (const DiscoveryResponse::Item& item : resp->items) {
      auto parsed = ParseNameSpecifier(item.name_text);
      if (!parsed.ok()) {
        continue;
      }
      names.push_back({std::move(*parsed), item.endpoint, item.app_metric});
    }
    cb(Status::Ok(), std::move(names));
    return;
  }

  if (auto* resp = std::get_if<EarlyBindingResponse>(&env->body)) {
    auto it = pending_resolves_.find(resp->request_id);
    if (it == pending_resolves_.end()) {
      return;
    }
    executor_->Cancel(it->second.timeout_task);
    ResolveCallback cb = std::move(it->second.callback);
    pending_resolves_.erase(it);
    NoteResolverHealthy();

    std::vector<Binding> bindings;
    for (const EarlyBindingResponse::Item& item : resp->items) {
      bindings.push_back({item.endpoint, item.app_metric});
    }
    cb(Status::Ok(), std::move(bindings));
    return;
  }

  if (auto* packet = std::get_if<Packet>(&env->body)) {
    metrics_.Increment("client.data_received");
    if (data_handler_) {
      NameSpecifier source;
      if (!packet->source_name.empty()) {
        auto parsed = ParseNameSpecifier(packet->source_name);
        if (parsed.ok()) {
          source = std::move(*parsed);
        }
      }
      data_handler_(source, packet->payload);
    }
    return;
  }

  if (std::get_if<Ping>(&env->body) != nullptr) {
    // Clients answer pings too (useful for diagnostics).
    transport_->Send(src, Encode(PingAgent::PongFor(std::get<Ping>(env->body))));
    return;
  }

  if (std::get_if<Pong>(&env->body) != nullptr) {
    if (src == inr_) {
      // The attachment liveness probe came back: the resolver is alive.
      resolver_pong_outstanding_ = false;
      NoteResolverHealthy();
    }
    return;
  }

  metrics_.Increment("client.unexpected_messages");
}

}  // namespace ins
