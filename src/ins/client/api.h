// The INS client API (paper §3, §4).
//
// InsClient is the library applications link against: it attaches to a
// resolver (given directly or found through the DSR), advertises intentional
// names with periodic soft-state refresh, discovers names matching a filter,
// performs early binding, and exchanges data via intentional anycast and
// multicast. The paper's Floorplan/Camera/Printer applications sit directly
// on this interface.

#ifndef INS_CLIENT_API_H_
#define INS_CLIENT_API_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ins/common/backoff.h"
#include "ins/common/executor.h"
#include "ins/common/metrics.h"
#include "ins/common/transport.h"
#include "ins/name/name_specifier.h"
#include "ins/nametree/name_record.h"
#include "ins/wire/messages.h"

namespace ins {

struct ClientConfig {
  // Resolver to attach to. If invalid, the client asks the DSR for the
  // active list and attaches to the first resolver.
  NodeAddress inr;
  NodeAddress dsr;
  // Advertisement refresh period.
  Duration refresh_interval = Seconds(15);

  // --- Resilience -----------------------------------------------------------
  // Total send attempts per Discover/ResolveEarly before the callback fails
  // with kDeadlineExceeded. Retries keep the request id, so a late answer to
  // an earlier attempt still completes the operation. Total retry time is
  // bounded: attempts * the request timeout plus the (capped) backoffs
  // between.
  int max_request_attempts = 3;
  // Bound on operations queued while unattached; excess fails kUnavailable
  // instead of growing without limit while the domain is down.
  size_t max_pending_ops = 64;

  // Hop-by-hop tracing: every Nth data packet this client sends carries a
  // trace id (and the kFlagTraceSampled wire bit), leaving events in each
  // resolver's trace ring along its path. 0 (the default) disables sampling —
  // the wire format is then byte-identical to the untraced seed.
  uint64_t trace_sample_every = 0;
};

// Handle for one advertised name; destroying it stops refreshing (the name
// then expires from the system by soft state — no explicit de-registration).
class AdvertisementHandle {
 public:
  ~AdvertisementHandle();
  AdvertisementHandle(const AdvertisementHandle&) = delete;
  AdvertisementHandle& operator=(const AdvertisementHandle&) = delete;

  const NameSpecifier& name() const { return name_; }
  const AnnouncerId& announcer() const { return announcer_; }

  // Updates the anycast metric (e.g. a printer's queue length); announced
  // immediately and in every subsequent refresh.
  void SetMetric(double metric);
  // Replaces the advertised name (service mobility: new room, new
  // properties) — announced immediately.
  void SetName(NameSpecifier name);

 private:
  friend class InsClient;
  AdvertisementHandle() = default;

  class InsClient* client_ = nullptr;
  NameSpecifier name_;
  AnnouncerId announcer_;
  std::string vspace_;
  EndpointInfo endpoint_;
  double metric_ = 0.0;
  uint64_t version_ = 0;
};

class InsClient {
 public:
  // Discovered name plus how to reach it.
  struct DiscoveredName {
    NameSpecifier name;
    EndpointInfo endpoint;
    double app_metric = 0.0;
  };
  using DiscoverCallback =
      std::function<void(Status, std::vector<DiscoveredName>)>;

  struct Binding {
    EndpointInfo endpoint;
    double app_metric = 0.0;
  };
  using ResolveCallback = std::function<void(Status, std::vector<Binding>)>;

  // Payload received via late binding, with the packet's source name.
  using DataHandler =
      std::function<void(const NameSpecifier& source, const Bytes& payload)>;

  InsClient(Executor* executor, Transport* transport, ClientConfig config);
  ~InsClient();

  InsClient(const InsClient&) = delete;
  InsClient& operator=(const InsClient&) = delete;

  // Attaches to a resolver. Resolves through the DSR when config.inr is
  // unset; safe to call Send/Advertise immediately after (operations queue
  // until attached).
  void Start();

  bool attached() const { return inr_.IsValid(); }
  NodeAddress resolver() const { return inr_; }
  NodeAddress address() const { return transport_->local_address(); }

  // --- Advertising ----------------------------------------------------------

  // Advertises `name` with the given service bindings and anycast metric.
  // The name is refreshed periodically until the handle is destroyed.
  std::unique_ptr<AdvertisementHandle> Advertise(NameSpecifier name,
                                                 std::vector<PortBinding> bindings = {},
                                                 double metric = 0.0);

  // --- Discovery and early binding -------------------------------------------

  // Returns all known names matching `filter` (empty filter = everything).
  void Discover(const NameSpecifier& filter, const std::string& vspace,
                DiscoverCallback cb);

  // Early binding: resolve a name to network locations + metrics and pick
  // at the client (richer than round-robin DNS).
  void ResolveEarly(const NameSpecifier& name, ResolveCallback cb);

  // --- Late binding data path -------------------------------------------------

  // Sends payload to the best (least-metric) node matching `destination`.
  Status SendAnycast(const NameSpecifier& destination, const Bytes& payload,
                     const NameSpecifier& source = {}, uint32_t cache_lifetime_s = 0);
  // Sends payload to every node matching `destination`.
  Status SendMulticast(const NameSpecifier& destination, const Bytes& payload,
                       const NameSpecifier& source = {}, uint32_t cache_lifetime_s = 0);
  // As SendAnycast, but an INR holding a cached object under `destination`
  // answers directly (the §3.2 caching extension).
  Status SendCacheable(const NameSpecifier& destination, const Bytes& payload,
                       const NameSpecifier& source = {});

  // Handler for incoming late-binding data.
  void OnData(DataHandler handler) { data_handler_ = std::move(handler); }

  // Called by MobilityManager after the transport rebinds: re-announces
  // every live advertisement from the new address immediately.
  void HandleAddressChange();

  MetricsRegistry& metrics() { return metrics_; }

  // Trace id stamped on the most recent sampled data packet (0 if none yet).
  // Tests use it to pull the matching journey out of the harness collector.
  uint64_t last_trace_id() const { return last_trace_id_; }

  // The executor the client runs on; applications built on the API use it
  // for their own timers (request timeouts, periodic work).
  Executor* executor() { return executor_; }

 private:
  friend class AdvertisementHandle;

  void OnMessage(const NodeAddress& src, const Bytes& data);
  void AnnounceNow(AdvertisementHandle* handle);
  void RefreshTick();
  Status SendData(const NameSpecifier& destination, const Bytes& payload,
                  const NameSpecifier& source, bool deliver_all, bool answer_from_cache,
                  uint32_t cache_lifetime_s);
  void FlushPendingWhenAttached();
  AnnouncerId NextAnnouncer();
  // Queues `fn` until attachment; false (and nothing queued) once the bound
  // `max_pending_ops` is reached.
  bool QueuePending(std::function<void()> fn);
  // (Re-)requests the DSR's active list, retrying with jittered backoff until
  // a resolver outside the exclusion set (best effort) answers. A valid
  // `exclude` is ADDED to the set — consecutive failovers accumulate, so a
  // chain of dead resolvers is not revisited while hunting for a live one.
  void BeginAttach(const NodeAddress& exclude);
  // One Discover/Resolve attempt timed out: after kFailoverAfterTimeouts in
  // a row the attached resolver is presumed dead and we re-attach.
  void NoteRequestTimeout();
  // The attached resolver actually answered something: reset the timeout
  // strike counter AND clear the exclusion set, so a resolver excluded
  // during the last failover hunt becomes eligible again once it recovers.
  void NoteResolverHealthy();
  // The trace id for the next data packet: nonzero every
  // config_.trace_sample_every-th send, derived from this client's address
  // plus a per-client counter so concurrent clients never collide.
  uint64_t NextTraceId();
  void OnDiscoverTimeout(uint64_t id);
  void ResendDiscover(uint64_t id);
  void OnResolveTimeout(uint64_t id);
  void ResendResolve(uint64_t id);

  Executor* executor_;
  Transport* transport_;
  ClientConfig config_;
  MetricsRegistry metrics_;
  Rng rng_;
  Backoff attach_backoff_;

  NodeAddress inr_;
  bool started_ = false;
  uint64_t attach_request_id_ = 0;
  uint64_t next_request_id_ = 1;
  uint32_t next_discriminator_ = 0;
  TaskId refresh_task_ = kInvalidTaskId;
  TaskId attach_retry_task_ = kInvalidTaskId;
  // Resolvers skipped when choosing from the DSR list after failovers (the
  // ones declared dead since the last healthy response); one is taken anyway
  // if every listed resolver is excluded. Cleared by NoteResolverHealthy.
  std::set<NodeAddress> excluded_inrs_;
  int consecutive_timeouts_ = 0;
  uint64_t data_packets_sent_ = 0;
  uint64_t last_trace_id_ = 0;
  // Liveness of the attachment itself: a resolver that only ever receives
  // our advertisements would die unnoticed, so every refresh tick pings it
  // and an unanswered ping counts like a request timeout.
  bool resolver_pong_outstanding_ = false;

  std::vector<AdvertisementHandle*> advertisements_;
  std::vector<std::function<void()>> pending_until_attached_;

  struct PendingDiscover {
    DiscoveryRequest request;  // kept for retries (same request id)
    DiscoverCallback callback;
    TaskId timeout_task;
    int attempts;
    Backoff backoff;
  };
  std::map<uint64_t, PendingDiscover> pending_discovers_;

  struct PendingResolve {
    Packet request;  // kept for retries (payload embeds the request id)
    ResolveCallback callback;
    TaskId timeout_task;
    int attempts;
    Backoff backoff;
  };
  std::map<uint64_t, PendingResolve> pending_resolves_;

  DataHandler data_handler_;
};

}  // namespace ins

#endif  // INS_CLIENT_API_H_
