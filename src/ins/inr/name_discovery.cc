#include "ins/inr/name_discovery.h"

#include <algorithm>
#include <cmath>

#include "ins/common/logging.h"
#include "ins/name/parser.h"

namespace ins {

namespace {
// Default soft-state lifetime when an advertisement does not specify one:
// three refresh intervals, tolerating two lost refreshes.
constexpr uint32_t kDefaultLifetimeS = 45;
constexpr Duration kExpirySweepInterval = Seconds(5);
// Entries per NameUpdate datagram; larger batches are chunked.
constexpr size_t kMaxEntriesPerUpdate = 64;
// Metric changes smaller than this fraction count as refreshes, not
// changes, damping triggered-update storms from RTT jitter.
constexpr double kMetricChangeThreshold = 0.1;
}  // namespace

NameDiscovery::NameDiscovery(Executor* executor, SendFn send, NodeAddress self,
                             VspaceManager* vspaces, TopologyManager* topology,
                             MetricsRegistry* metrics, DiscoveryConfig config)
    : executor_(executor),
      send_(std::move(send)),
      self_(self),
      vspaces_(vspaces),
      topology_(topology),
      metrics_(metrics),
      config_(config) {}

NameDiscovery::~NameDiscovery() { Stop(); }

void NameDiscovery::Start() {
  periodic_task_ =
      executor_->ScheduleAfter(config_.update_interval, [this] { PeriodicTick(); });
  expiry_task_ = executor_->ScheduleAfter(kExpirySweepInterval, [this] { ExpiryTick(); });
}

void NameDiscovery::Stop() {
  executor_->Cancel(periodic_task_);
  executor_->Cancel(expiry_task_);
  periodic_task_ = expiry_task_ = kInvalidTaskId;
}

void NameDiscovery::HandleAdvertisement(const NodeAddress& src, const Advertisement& ad) {
  metrics_->Increment("discovery.advertisements");
  auto name = ParseNameSpecifier(ad.name_text);
  if (!name.ok()) {
    metrics_->Increment("discovery.bad_advertisements");
    INS_LOG(kDebug) << self_.ToString() << ": bad advertisement from " << src.ToString()
                    << ": " << name.status();
    return;
  }
  const std::string& vspace = !ad.vspace.empty() ? ad.vspace : VspaceManager::VspaceOf(*name);

  if (!vspaces_->Routes(vspace)) {
    // Forward to the resolver owning the space; if nobody routes it yet,
    // adopt it — services self-configure new spaces into existence.
    Advertisement copy = ad;
    copy.vspace = vspace;
    vspaces_->ResolveOwner(vspace, [this, src, copy = std::move(copy)](
                                       const NodeAddress& owner) {
      if (owner.IsValid() && owner != self_) {
        metrics_->Increment("discovery.advertisements_forwarded");
        send_(owner, Envelope{MessageBody(copy)});
        return;
      }
      vspaces_->AddSpace(copy.vspace);
      HandleAdvertisement(src, copy);
    });
    return;
  }

  uint32_t lifetime = ad.lifetime_s != 0 ? ad.lifetime_s : kDefaultLifetimeS;

  NameRecord rec;
  rec.announcer = ad.announcer;
  rec.endpoint = ad.endpoint;
  rec.app_metric = ad.app_metric;
  rec.route = RouteInfo{};  // locally attached
  rec.expires = executor_->Now() + Seconds(lifetime);
  rec.version = ad.version;

  auto outcome = vspaces_->store().Upsert(vspace, *name, rec);
  metrics_->SetGauge("discovery.names",
                     static_cast<int64_t>(vspaces_->store().RecordCount(vspace)));
  switch (outcome.kind) {
    case NameTree::UpsertOutcome::kIgnored:
      metrics_->Increment("discovery.stale_advertisements");
      return;
    case NameTree::UpsertOutcome::kRefreshed:
      return;  // soft-state refresh; nothing new to say
    case NameTree::UpsertOutcome::kNew:
      metrics_->Increment("discovery.names_discovered");
      if (on_name_discovered) {
        on_name_discovered(vspace, *name, *outcome.record);
      }
      break;
    case NameTree::UpsertOutcome::kChanged:
    case NameTree::UpsertOutcome::kRenamed:
      metrics_->Increment("discovery.names_changed");
      break;
  }

  if (config_.triggered_updates) {
    NameUpdateEntry entry = EntryFromRecord(*outcome.name, *outcome.record);
    PropagateTriggered(vspace, {std::move(entry)}, kInvalidAddress);
  }
}

NameUpdateEntry NameDiscovery::EntryFromRecord(const NameTree& tree,
                                               const NameRecord* rec) const {
  // GET-NAME: reconstruct the specifier from the superposed tree.
  return EntryFromRecord(tree.ExtractName(rec), *rec);
}

NameUpdateEntry NameDiscovery::EntryFromRecord(const NameSpecifier& name,
                                               const NameRecord& rec) const {
  NameUpdateEntry e;
  e.name_text = name.ToString();
  e.announcer = rec.announcer;
  e.endpoint = rec.endpoint;
  e.app_metric = rec.app_metric;
  e.route_metric = rec.route.overlay_metric;
  TimePoint now = executor_->Now();
  auto remaining = rec.expires > now ? rec.expires - now : Duration(0);
  e.lifetime_s = static_cast<uint32_t>(remaining.count() / 1000000);
  e.version = rec.version;
  return e;
}

void NameDiscovery::HandleNameUpdate(const NodeAddress& src, const NameUpdate& update) {
  metrics_->Increment("discovery.updates_received");
  metrics_->Increment("discovery.update_entries_received", update.entries.size());

  if (!vspaces_->Routes(update.vspace)) {
    metrics_->Increment("discovery.updates_unrouted_space");
    return;
  }

  std::vector<NameUpdateEntry> changed;
  for (const NameUpdateEntry& entry : update.entries) {
    auto propagate = ApplyRemoteEntry(src, update.vspace, entry);
    if (propagate.has_value()) {
      changed.push_back(std::move(*propagate));
    }
  }
  metrics_->SetGauge("discovery.names",
                     static_cast<int64_t>(vspaces_->store().RecordCount(update.vspace)));

  if (config_.triggered_updates && !changed.empty()) {
    PropagateTriggered(update.vspace, std::move(changed), src);
  }
}

size_t NameDiscovery::ApplyReplicatedEntries(const NodeAddress& src,
                                             const std::string& vspace,
                                             const std::vector<NameUpdateEntry>& entries) {
  if (!vspaces_->Routes(vspace)) {
    return 0;
  }
  std::vector<NameUpdateEntry> changed;
  for (const NameUpdateEntry& entry : entries) {
    auto propagate = ApplyRemoteEntry(src, vspace, entry);
    if (propagate.has_value()) {
      changed.push_back(std::move(*propagate));
    }
  }
  metrics_->SetGauge("discovery.names",
                     static_cast<int64_t>(vspaces_->store().RecordCount(vspace)));
  const size_t applied = changed.size();
  if (config_.triggered_updates && !changed.empty()) {
    PropagateTriggered(vspace, std::move(changed), src);
  }
  return applied;
}

std::optional<NameUpdateEntry> NameDiscovery::ApplyRemoteEntry(
    const NodeAddress& src, const std::string& vspace, const NameUpdateEntry& entry) {
  auto name = ParseNameSpecifier(entry.name_text);
  if (!name.ok()) {
    metrics_->Increment("discovery.bad_update_entries");
    return std::nullopt;
  }
  if (entry.lifetime_s == 0) {
    return std::nullopt;  // already stale on arrival
  }

  const double link_ms = topology_->LinkMetricMs(src);
  const double new_metric = entry.route_metric + link_ms;

  std::optional<NameRecord> existing = vspaces_->store().Find(vspace, entry.announcer);
  if (existing.has_value()) {
    // Distance-vector acceptance rules for same-version information:
    //  * our own locally attached records always win over echoes;
    //  * refreshes from the current next hop are accepted;
    //  * a strictly better path is adopted;
    //  * equal-version info via a worse path is ignored (split horizon
    //    plus this rule prevents two-hop count-to-infinity loops).
    if (entry.version < existing->version) {
      metrics_->Increment("discovery.stale_update_entries");
      return std::nullopt;
    }
    if (entry.version == existing->version) {
      if (existing->route.IsLocal()) {
        return std::nullopt;
      }
      const bool same_next_hop = existing->route.next_hop_inr == src;
      const double old_metric = existing->route.overlay_metric;
      if (!same_next_hop && new_metric >= old_metric) {
        return std::nullopt;
      }
      if (same_next_hop) {
        // Damp RTT jitter: small metric drift is a refresh, not a change.
        double drift = std::abs(new_metric - old_metric);
        if (drift < kMetricChangeThreshold * std::max(old_metric, 1.0)) {
          vspaces_->store().RefreshExpiry(vspace, entry.announcer,
                                          executor_->Now() + Seconds(entry.lifetime_s));
          return std::nullopt;
        }
      }
    }
  }

  NameRecord rec;
  rec.announcer = entry.announcer;
  rec.endpoint = entry.endpoint;
  rec.app_metric = entry.app_metric;
  rec.route.next_hop_inr = src;
  rec.route.overlay_metric = new_metric;
  rec.expires = executor_->Now() + Seconds(entry.lifetime_s);
  rec.version = entry.version;

  auto outcome = vspaces_->store().Upsert(vspace, *name, rec);
  switch (outcome.kind) {
    case NameTree::UpsertOutcome::kIgnored:
      metrics_->Increment("discovery.stale_update_entries");
      return std::nullopt;
    case NameTree::UpsertOutcome::kRefreshed:
      return std::nullopt;
    case NameTree::UpsertOutcome::kNew:
      metrics_->Increment("discovery.names_discovered");
      if (on_name_discovered) {
        on_name_discovered(vspace, *name, *outcome.record);
      }
      break;
    case NameTree::UpsertOutcome::kChanged:
    case NameTree::UpsertOutcome::kRenamed:
      metrics_->Increment("discovery.names_changed");
      break;
  }
  return EntryFromRecord(*outcome.name, *outcome.record);
}

void NameDiscovery::PropagateTriggered(const std::string& vspace,
                                       std::vector<NameUpdateEntry> entries,
                                       const NodeAddress& except) {
  for (const NodeAddress& peer : topology_->NeighborAddresses()) {
    if (peer == except) {
      continue;  // split horizon towards the source of the information
    }
    // Also split-horizon per entry: never advertise a record back towards
    // its own next hop.
    std::vector<NameUpdateEntry> filtered;
    for (const NameUpdateEntry& e : entries) {
      std::optional<NameRecord> rec = vspaces_->store().Find(vspace, e.announcer);
      if (rec.has_value() && !rec->route.IsLocal() && rec->route.next_hop_inr == peer) {
        continue;
      }
      filtered.push_back(e);
    }
    if (!filtered.empty()) {
      metrics_->Increment("discovery.triggered_updates_sent");
      SendUpdates(peer, vspace, std::move(filtered), /*triggered=*/true);
    }
  }
}

void NameDiscovery::SendUpdates(const NodeAddress& peer, const std::string& vspace,
                                std::vector<NameUpdateEntry> entries, bool triggered) {
  for (size_t i = 0; i < entries.size(); i += kMaxEntriesPerUpdate) {
    NameUpdate u;
    u.vspace = vspace;
    u.triggered = triggered;
    size_t end = std::min(entries.size(), i + kMaxEntriesPerUpdate);
    u.entries.assign(std::make_move_iterator(entries.begin() + static_cast<long>(i)),
                     std::make_move_iterator(entries.begin() + static_cast<long>(end)));
    metrics_->Increment("discovery.update_entries_sent", u.entries.size());
    send_(peer, Envelope{MessageBody(std::move(u))});
  }
}

void NameDiscovery::PublishIndexMetrics() {
  const PostingIndexStats s = vspaces_->store().IndexStatsTotal();
  metrics_->SetGauge("index.lookups", static_cast<int64_t>(s.index_lookups));
  metrics_->SetGauge("index.empty", static_cast<int64_t>(s.empty_lookups));
  metrics_->SetGauge("index.universal", static_cast<int64_t>(s.universal_lookups));
  metrics_->SetGauge("index.fallback.wildcard", static_cast<int64_t>(s.fallback_wildcard));
  metrics_->SetGauge("index.fallback.range", static_cast<int64_t>(s.fallback_range));
  metrics_->SetGauge("index.fallback.union", static_cast<int64_t>(s.fallback_union));
  metrics_->SetGauge("index.plan_cache.hits", static_cast<int64_t>(s.plan_hits));
  metrics_->SetGauge("index.plan_cache.misses", static_cast<int64_t>(s.plan_misses));
  metrics_->SetGauge("index.promotions", static_cast<int64_t>(s.promotions));
  metrics_->SetGauge("index.demotions", static_cast<int64_t>(s.demotions));
  metrics_->SetGauge("index.posting_keys", static_cast<int64_t>(s.posting_keys));
  metrics_->SetGauge("index.bytes", static_cast<int64_t>(s.bytes));
}

void NameDiscovery::PeriodicTick() {
  // Refresh the index.* gauges even when periodic updates are suppressed —
  // the management view should keep reflecting lookup traffic either way.
  PublishIndexMetrics();
  if (periodic_suppressed_) {
    periodic_task_ =
        executor_->ScheduleAfter(config_.update_interval, [this] { PeriodicTick(); });
    return;
  }
  for (const std::string& vspace : vspaces_->RoutedSpaces()) {
    for (const NodeAddress& peer : topology_->NeighborAddresses()) {
      std::vector<NameUpdateEntry> entries;
      if (const NameTree* tree = vspaces_->store().Tree(vspace)) {
        for (const NameRecord* rec : tree->AllRecords()) {
          if (!rec->route.IsLocal() && rec->route.next_hop_inr == peer) {
            continue;  // split horizon
          }
          entries.push_back(EntryFromRecord(*tree, rec));
        }
      }
      metrics_->Increment("discovery.periodic_updates_sent");
      SendUpdates(peer, vspace, std::move(entries), /*triggered=*/false);
    }
  }
  periodic_task_ =
      executor_->ScheduleAfter(config_.update_interval, [this] { PeriodicTick(); });
}

void NameDiscovery::ExpiryTick() {
  std::vector<std::pair<std::string, AnnouncerId>> swept;
  size_t expired = vspaces_->store().ExpireBefore(executor_->Now(), &swept);
  if (expired > 0) {
    metrics_->Increment("discovery.names_expired", expired);
    for (const auto& [vspace, id] : swept) {
      INS_LOG(kDebug) << "discovery: " << self_.ToString() << " expired "
                      << id.ToString() << " in '" << vspace << "'";
    }
  }
  expiry_task_ = executor_->ScheduleAfter(kExpirySweepInterval, [this] { ExpiryTick(); });
}

void NameDiscovery::PurgeRoutesVia(const NodeAddress& next_hop,
                                   const std::set<std::string>& keep_vspaces) {
  size_t purged = 0;
  for (const std::string& vspace : vspaces_->RoutedSpaces()) {
    if (keep_vspaces.count(vspace) > 0) {
      metrics_->Increment("replica.routes_retained");
      continue;
    }
    std::vector<AnnouncerId> stale;
    if (const NameTree* tree = vspaces_->store().Tree(vspace)) {
      for (const NameRecord* rec : tree->AllRecords()) {
        if (!rec->route.IsLocal() && rec->route.next_hop_inr == next_hop) {
          stale.push_back(rec->announcer);
        }
      }
    }
    for (const AnnouncerId& id : stale) {
      if (vspaces_->store().Remove(vspace, id)) {
        INS_LOG(kDebug) << "discovery: " << self_.ToString() << " purged "
                        << id.ToString() << " in '" << vspace << "' (route via dead "
                        << next_hop.ToString() << ")";
        ++purged;
      }
    }
  }
  if (purged > 0) {
    metrics_->Increment("discovery.routes_purged", purged);
  }
}

void NameDiscovery::SendFullStateTo(const NodeAddress& peer) {
  for (const std::string& vspace : vspaces_->RoutedSpaces()) {
    SendVspaceStateTo(peer, vspace);
  }
}

void NameDiscovery::SendVspaceStateTo(const NodeAddress& peer, const std::string& vspace) {
  if (!vspaces_->Routes(vspace)) {
    return;
  }
  std::vector<NameUpdateEntry> entries;
  if (const NameTree* tree = vspaces_->store().Tree(vspace)) {
    for (const NameRecord* rec : tree->AllRecords()) {
      if (!rec->route.IsLocal() && rec->route.next_hop_inr == peer) {
        continue;
      }
      entries.push_back(EntryFromRecord(*tree, rec));
    }
  }
  if (!entries.empty()) {
    SendUpdates(peer, vspace, std::move(entries), /*triggered=*/true);
  }
}

}  // namespace ins
