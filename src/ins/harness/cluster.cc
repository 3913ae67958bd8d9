#include "ins/harness/cluster.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "ins/common/logging.h"

namespace ins {

SimCluster::SimCluster(ClusterOptions options)
    : options_(std::move(options)),
      net_(&loop_, options_.seed),
      faults_(&net_, options_.seed) {
  net_.SetDefaultLink(options_.default_link);
  // Log lines from everything this cluster runs carry virtual-time stamps.
  SetThreadLogClock(&loop_);
  dsr_address_ = MakeAddress(kDsrHostIndex);
  dsr_transport_ = net_.Bind(dsr_address_);
  dsr_ = std::make_unique<Dsr>(&loop_, dsr_transport_.get());
}

SimCluster::~SimCluster() {
  // Destruction order: resolvers (and their sockets) before the network.
  handles_.clear();
  dsr_.reset();
  dsr_transport_.reset();
  SetThreadLogClock(nullptr);
}

Inr* SimCluster::AddInr(uint32_t host_index, std::vector<std::string> vspaces) {
  InrConfig config = options_.inr_template;
  config.vspaces = std::move(vspaces);
  return AddInrWithConfig(host_index, std::move(config));
}

Inr* SimCluster::AddInrWithConfig(uint32_t host_index, InrConfig config) {
  config.dsr = dsr_address();
  config.topology.dsr = dsr_address();
  auto handle = std::make_unique<InrHandle>();
  handle->host_index = host_index;
  handle->config = config;
  handle->socket = net_.Bind(MakeAddress(host_index));
  handle->inr = std::make_unique<Inr>(&loop_, handle->socket.get(), std::move(config));
  Inr* raw = handle->inr.get();
  handles_.push_back(std::move(handle));
  raw->Start();
  return raw;
}

void SimCluster::RemoveInr(Inr* inr) {
  auto it = std::find_if(handles_.begin(), handles_.end(),
                         [inr](const std::unique_ptr<InrHandle>& h) { return h->inr.get() == inr; });
  assert(it != handles_.end());
  // Harvest the rings before the node is destroyed: the last hop of a lost
  // packet is often exactly the resolver that just died, and its flight
  // recorder holds what it saw on the way down.
  for (const TraceEvent& ev : inr->trace_ring().Events()) {
    retired_trace_events_.push_back(ev);
  }
  for (const FlightEvent& ev : inr->flight_recorder().Events()) {
    retired_flight_events_.push_back(ev);
  }
  handles_.erase(it);
}

void SimCluster::CrashInr(Inr* inr) {
  auto it = std::find_if(handles_.begin(), handles_.end(),
                         [inr](const std::unique_ptr<InrHandle>& h) { return h->inr.get() == inr; });
  assert(it != handles_.end());
  crash_sites_[(*it)->host_index] = (*it)->config;
  inr->Crash();
  RemoveInr(inr);  // Stop() is a no-op on a crashed resolver
}

Inr* SimCluster::RestartInr(uint32_t host_index) {
  auto it = crash_sites_.find(host_index);
  if (it == crash_sites_.end()) {
    return nullptr;
  }
  InrConfig config = std::move(it->second);
  crash_sites_.erase(it);
  // Fresh process on the old address: empty name tree, empty overlay state.
  // Start() recovers the vspace assignments from the DSR and rejoins the
  // overlay; neighbors then push full name state (on_neighbor_up).
  return AddInrWithConfig(host_index, std::move(config));
}

std::vector<Inr*> SimCluster::inrs() {
  std::vector<Inr*> out;
  out.reserve(handles_.size());
  for (const std::unique_ptr<InrHandle>& h : handles_) {
    out.push_back(h->inr.get());
  }
  return out;
}

std::vector<Inr*> SimCluster::ReplicasOf(const std::string& vspace) {
  std::vector<Inr*> out;
  for (const std::unique_ptr<InrHandle>& h : handles_) {
    if (h->inr->running() && h->inr->vspaces().Routes(vspace)) {
      out.push_back(h->inr.get());
    }
  }
  return out;
}

SimCluster::Endpoint::Endpoint(SimCluster* cluster,
                               std::unique_ptr<sim::Network::Socket> socket)
    : socket_(std::move(socket)) {
  (void)cluster;
  socket_->SetReceiveHandler([this](const NodeAddress& src, const Bytes& data) {
    (void)src;
    auto env = DecodeMessage(data);
    if (env.ok()) {
      received_.push_back(std::move(*env));
    }
  });
}

std::unique_ptr<SimCluster::Endpoint> SimCluster::AddEndpoint(uint32_t host_index,
                                                              uint16_t port) {
  return std::make_unique<Endpoint>(this, net_.Bind(MakeAddress(host_index, port)));
}

void SimCluster::Partition(const std::vector<std::vector<uint32_t>>& host_index_groups) {
  std::vector<std::vector<uint32_t>> ip_groups;
  ip_groups.reserve(host_index_groups.size());
  for (const std::vector<uint32_t>& group : host_index_groups) {
    std::vector<uint32_t> ips;
    ips.reserve(group.size());
    for (uint32_t host_index : group) {
      ips.push_back(MakeAddress(host_index).ip);
    }
    ip_groups.push_back(std::move(ips));
  }
  faults_.Partition(std::move(ip_groups));
}

void SimCluster::CrashDsr() {
  // Silent death: the socket disappears, so traffic to the DSR is dropped as
  // "nobody home". Resolvers only notice through missing list responses.
  dsr_.reset();
  dsr_transport_.reset();
}

void SimCluster::RestartDsr() {
  if (dsr_ != nullptr) {
    return;
  }
  // Same address, empty state: join orders restart but stay monotonic from
  // the resolvers' point of view only after they re-register.
  dsr_transport_ = net_.Bind(dsr_address_);
  dsr_ = std::make_unique<Dsr>(&loop_, dsr_transport_.get());
}

void SimCluster::ApplyFaultPlan(const sim::FaultPlan& plan) {
  faults_.Schedule(plan);
  for (const sim::FaultEvent& ev : plan.events) {
    if (ev.kind == sim::FaultEvent::Kind::kCrashDsr) {
      loop_.ScheduleAt(ev.at, [this] { CrashDsr(); });
    } else if (ev.kind == sim::FaultEvent::Kind::kRestartDsr) {
      loop_.ScheduleAt(ev.at, [this] { RestartDsr(); });
    }
  }
}

std::string SimCluster::CheckTreeInvariant() {
  // Collect running resolvers and their addresses.
  std::map<NodeAddress, Inr*> by_address;
  for (const std::unique_ptr<InrHandle>& h : handles_) {
    if (h->inr->running()) {
      by_address[h->inr->address()] = h->inr.get();
    }
  }
  if (by_address.empty()) {
    return "";
  }

  std::ostringstream problems;
  size_t links = 0;
  std::map<NodeAddress, NodeAddress> parent_of;  // union-find over addresses
  for (const auto& [addr, inr] : by_address) {
    parent_of[addr] = addr;
  }
  std::function<NodeAddress(NodeAddress)> find = [&](NodeAddress a) {
    while (parent_of[a] != a) {
      parent_of[a] = parent_of[parent_of[a]];
      a = parent_of[a];
    }
    return a;
  };

  for (const auto& [addr, inr] : by_address) {
    if (!inr->topology().joined()) {
      problems << addr.ToString() << " not joined; ";
    }
    for (const NodeAddress& peer : inr->topology().NeighborAddresses()) {
      ++links;
      auto it = by_address.find(peer);
      if (it == by_address.end()) {
        problems << addr.ToString() << " links dead peer " << peer.ToString() << "; ";
        continue;
      }
      if (!it->second->topology().IsNeighbor(addr)) {
        problems << "asymmetric link " << addr.ToString() << "->" << peer.ToString() << "; ";
        continue;
      }
      parent_of[find(addr)] = find(peer);
    }
  }

  size_t n = by_address.size();
  if (links != 2 * (n - 1)) {
    problems << "expected " << 2 * (n - 1) << " directed links, have " << links << "; ";
  }
  size_t components = 0;
  for (const auto& [addr, inr] : by_address) {
    if (find(addr) == addr) {
      ++components;
    }
  }
  if (components != 1) {
    problems << components << " components; ";
  }
  // n nodes, connected, n-1 symmetric links => acyclic: a spanning tree.
  return problems.str();
}

TraceCollector SimCluster::CollectTraces() {
  TraceCollector collector;
  for (const std::unique_ptr<InrHandle>& h : handles_) {
    collector.Add(h->inr->trace_ring());
  }
  collector.AddEvents(retired_trace_events_);
  return collector;
}

std::vector<FlightEvent> SimCluster::CollectFlightEvents() {
  std::vector<FlightEvent> events = retired_flight_events_;
  for (const std::unique_ptr<InrHandle>& h : handles_) {
    for (const FlightEvent& ev : h->inr->flight_recorder().Events()) {
      events.push_back(ev);
    }
  }
  return MergeFlightEvents(std::move(events));
}

size_t SimCluster::DumpLostJourneys(const std::string& label) {
  TraceCollector collector = CollectTraces();
  const std::vector<PacketJourney> lost = collector.LostJourneys();
  if (!lost.empty()) {
    INS_LOG(kWarning) << label << ": " << lost.size() << " sampled packet(s) lost:\n"
                      << TraceCollector::Text(lost);
  }
  // The flight timeline is dumped even when no sampled packet was lost: a
  // reconvergence stall drops nothing but the incident record is still the
  // primary diagnostic.
  const char* dir = std::getenv("INS_TRACE_DUMP_DIR");
  if (dir != nullptr && dir[0] != '\0') {
    const std::string base = std::string(dir) + "/" + label;
    if (!lost.empty()) {
      std::ofstream text(base + ".journeys.txt");
      text << TraceCollector::Text(lost);
      std::ofstream json(base + ".trace.json");
      json << collector.ChromeTraceJson();
    }
    std::ofstream timeline(base + ".incident.txt");
    timeline << FlightTimelineText(CollectFlightEvents());
    INS_LOG(kWarning) << label << ": forensics dumped to " << base
                      << ".incident.txt";
  }
  return lost.size();
}

std::string SimCluster::CheckReplicationConvergence() {
  // vspace -> (resolver, announcer -> replicated content) of every running
  // resolver routing that space. The signature covers what replication
  // promises to converge: the name and the announcer's endpoint. Versions are
  // deliberately NOT compared — a service refresh bumps the version with
  // identical content, which is a soft-state refresh (not journaled), so
  // remote versions may lag the origin between transfers by design.
  std::map<std::string, std::vector<std::pair<NodeAddress, std::map<AnnouncerId, std::string>>>>
      views;
  for (const std::unique_ptr<InrHandle>& h : handles_) {
    if (!h->inr->running()) {
      continue;
    }
    for (const std::string& vspace : h->inr->vspaces().RoutedSpaces()) {
      std::map<AnnouncerId, std::string> view;
      if (const NameTree* tree = h->inr->vspaces().store().Tree(vspace)) {
        for (const NameRecord* rec : tree->AllRecords()) {
          view[rec->announcer] =
              tree->ExtractName(rec).ToString() + " @" + rec->endpoint.address.ToString();
        }
      }
      views[vspace].emplace_back(h->inr->address(), std::move(view));
    }
  }
  std::ostringstream problems;
  for (const auto& [vspace, resolvers] : views) {
    for (size_t i = 1; i < resolvers.size(); ++i) {
      if (resolvers[i].second == resolvers[0].second) {
        continue;
      }
      problems << "vspace '" << vspace << "': " << resolvers[0].first.ToString() << " has "
               << resolvers[0].second.size() << " records, " << resolvers[i].first.ToString()
               << " has " << resolvers[i].second.size();
      for (const auto& [id, sig] : resolvers[0].second) {
        auto it = resolvers[i].second.find(id);
        if (it == resolvers[i].second.end()) {
          problems << "; " << id.ToString() << " missing at " << resolvers[i].first.ToString();
        } else if (it->second != sig) {
          problems << "; " << id.ToString() << " '" << sig << "' vs '" << it->second << "'";
        }
      }
      for (const auto& [id, sig] : resolvers[i].second) {
        if (resolvers[0].second.count(id) == 0) {
          problems << "; " << id.ToString() << " extra at " << resolvers[i].first.ToString();
        }
      }
      problems << ". ";
    }
  }
  return problems.str();
}

std::optional<Duration> SimCluster::MeasureReplicationConvergence(Duration budget) {
  TimePoint start = loop_.Now();
  TimePoint deadline = start + budget;
  while (loop_.Now() < deadline) {
    loop_.RunFor(Milliseconds(200));
    if (CheckTreeInvariant().empty() && CheckReplicationConvergence().empty()) {
      Duration elapsed = loop_.Now() - start;
      metrics_.RecordDuration("cluster.replica_converge", elapsed);
      return elapsed;
    }
  }
  return std::nullopt;
}

std::optional<Duration> SimCluster::MeasureReconvergence(Duration budget) {
  TimePoint start = loop_.Now();
  TimePoint deadline = start + budget;
  while (loop_.Now() < deadline) {
    loop_.RunFor(Milliseconds(200));
    if (CheckTreeInvariant().empty()) {
      Duration elapsed = loop_.Now() - start;
      metrics_.RecordDuration("cluster.reconverge", elapsed);
      return elapsed;
    }
  }
  return std::nullopt;
}

void SimCluster::StabilizeTopology(Duration budget) {
  TimePoint deadline = loop_.Now() + budget;
  while (loop_.Now() < deadline) {
    loop_.RunFor(Milliseconds(200));
    size_t running = 0;
    size_t joined = 0;
    size_t links = 0;
    for (const std::unique_ptr<InrHandle>& h : handles_) {
      if (!h->inr->running()) {
        continue;
      }
      ++running;
      if (h->inr->topology().joined()) {
        ++joined;
      }
      links += h->inr->topology().NeighborAddresses().size();
    }
    if (running > 0 && joined == running && links == 2 * (running - 1)) {
      return;
    }
  }
  assert(false && "overlay failed to stabilize within budget");
}

}  // namespace ins
