#include "ins/overlay/dsr.h"

#include <algorithm>

#include "ins/common/logging.h"

namespace ins {

namespace {
constexpr Duration kExpirySweepInterval = Seconds(5);
// How long a DsrDeadInrReport keeps a member out of vspace-resolution
// answers. Suspicion is weaker than expiry: the registration stays, and a
// refresh from the suspect (proof of life) clears the mark immediately.
constexpr Duration kDeadSuspectTtl = Seconds(30);
}  // namespace

Dsr::Dsr(Executor* executor, Transport* transport) : executor_(executor), transport_(transport) {
  transport_->SetReceiveHandler(
      [this](const NodeAddress& src, const Bytes& data) { OnMessage(src, data); });
  sweep_task_ = executor_->ScheduleAfter(kExpirySweepInterval, [this] { SweepExpired(); });
}

Dsr::~Dsr() {
  executor_->Cancel(sweep_task_);
  transport_->SetReceiveHandler(nullptr);
}

void Dsr::AddCandidate(const NodeAddress& node) {
  candidates_[node] = TimePoint::max();
}

std::vector<std::pair<NodeAddress, uint64_t>> Dsr::ActiveInrsOrdered() const {
  std::vector<std::pair<NodeAddress, uint64_t>> out;
  out.reserve(active_.size());
  for (const auto& [addr, reg] : active_) {
    out.emplace_back(reg.inr, reg.join_order);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  return out;
}

std::vector<NodeAddress> Dsr::ActiveInrs() const {
  std::vector<NodeAddress> out;
  for (const auto& [inr, order] : ActiveInrsOrdered()) {
    out.push_back(inr);
  }
  return out;
}

std::vector<NodeAddress> Dsr::Candidates() const {
  std::vector<NodeAddress> out;
  out.reserve(candidates_.size());
  for (const auto& [addr, exp] : candidates_) {
    out.push_back(addr);
  }
  return out;
}

NodeAddress Dsr::InrForVspace(const std::string& vspace) const {
  // First registrant (in join order) routing the space wins; this is also
  // the tie-break that keeps two INRs from both claiming a space for long.
  // Suspects lose to any non-suspect registrant but still beat a void.
  const Registration* best = nullptr;
  const Registration* best_suspect = nullptr;
  for (const auto& [addr, reg] : active_) {
    if (std::find(reg.vspaces.begin(), reg.vspaces.end(), vspace) == reg.vspaces.end()) {
      continue;
    }
    if (IsSuspect(reg.inr)) {
      if (best_suspect == nullptr || reg.join_order < best_suspect->join_order) {
        best_suspect = &reg;
      }
      continue;
    }
    if (best == nullptr || reg.join_order < best->join_order) {
      best = &reg;
    }
  }
  if (best == nullptr) {
    best = best_suspect;
  }
  return best != nullptr ? best->inr : kInvalidAddress;
}

bool Dsr::IsSuspect(const NodeAddress& inr) const {
  auto it = suspects_.find(inr);
  return it != suspects_.end() && it->second > executor_->Now();
}

std::vector<NodeAddress> Dsr::ReplicaSetForVspace(const std::string& vspace) const {
  std::vector<std::pair<uint64_t, NodeAddress>> members;
  std::vector<std::pair<uint64_t, NodeAddress>> suspects;
  for (const auto& [addr, reg] : active_) {
    if (std::find(reg.vspaces.begin(), reg.vspaces.end(), vspace) == reg.vspaces.end()) {
      continue;
    }
    (IsSuspect(reg.inr) ? suspects : members).emplace_back(reg.join_order, reg.inr);
  }
  if (members.empty()) {
    members = std::move(suspects);
  }
  std::sort(members.begin(), members.end());
  std::vector<NodeAddress> out;
  out.reserve(members.size());
  for (const auto& [order, inr] : members) {
    out.push_back(inr);
  }
  return out;
}

void Dsr::HandleRegister(const DsrRegister& reg) {
  if (reg.lifetime_s == 0) {
    // Explicit unregister (graceful INR termination).
    if (active_.erase(reg.inr) > 0) {
      metrics_.Increment("dsr.unregisters");
    }
    candidates_.erase(reg.inr);
    return;
  }
  TimePoint expires = executor_->Now() + Seconds(reg.lifetime_s);
  if (!reg.active) {
    candidates_[reg.inr] = expires;
    metrics_.Increment("dsr.candidate_registrations");
    return;
  }
  auto it = active_.find(reg.inr);
  if (it == active_.end()) {
    Registration r;
    r.inr = reg.inr;
    r.join_order = next_join_order_++;
    r.vspaces = reg.vspaces;
    r.expires = expires;
    active_.emplace(reg.inr, std::move(r));
    // An INR that becomes active stops being a spawn candidate.
    candidates_.erase(reg.inr);
    metrics_.Increment("dsr.joins");
    INS_LOG(kDebug) << "DSR: " << reg.inr.ToString() << " joined ("
                    << active_.size() << " active)";
  } else {
    it->second.vspaces = reg.vspaces;
    it->second.expires = expires;
    metrics_.Increment("dsr.refreshes");
  }
  // A registration (new or refreshed) is proof of life: it outranks any
  // replica's silence-based suspicion.
  if (suspects_.erase(reg.inr) > 0) {
    metrics_.Increment("dsr.suspects_cleared");
  }
}

void Dsr::HandleDeadReport(const DsrDeadInrReport& report) {
  // A node cannot report itself, and reports about unknown nodes carry no
  // information worth remembering.
  if (report.dead == report.reporter || active_.find(report.dead) == active_.end()) {
    metrics_.Increment("dsr.dead_reports_ignored");
    return;
  }
  suspects_[report.dead] = executor_->Now() + kDeadSuspectTtl;
  metrics_.Increment("dsr.dead_reports");
  INS_LOG(kDebug) << "DSR: " << report.dead.ToString() << " reported dead by "
                  << report.reporter.ToString();
}

void Dsr::OnMessage(const NodeAddress& src, const Bytes& data) {
  auto env = DecodeMessage(data);
  if (!env.ok()) {
    metrics_.Increment("dsr.decode_errors");
    return;
  }
  if (const auto* reg = std::get_if<DsrRegister>(&env->body)) {
    HandleRegister(*reg);
    return;
  }
  if (const auto* list = std::get_if<DsrListRequest>(&env->body)) {
    DsrListResponse resp;
    resp.request_id = list->request_id;
    for (const auto& [inr, order] : ActiveInrsOrdered()) {
      resp.active_inrs.push_back(inr);
      resp.join_orders.push_back(order);
    }
    transport_->Send(src, Encode(resp));
    metrics_.Increment("dsr.list_requests");
    return;
  }
  if (const auto* vq = std::get_if<DsrVspaceRequest>(&env->body)) {
    DsrVspaceResponse resp;
    resp.request_id = vq->request_id;
    resp.vspace = vq->vspace;
    resp.inr = InrForVspace(vq->vspace);
    transport_->Send(src, Encode(resp));
    metrics_.Increment("dsr.vspace_requests");
    return;
  }
  if (const auto* cq = std::get_if<DsrCandidatesRequest>(&env->body)) {
    DsrCandidatesResponse resp;
    resp.request_id = cq->request_id;
    resp.candidates = Candidates();
    transport_->Send(src, Encode(resp));
    metrics_.Increment("dsr.candidate_requests");
    return;
  }
  if (const auto* rq = std::get_if<DsrReplicaSetRequest>(&env->body)) {
    DsrReplicaSetResponse resp;
    resp.request_id = rq->request_id;
    resp.vspace = rq->vspace;
    resp.replicas = ReplicaSetForVspace(rq->vspace);
    for (const auto& [inr, order] : ActiveInrsOrdered()) {
      if (std::find(resp.replicas.begin(), resp.replicas.end(), inr) ==
              resp.replicas.end() &&
          !IsSuspect(inr)) {
        resp.candidates.push_back(inr);
      }
    }
    transport_->Send(src, Encode(resp));
    metrics_.Increment("dsr.replica_set_requests");
    return;
  }
  if (const auto* dead = std::get_if<DsrDeadInrReport>(&env->body)) {
    HandleDeadReport(*dead);
    return;
  }
  if (const auto* aq = std::get_if<DsrAssignmentsRequest>(&env->body)) {
    // Crash-recovery query: what does this INR's (soft-state) registration
    // still route? An expired or never-registered INR gets an empty answer.
    DsrAssignmentsResponse resp;
    resp.request_id = aq->request_id;
    if (auto it = active_.find(aq->inr); it != active_.end()) {
      resp.vspaces = it->second.vspaces;
      // Asking for assignments means the INR rebooted empty. Its seniority
      // must reboot with it: keeping the pre-crash join order would let a
      // journal-less shell leapfrog surviving replica-set members (sets are
      // the first k registrants by join order) and become a primary that
      // black-holes tunnelled lookups. Demoting to the back of the line
      // makes the survivors the set and lets the rebooted node re-earn a
      // slot (or relinquish) through the normal recruitment path.
      it->second.join_order = next_join_order_++;
      metrics_.Increment("dsr.seniority_resets");
    }
    transport_->Send(src, Encode(resp));
    metrics_.Increment("dsr.assignments_requests");
    return;
  }
  metrics_.Increment("dsr.unexpected_messages");
}

void Dsr::SweepExpired() {
  TimePoint now = executor_->Now();
  for (auto it = active_.begin(); it != active_.end();) {
    if (it->second.expires < now) {
      INS_LOG(kDebug) << "DSR: " << it->first.ToString() << " expired";
      metrics_.Increment("dsr.expirations");
      it = active_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = candidates_.begin(); it != candidates_.end();) {
    if (it->second < now) {
      it = candidates_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = suspects_.begin(); it != suspects_.end();) {
    if (it->second < now) {
      it = suspects_.erase(it);
    } else {
      ++it;
    }
  }
  sweep_task_ = executor_->ScheduleAfter(kExpirySweepInterval, [this] { SweepExpired(); });
}

}  // namespace ins
