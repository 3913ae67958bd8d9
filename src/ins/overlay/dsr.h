// The Domain Space Resolver (paper §2.4): a well-known entity that maintains
// the list of active and candidate INRs for the administrative domain, in the
// linear order they became active — the order that makes the self-configured
// overlay provably a spanning tree. It also maps virtual spaces to the INRs
// that route them (§2.5), which resolvers query (and cache) when they receive
// traffic for a space they do not route.
//
// Registrations are soft state: INRs re-register periodically and expire
// silently when they crash, so a failed resolver drops off the active list
// without explicit de-registration.

#ifndef INS_OVERLAY_DSR_H_
#define INS_OVERLAY_DSR_H_

#include <map>
#include <string>
#include <vector>

#include "ins/common/executor.h"
#include "ins/common/metrics.h"
#include "ins/common/transport.h"
#include "ins/wire/messages.h"

namespace ins {

class Dsr {
 public:
  // Binds to `transport` and serves requests until destroyed.
  Dsr(Executor* executor, Transport* transport);
  ~Dsr();

  Dsr(const Dsr&) = delete;
  Dsr& operator=(const Dsr&) = delete;

  // Pre-populates the candidate list (nodes where INRs may be spawned);
  // candidates may also register themselves with active=false.
  void AddCandidate(const NodeAddress& node);

  // Introspection.
  std::vector<NodeAddress> ActiveInrs() const;       // in join order
  // Active INRs with their monotonic join orders, in join order. Orders are
  // never reused: an INR that expires and re-registers gets a fresh, larger
  // order, which is how resolvers detect that their registration lapsed.
  std::vector<std::pair<NodeAddress, uint64_t>> ActiveInrsOrdered() const;
  std::vector<NodeAddress> Candidates() const;
  NodeAddress InrForVspace(const std::string& vspace) const;
  // Every non-suspect active registrant routing `vspace`, in join order
  // (front = primary). Falls back to suspects when nobody else routes the
  // space — a suspect copy beats a void.
  std::vector<NodeAddress> ReplicaSetForVspace(const std::string& vspace) const;
  bool IsSuspect(const NodeAddress& inr) const;
  const MetricsRegistry& metrics() const { return metrics_; }

 private:
  struct Registration {
    NodeAddress inr;
    uint64_t join_order;
    std::vector<std::string> vspaces;
    TimePoint expires;
  };

  void OnMessage(const NodeAddress& src, const Bytes& data);
  void HandleRegister(const DsrRegister& reg);
  void HandleDeadReport(const DsrDeadInrReport& report);
  void SweepExpired();

  Executor* executor_;
  Transport* transport_;
  uint64_t next_join_order_ = 1;
  std::map<NodeAddress, Registration> active_;
  std::map<NodeAddress, TimePoint> candidates_;  // expiry (TimePoint::max for static)
  std::map<NodeAddress, TimePoint> suspects_;    // dead-reported, until this time
  TaskId sweep_task_ = kInvalidTaskId;
  MetricsRegistry metrics_;
};

}  // namespace ins

#endif  // INS_OVERLAY_DSR_H_
