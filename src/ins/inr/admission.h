// Prioritized admission control for the INR ingress path.
//
// The paper's resolver is a soft-state system: its name tree and spanning
// tree survive only as long as advertisements, name updates, and keepalives
// keep flowing. A FIFO intake lets a burst of late-binding data packets starve
// exactly that control traffic — the resolver then "fails" not from any fault
// but from its own success at attracting load. The admission controller
// replaces FIFO with three bounded, strictly-prioritized classes:
//
//   class 0  overlay/DSR control, advertisements, keepalives, name updates
//            (never shed: soft state must not expire because we are busy)
//   class 1  discovery queries and early-binding lookups
//   class 2  late-binding data packets
//
// Messages drain highest class first at a modeled per-message processing
// cost (the discrete-event simulator's stand-in for CPU time; the paper's
// measured resolution cost motivates the default). The controller sheds at
// admission, lowest class first, when either signal trips:
//   * the class queue is full (bounded memory), or
//   * the load signal — max(smoothed drain lag EWMA, instantaneous estimated
//     wait) — crosses the class's shed threshold. Class 2 sheds strictly
//     before class 1; class 0 is only ever dropped by queue overflow, whose
//     capacity is sized so that never happens in practice.
//
// Time spent queued is charged against a data packet's deadline budget at
// dispatch, so a request the client has already given up on is dropped
// instead of resolved: sheds and deadline kills surface under the uniform
// forwarding.drop.* metric family.
//
// Disabled (the default), Admit() dispatches inline and the INR behaves
// exactly like the seed.

#ifndef INS_INR_ADMISSION_H_
#define INS_INR_ADMISSION_H_

#include <array>
#include <cstddef>
#include <deque>
#include <functional>

#include "ins/common/executor.h"
#include "ins/common/flight_recorder.h"
#include "ins/common/metrics.h"
#include "ins/common/node_address.h"
#include "ins/common/trace.h"
#include "ins/wire/messages.h"

namespace ins {

struct AdmissionConfig {
  bool enabled = false;
  // Modeled service time per message: the drain rate is 1/processing_cost.
  Duration processing_cost = Microseconds(200);
  // Per-class queue bounds. Class 0 is sized to absorb every keepalive,
  // advertisement and routing update a full refresh period can produce.
  std::array<size_t, 3> queue_capacity = {4096, 1024, 1024};
};

// Returns the priority class (0 highest) of a decoded envelope.
int ClassifyMessage(const Envelope& env);

class AdmissionController {
 public:
  // `dispatch` receives the admitted message plus the time it spent queued
  // (zero when admission is disabled or the server was idle).
  using DispatchFn =
      std::function<void(const NodeAddress& src, const Envelope& env, Duration queued)>;

  // `trace`/`self` are optional (standalone tests construct without them):
  // when set, sampled data packets leave kQueued/kAdmitted/kDropped events in
  // the ring as they cross the admission boundary.
  AdmissionController(Executor* executor, MetricsRegistry* metrics, AdmissionConfig config,
                      DispatchFn dispatch, TraceRing* trace = nullptr, NodeAddress self = {});
  ~AdmissionController();

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  // Admits, queues, or sheds one decoded message. Inline dispatch when
  // disabled.
  void Admit(const NodeAddress& src, Envelope env);

  // Drops everything queued and cancels the drain timer (stop/crash path).
  void Clear();

  // When set, shedding edges (first shed of an overload episode, first
  // successful sheddable admit after it) land in the node's flight recorder.
  void AttachFlightRecorder(FlightRecorder* flight) { flight_ = flight; }

  // The current load signal: max(smoothed drain lag, estimated wait of a
  // message admitted right now). Exposed for tests and DebugString.
  Duration LoadSignal() const;

  size_t QueueDepth(int cls) const { return queues_[static_cast<size_t>(cls)].size(); }

 private:
  struct Pending {
    NodeAddress src;
    Envelope env;
    TimePoint enqueued;
  };

  void ScheduleDrain();
  void DrainOne();
  Duration EstimatedWait() const;
  void Shed(int cls, const char* signal, const Envelope& env);
  // Records a trace event when `env` carries a sampled data packet.
  void Trace(const Envelope& env, TraceEventKind kind, const char* detail = "",
             uint64_t value = 0);

  Executor* executor_;
  MetricsRegistry* metrics_;
  AdmissionConfig config_;
  DispatchFn dispatch_;
  TraceRing* trace_;
  NodeAddress self_;
  FlightRecorder* flight_ = nullptr;
  // True between a shed and the next successful sheddable (class>0) admit;
  // the edges of this bit are the recorded events, not every shed.
  bool shedding_ = false;

  // Pre-registered handles: admission sits on the ingress path of every
  // message, so its accounting must not do string-map lookups per packet.
  CounterHandle admitted_[3];
  CounterHandle processed_[3];
  CounterHandle shed_[3];
  CounterHandle shed_queue_full_;
  CounterHandle shed_lag_;
  GaugeHandle lag_gauge_;
  HistogramHandle queued_us_;

  std::array<std::deque<Pending>, 3> queues_;
  TaskId drain_task_ = kInvalidTaskId;
  // The modeled server is busy until this instant; the next drain runs then.
  TimePoint busy_until_{};
  Duration lag_ewma_{0};
};

}  // namespace ins

#endif  // INS_INR_ADMISSION_H_
