#include "ins/inr/admission.h"

#include <algorithm>
#include <string>
#include <utility>

namespace ins {

namespace {

// Load-signal thresholds; class 2 trips first by a wide margin.
constexpr Duration kShedClass2Lag = Milliseconds(50);
constexpr Duration kShedClass1Lag = Milliseconds(250);
// Smoothing factor for the drain-lag EWMA.
constexpr double kLagEwmaAlpha = 0.2;

const char* kAdmittedCounter[3] = {"admission.admitted.class0", "admission.admitted.class1",
                                   "admission.admitted.class2"};
const char* kProcessedCounter[3] = {"admission.processed.class0",
                                    "admission.processed.class1",
                                    "admission.processed.class2"};
const char* kShedCounter[3] = {"forwarding.drop.shed_class0", "forwarding.drop.shed_class1",
                               "forwarding.drop.shed_class2"};
// Trace detail of a shed drop: the same suffix its counter carries, so a
// journey's kDropped event names the forwarding.drop.* family member.
const char* kShedReason[3] = {"shed_class0", "shed_class1", "shed_class2"};

}  // namespace

int ClassifyMessage(const Envelope& env) {
  return std::visit(
      [](const auto& body) -> int {
        using T = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<T, Packet>) {
          return body.early_binding ? 1 : 2;
        } else if constexpr (std::is_same_v<T, DiscoveryRequest>) {
          return 1;
        } else {
          // Everything else keeps the namespace and the overlay alive:
          // service advertisements, INR-to-INR name updates, keepalives/
          // pings, peering, and the whole DSR protocol.
          return 0;
        }
      },
      env.body);
}

AdmissionController::AdmissionController(Executor* executor, MetricsRegistry* metrics,
                                         AdmissionConfig config, DispatchFn dispatch,
                                         TraceRing* trace, NodeAddress self)
    : executor_(executor),
      metrics_(metrics),
      config_(config),
      dispatch_(std::move(dispatch)),
      trace_(trace),
      self_(self),
      shed_queue_full_(metrics->RegisterCounter("admission.shed_queue_full")),
      shed_lag_(metrics->RegisterCounter("admission.shed_lag")),
      lag_gauge_(metrics->RegisterGauge("admission.lag_us")),
      queued_us_(metrics->RegisterHistogram("admission.queued_us")) {
  for (size_t c = 0; c < 3; ++c) {
    admitted_[c] = metrics->RegisterCounter(kAdmittedCounter[c]);
    processed_[c] = metrics->RegisterCounter(kProcessedCounter[c]);
    shed_[c] = metrics->RegisterCounter(kShedCounter[c]);
  }
}

AdmissionController::~AdmissionController() { Clear(); }

Duration AdmissionController::EstimatedWait() const {
  // What a message admitted now would wait: the residual service time of the
  // in-flight message plus one full service time per message already queued.
  size_t queued = 0;
  for (const auto& q : queues_) {
    queued += q.size();
  }
  Duration wait = config_.processing_cost * static_cast<int64_t>(queued);
  const TimePoint now = executor_->Now();
  if (busy_until_ > now) {
    wait += busy_until_ - now;
  }
  return wait;
}

Duration AdmissionController::LoadSignal() const { return std::max(lag_ewma_, EstimatedWait()); }

void AdmissionController::Trace(const Envelope& env, TraceEventKind kind, const char* detail,
                                uint64_t value) {
  if (trace_ == nullptr) {
    return;
  }
  const Packet* packet = std::get_if<Packet>(&env.body);
  if (packet == nullptr || !packet->traced()) {
    return;
  }
  TraceEvent ev;
  ev.trace_id = packet->trace_id;
  ev.at = executor_->Now();
  ev.node = self_;
  ev.kind = kind;
  ev.detail = detail;
  ev.value = value;
  trace_->Record(ev);
}

void AdmissionController::Shed(int cls, const char* signal, const Envelope& env) {
  shed_[cls].Increment();
  (*signal == 'q' ? shed_queue_full_ : shed_lag_).Increment();
  Trace(env, TraceEventKind::kDropped, kShedReason[cls]);
  if (!shedding_) {
    shedding_ = true;
    if (flight_ != nullptr) {
      flight_->Record(executor_->Now(), FlightEventKind::kShedOnset,
                      FlightSeverity::kWarning, kShedReason[cls], {},
                      static_cast<uint64_t>(std::max<int64_t>(LoadSignal().count(), 0)));
    }
  }
}

void AdmissionController::Admit(const NodeAddress& src, Envelope env) {
  if (!config_.enabled) {
    Trace(env, TraceEventKind::kAdmitted);
    dispatch_(src, env, Duration{0});
    return;
  }
  const int cls = ClassifyMessage(env);
  const size_t idx = static_cast<size_t>(cls);

  if (queues_[idx].size() >= config_.queue_capacity[idx]) {
    Shed(cls, "queue_full", env);
    return;
  }
  // Load shedding, lowest class first. Class 0 is exempt: soft-state
  // refreshes must land however busy the resolver is, or the name tree
  // expires under the very overload it is meant to survive.
  const Duration load = LoadSignal();
  if (cls == 2 && load >= kShedClass2Lag) {
    Shed(cls, "lag", env);
    return;
  }
  if (cls == 1 && load >= kShedClass1Lag) {
    Shed(cls, "lag", env);
    return;
  }

  if (shedding_ && cls > 0) {
    // A sheddable message made it through: the overload episode is over.
    shedding_ = false;
    if (flight_ != nullptr) {
      flight_->Record(executor_->Now(), FlightEventKind::kShedClear, FlightSeverity::kInfo,
                      "", {}, static_cast<uint64_t>(std::max<int64_t>(load.count(), 0)));
    }
  }
  admitted_[idx].Increment();
  Trace(env, TraceEventKind::kQueued, "", queues_[idx].size() + 1);
  queues_[idx].push_back(Pending{src, std::move(env), executor_->Now()});
  ScheduleDrain();
}

void AdmissionController::ScheduleDrain() {
  if (drain_task_ != kInvalidTaskId) {
    return;
  }
  // The modeled server picks up the next message as soon as it is free.
  const TimePoint when = std::max(busy_until_, executor_->Now());
  drain_task_ = executor_->ScheduleAt(when, [this] {
    drain_task_ = kInvalidTaskId;
    DrainOne();
  });
}

void AdmissionController::DrainOne() {
  // Strict priority: always the highest non-empty class.
  std::deque<Pending>* queue = nullptr;
  size_t idx = 0;
  for (size_t c = 0; c < queues_.size(); ++c) {
    if (!queues_[c].empty()) {
      queue = &queues_[c];
      idx = c;
      break;
    }
  }
  if (queue == nullptr) {
    return;
  }
  Pending msg = std::move(queue->front());
  queue->pop_front();

  const TimePoint now = executor_->Now();
  const Duration queued = now - msg.enqueued;
  const double lag_us = kLagEwmaAlpha * static_cast<double>(queued.count()) +
                        (1.0 - kLagEwmaAlpha) * static_cast<double>(lag_ewma_.count());
  lag_ewma_ = Duration(static_cast<int64_t>(lag_us));
  lag_gauge_.Set(lag_ewma_.count());
  processed_[idx].Increment();
  queued_us_.Record(static_cast<uint64_t>(std::max<int64_t>(queued.count(), 0)));
  Trace(msg.env, TraceEventKind::kAdmitted, "",
        static_cast<uint64_t>(std::max<int64_t>(queued.count(), 0)));

  busy_until_ = now + config_.processing_cost;
  dispatch_(msg.src, msg.env, queued);

  for (const auto& q : queues_) {
    if (!q.empty()) {
      ScheduleDrain();
      break;
    }
  }
}

void AdmissionController::Clear() {
  for (auto& q : queues_) {
    q.clear();
  }
  if (drain_task_ != kInvalidTaskId) {
    executor_->Cancel(drain_task_);
    drain_task_ = kInvalidTaskId;
  }
  busy_until_ = TimePoint{};
  lag_ewma_ = Duration{0};
  shedding_ = false;
}

}  // namespace ins
