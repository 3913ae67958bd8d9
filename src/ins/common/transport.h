// Datagram transport abstraction.
//
// Every endpoint in the system — INRs, clients, the DSR — owns one Transport
// bound to a NodeAddress. Implementations: sim::Network sockets (virtual
// time, deterministic; the tier-1 suite and the paper-figure benches) and
// BatchedUdpTransport (real loopback UDP sockets; the runnable examples, the
// realnet tier and the socket benches).

#ifndef INS_COMMON_TRANSPORT_H_
#define INS_COMMON_TRANSPORT_H_

#include <functional>

#include "ins/common/bytes.h"
#include "ins/common/clock.h"
#include "ins/common/node_address.h"
#include "ins/common/status.h"

namespace ins {

class MetricsRegistry;

class Transport {
 public:
  using ReceiveHandler = std::function<void(const NodeAddress& source, const Bytes& data)>;

  virtual ~Transport() = default;

  // Best-effort datagram send; like UDP, delivery is not guaranteed.
  virtual Status Send(const NodeAddress& destination, const Bytes& data) = 0;

  // Installs the receive callback. At most one handler at a time.
  virtual void SetReceiveHandler(ReceiveHandler handler) = 0;

  virtual NodeAddress local_address() const = 0;

  // Re-points the transport's `transport.*` instrumentation at the owning
  // node's registry, so drops and batch sizes show up beside the node's own
  // metrics. Default: the transport keeps its private registry (sim sockets
  // have nothing to report).
  virtual void AttachMetrics(MetricsRegistry* metrics) { (void)metrics; }

  // No-op; nothing in the library calls it. It stays only because the
  // inr_hop benchmark's tracing transport (inr_hop/src/hop_tracer.h)
  // overrides it; delete it together with that override.
  virtual void OnLoadSignal(Duration load) { (void)load; }
};

}  // namespace ins

#endif  // INS_COMMON_TRANSPORT_H_
