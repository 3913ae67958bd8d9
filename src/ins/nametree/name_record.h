// Name-records: what a name-tree leaf points at (paper §2.3.1).
//
// A name-record carries the route to the next-hop INR, the address of the
// final destination, the overlay route metric (INR-to-INR round-trip latency
// based), the application-advertised end-node metric for intentional anycast
// and early binding, the AnnouncerID differentiating identical names from
// different applications, and the soft-state expiration time.

#ifndef INS_NAMETREE_NAME_RECORD_H_
#define INS_NAMETREE_NAME_RECORD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ins/common/clock.h"
#include "ins/common/node_address.h"

namespace ins {

// Uniquely identifies the announcing application instance. The paper
// constructs it from the announcer's IP address concatenated with its startup
// time, which allows multiple instances on one node; a small discriminator is
// added so a single application can announce several independent names.
struct AnnouncerId {
  uint32_t ip = 0;
  uint64_t start_time_us = 0;
  uint32_t discriminator = 0;

  bool IsValid() const { return ip != 0; }
  std::string ToString() const {
    return Ipv4ToString(ip) + "@" + std::to_string(start_time_us) + "#" +
           std::to_string(discriminator);
  }

  friend bool operator==(const AnnouncerId& a, const AnnouncerId& b) {
    return a.ip == b.ip && a.start_time_us == b.start_time_us &&
           a.discriminator == b.discriminator;
  }
  friend bool operator<(const AnnouncerId& a, const AnnouncerId& b) {
    if (a.ip != b.ip) {
      return a.ip < b.ip;
    }
    if (a.start_time_us != b.start_time_us) {
      return a.start_time_us < b.start_time_us;
    }
    return a.discriminator < b.discriminator;
  }
};

struct AnnouncerIdHash {
  size_t operator()(const AnnouncerId& a) const {
    uint64_t h = a.start_time_us * 0x9e3779b97f4a7c15ull;
    h ^= (static_cast<uint64_t>(a.ip) << 32) | a.discriminator;
    h *= 0xbf58476d1ce4e5b9ull;
    return static_cast<size_t>(h ^ (h >> 29));
  }
};

// A [port-number, transport-type] pair (paper §2.2): returned to clients for
// early binding so they can contact the service directly.
struct PortBinding {
  uint16_t port = 0;
  std::string transport;  // e.g. "udp", "tcp", "http", "rtp"

  friend bool operator==(const PortBinding& a, const PortBinding& b) {
    return a.port == b.port && a.transport == b.transport;
  }
};

// Where the announced service actually lives.
struct EndpointInfo {
  NodeAddress address;                 // final-destination node (client port)
  std::vector<PortBinding> bindings;   // service ports for early binding

  friend bool operator==(const EndpointInfo& a, const EndpointInfo& b) {
    return a.address == b.address && a.bindings == b.bindings;
  }
};

// Route learned through the overlay: forward towards the destination via
// `next_hop_inr`; `overlay_metric` accumulates INR-to-INR RTT along the path
// (0 means the destination is attached directly to this resolver).
struct RouteInfo {
  NodeAddress next_hop_inr;  // invalid => destination is locally attached
  double overlay_metric = 0.0;

  bool IsLocal() const { return !next_hop_inr.IsValid(); }

  friend bool operator==(const RouteInfo& a, const RouteInfo& b) {
    return a.next_hop_inr == b.next_hop_inr && a.overlay_metric == b.overlay_metric;
  }
};

class NameTree;

// One advertisement as known to one resolver. Owned by the NameTree; leaf
// value-nodes of the advertised specifier hold pointers to it.
struct NameRecord {
  AnnouncerId announcer;
  EndpointInfo endpoint;
  double app_metric = 0.0;  // application-advertised, lower is better
  RouteInfo route;
  TimePoint expires{0};

  // Monotonic per-announcer version stamped by the origin; resolvers ignore
  // stale (lower-versioned) updates that race ahead of fresh ones.
  uint64_t version = 0;

  std::string ToString() const;

  // Value copy with the tree-internal terminal pointers cleared: safe to keep
  // after the source tree mutates or is destroyed.
  NameRecord Detached() const {
    NameRecord copy = *this;
    copy.terminals_.clear();
    copy.slot_ = 0xFFFFFFFFu;
    return copy;
  }

 private:
  friend class NameTree;
  // Leaf value-nodes of this record's specifier, maintained by the tree for
  // removal and for GET-NAME extraction. Opaque outside the tree.
  std::vector<void*> terminals_;
  // Dense posting-index record id (posting_index.h), assigned by the owning
  // tree's index for the record's lifetime; 0xFFFFFFFF when unindexed.
  uint32_t slot_ = 0xFFFFFFFFu;
};

}  // namespace ins

#endif  // INS_NAMETREE_NAME_RECORD_H_
