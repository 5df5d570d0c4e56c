// On-demand route discovery (AODV-style), the control protocol the paper
// cites as the motivation for broadcast aggregation (§3.2: "dynamic
// source routing and ad-hoc on-demand distance vector routing protocols
// use broadcast frames for route discovery and maintenance").
//
// Protocol:
//  - discover(target): broadcast an RREQ carrying (origin, target,
//    request id, hop count).
//  - Every node hearing a new RREQ installs a reverse route to the
//    origin via the previous hop and re-broadcasts once (duplicate
//    (origin, id) pairs are suppressed; a hop cap bounds the flood).
//  - The target answers with a unicast RREP routed back along the
//    reverse path; every node forwarding the RREP installs the forward
//    route to the target via the hop it heard the RREP from.
//  - The origin's pending request resolves when the RREP arrives, or
//    fails on timeout (with bounded retries).
//
// RREQ broadcasts are exactly the traffic class the paper's broadcast
// aggregation accelerates: with BA enabled they ride in the broadcast
// portion of whatever data frames are already flowing.
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "net/node.h"
#include "sim/timer.h"
#include "util/recent_keys.h"

namespace hydra::net {

struct DiscoveryConfig {
  std::uint8_t max_hops = 8;
  sim::Duration request_timeout = sim::Duration::millis(500);
  unsigned max_retries = 2;
};

class RouteDiscovery {
 public:
  using ResultCallback = std::function<void(bool found)>;

  RouteDiscovery(sim::Simulation& simulation, Node& node,
                 DiscoveryConfig config = {});

  RouteDiscovery(const RouteDiscovery&) = delete;
  RouteDiscovery& operator=(const RouteDiscovery&) = delete;

  // Starts (or restarts) discovery of a route to `target`. The callback
  // fires once: true when an RREP installed the route, false after the
  // retries are exhausted. A route that already exists resolves
  // immediately.
  void discover(proto::Ipv4Address target, ResultCallback on_result);

  // Counters.
  std::uint64_t rreqs_sent() const { return rreqs_sent_; }
  std::uint64_t rreqs_relayed() const { return rreqs_relayed_; }
  std::uint64_t rreqs_suppressed() const { return rreqs_suppressed_; }
  std::uint64_t rreps_sent() const { return rreps_sent_; }
  std::uint64_t routes_learned() const { return routes_learned_; }

 private:
  struct Pending {
    proto::Ipv4Address target;
    std::uint16_t request_id;
    unsigned attempts = 0;
    ResultCallback on_result;
  };

  void handle_message(const proto::PacketPtr& packet, proto::MacAddress from);
  void handle_rreq(const proto::Packet& packet, proto::MacAddress from);
  void handle_rrep(const proto::Packet& packet, proto::MacAddress from);
  void send_rreq();
  void on_timeout();
  void learn_route(proto::Ipv4Address dst, proto::MacAddress via);
  bool seen_before(proto::Ipv4Address origin, std::uint16_t id);

  sim::Simulation& sim_;
  Node& node_;
  DiscoveryConfig config_;

  std::uint16_t next_request_id_ = 1;
  std::optional<Pending> pending_;
  sim::Timer timeout_timer_;

  // Duplicate-RREQ suppression: the last 512 distinct (origin, id) keys.
  util::RecentKeys<std::uint64_t, 512> seen_;

  std::uint64_t rreqs_sent_ = 0;
  std::uint64_t rreqs_relayed_ = 0;
  std::uint64_t rreqs_suppressed_ = 0;
  std::uint64_t rreps_sent_ = 0;
  std::uint64_t routes_learned_ = 0;
};

}  // namespace hydra::net
