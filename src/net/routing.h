// Static routing, as in the paper's experiments ("we used static routing
// to force the topologies"): destination address -> next-hop address.
//
// A scenario's static routes come from one immutable RouteOracle shared
// by all its nodes, which answers next-hop queries by node index. A
// node's RoutingTable stores only the overrides on top of it: routes
// learned by discovery and routes installed by hand.
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "proto/ip_address.h"
#include "proto/mac_address.h"

namespace hydra::net {

// Maps a node's IP to its link-layer address (nodes are numbered, so the
// mapping is algebraic — no ARP needed).
proto::MacAddress mac_for(proto::Ipv4Address ip);
// The inverse: the IP of the node owning link address `address`.
proto::Ipv4Address ip_for(proto::MacAddress address);

// A whole scenario's static routes, by node index. Implementations never
// change after construction.
class RouteOracle {
 public:
  virtual ~RouteOracle() = default;
  // Node `from`'s next hop toward node `to`; `to` itself when delivery
  // is direct, and when from == to.
  virtual std::uint32_t next_hop(std::uint32_t from, std::uint32_t to) const = 0;
};

class RoutingTable {
 public:
  // Answers static routes from `oracle` as node `self` of `node_count`.
  // The oracle must outlive the table.
  void use_oracle(const RouteOracle& oracle, std::uint32_t self,
                  std::uint32_t node_count);

  // Installs or replaces the override `dst -> next_hop`; it takes
  // precedence over the oracle's route.
  void add_route(proto::Ipv4Address dst, proto::Ipv4Address next_hop);

  // Next hop toward `dst`: an override if present, else the oracle's
  // route, otherwise `dst` itself (direct neighbour delivery).
  proto::Ipv4Address next_hop(proto::Ipv4Address dst) const;

  bool has_route(proto::Ipv4Address dst) const;
  // Number of overrides; the oracle's routes are not stored per node.
  std::size_t size() const { return overrides_.size(); }

 private:
  std::optional<proto::Ipv4Address> oracle_route(proto::Ipv4Address dst) const;

  const RouteOracle* oracle_ = nullptr;
  std::uint32_t self_ = 0;
  std::uint32_t node_count_ = 0;
  std::map<proto::Ipv4Address, proto::Ipv4Address> overrides_;
};

}  // namespace hydra::net
