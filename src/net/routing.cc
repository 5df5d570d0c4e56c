#include "net/routing.h"

#include "util/assert.h"

namespace hydra::net {

namespace {

// Every node address is 10.0.0.x (see Ipv4Address::for_node).
constexpr std::uint32_t kNodeSubnet = 0x0a000000u;

// ALIAS RULE — deleted with the 8-bit addressing (ROADMAP item 1).
// Ipv4Address::for_node keeps only 8 bits of the node index, so 10.0.0.x
// names every node j with j ≡ x−1 (mod 256). Static routes used to be
// installed into a per-node map for j ascending, last write winning, so
// the route for 10.0.0.x is the oracle's hop for the highest such
// j ≠ self whose hop is not direct; with no such j, delivery is direct.
std::optional<proto::Ipv4Address> static_route(const RouteOracle& oracle,
                                               std::uint32_t self,
                                               std::uint32_t node_count,
                                               proto::Ipv4Address dst) {
  if ((dst.value() & ~0xffu) != kNodeSubnet) return std::nullopt;
  const std::uint32_t low = (dst.value() + 0xff) & 0xff;  // x − 1 (mod 256)
  if (low >= node_count) return std::nullopt;
  // The oracle answers j itself for j == self, so self is skipped too.
  for (std::uint32_t j = low + (node_count - 1 - low) / 256 * 256;; j -= 256) {
    if (const std::uint32_t hop = oracle.next_hop(self, j); hop != j) {
      return proto::Ipv4Address::for_node(hop);
    }
    if (j < 256) return std::nullopt;
  }
}

}  // namespace

proto::MacAddress mac_for(proto::Ipv4Address ip) {
  if (ip.is_broadcast()) return proto::MacAddress::broadcast();
  // Node i has IP 10.0.0.(i+1) and MAC address (i+1).
  return proto::MacAddress(static_cast<std::uint16_t>(ip.value() & 0xff));
}

proto::Ipv4Address ip_for(proto::MacAddress address) {
  HYDRA_ASSERT(!address.is_broadcast());
  // Node i has MAC (i+1) and IP 10.0.0.(i+1).
  return proto::Ipv4Address::from_octets(
      10, 0, 0, static_cast<std::uint8_t>(address.value() & 0xff));
}

void RoutingTable::use_oracle(const RouteOracle& oracle, std::uint32_t self,
                              std::uint32_t node_count) {
  HYDRA_ASSERT(self < node_count);
  oracle_ = &oracle;
  self_ = self;
  node_count_ = node_count;
}

void RoutingTable::add_route(proto::Ipv4Address dst, proto::Ipv4Address next_hop) {
  overrides_[dst] = next_hop;
}

std::optional<proto::Ipv4Address> RoutingTable::oracle_route(
    proto::Ipv4Address dst) const {
  if (oracle_ == nullptr) return std::nullopt;
  return static_route(*oracle_, self_, node_count_, dst);
}

proto::Ipv4Address RoutingTable::next_hop(proto::Ipv4Address dst) const {
  if (const auto it = overrides_.find(dst); it != overrides_.end()) {
    return it->second;
  }
  return oracle_route(dst).value_or(dst);
}

bool RoutingTable::has_route(proto::Ipv4Address dst) const {
  return overrides_.contains(dst) || oracle_route(dst).has_value();
}

}  // namespace hydra::net
