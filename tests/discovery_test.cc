// Route discovery (AODV-style RREQ/RREP) over forced multi-hop
// topologies, plus the MAC neighbour filter that forces them.
#include <gtest/gtest.h>

#include "app/ping.h"
#include "app/udp_sink.h"
#include "net/discovery.h"
#include "net/node.h"
#include "topo/scenario.h"
#include "transport/host.h"

namespace hydra::net {
namespace {

using topo::Scenario;

// A chain of n nodes where the MAC whitelist only admits adjacent
// neighbours — multi-hop even though every radio hears every frame.
Scenario filtered_chain(std::size_t n) {
  auto spec = topo::ScenarioSpec::chain(n);
  spec.neighbor_whitelist = true;
  spec.static_routes = false;
  spec.route_discovery = true;
  return Scenario::build(spec, 5);
}

TEST(NeighborFilter, NonNeighborFramesAreNotDelivered) {
  auto chain = filtered_chain(3);
  // Node 0 -> node 2 directly: every radio hears it, but node 2's MAC
  // whitelist only admits node 1.
  int delivered = 0;
  chain.node(2).stack().on_broadcast = [&](const proto::PacketPtr&) {
    ++delivered;
  };
  chain.node(0).mac().enqueue(proto::make_flood_packet(proto::Ipv4Address::for_node(0),
                                                40),
                              proto::MacAddress::broadcast(),
                              proto::MacAddress::for_node(0));
  chain.run_for(sim::Duration::millis(200));
  EXPECT_EQ(delivered, 0);  // two hops away: filtered
}

TEST(Discovery, FindsTwoHopRoute) {
  auto chain = filtered_chain(3);
  bool found = false;
  chain.discovery(0).discover(proto::Ipv4Address::for_node(2),
                              [&](bool ok) { found = ok; });
  chain.run_for(sim::Duration::seconds(2));

  EXPECT_TRUE(found);
  // Forward route at the origin goes via the relay.
  EXPECT_EQ(chain.node(0).routes().next_hop(proto::Ipv4Address::for_node(2)),
            proto::Ipv4Address::for_node(1));
  // The relay learned both directions.
  EXPECT_EQ(chain.node(1).routes().next_hop(proto::Ipv4Address::for_node(0)),
            proto::Ipv4Address::for_node(0));
  // The target learned the reverse route to the origin via the relay.
  EXPECT_EQ(chain.node(2).routes().next_hop(proto::Ipv4Address::for_node(0)),
            proto::Ipv4Address::for_node(1));
}

TEST(Discovery, FindsThreeHopRouteAndCarriesTraffic) {
  auto chain = filtered_chain(4);
  bool found = false;
  chain.discovery(0).discover(proto::Ipv4Address::for_node(3),
                              [&](bool ok) { found = ok; });
  chain.run_for(sim::Duration::seconds(3));
  ASSERT_TRUE(found);

  // The discovered route carries real traffic end to end.
  app::UdpSinkApp sink(chain.sim(), chain.node(3), 9001);
  transport::mux_of(chain.node(0)).open_udp(9000).send_to(
      {proto::Ipv4Address::for_node(3), 9001}, 500);
  chain.run_for(sim::Duration::seconds(2));
  EXPECT_EQ(sink.packets(), 1u);
}

TEST(Discovery, DuplicateRreqsAreSuppressed) {
  auto chain = filtered_chain(4);
  bool found = false;
  chain.discovery(0).discover(proto::Ipv4Address::for_node(3),
                              [&](bool ok) { found = ok; });
  chain.run_for(sim::Duration::seconds(3));
  ASSERT_TRUE(found);
  // Each relay re-broadcasts a given request at most once.
  EXPECT_LE(chain.discovery(1).rreqs_relayed(), 1u);
  EXPECT_LE(chain.discovery(2).rreqs_relayed(), 1u);
  // The relays heard the origin's flood back from their own relays and
  // suppressed it.
  EXPECT_GT(chain.discovery(1).rreqs_suppressed() +
                chain.discovery(2).rreqs_suppressed(),
            0u);
}

TEST(Discovery, UnreachableTargetFailsAfterRetries) {
  auto chain = filtered_chain(3);
  bool done = false, found = true;
  // 10.0.0.99 does not exist.
  chain.discovery(0).discover(proto::Ipv4Address::from_octets(10, 0, 0, 99),
                              [&](bool ok) {
                                done = true;
                                found = ok;
                              });
  chain.run_for(sim::Duration::seconds(5));
  EXPECT_TRUE(done);
  EXPECT_FALSE(found);
  // Initial attempt + 2 retries.
  EXPECT_EQ(chain.discovery(0).rreqs_sent(), 3u);
}

TEST(Discovery, ExistingRouteResolvesImmediately) {
  auto chain = filtered_chain(3);
  chain.node(0).routes().add_route(proto::Ipv4Address::for_node(2),
                                   proto::Ipv4Address::for_node(1));
  bool found = false;
  chain.discovery(0).discover(proto::Ipv4Address::for_node(2),
                              [&](bool ok) { found = ok; });
  EXPECT_TRUE(found);  // synchronous: no flood needed
  EXPECT_EQ(chain.discovery(0).rreqs_sent(), 0u);
}

// Static routes and discovery both on: the scenario's route oracle
// answers has_route, and routes discovery learns or a test installs
// override the oracle's hop.
Scenario routed_discovery(topo::ScenarioSpec spec) {
  spec.neighbor_whitelist = true;
  spec.route_discovery = true;
  return Scenario::build(spec, 5);
}

TEST(Discovery, StaticRouteResolvesWithoutAFlood) {
  auto chain = routed_discovery(topo::ScenarioSpec::chain(4));
  const auto target = proto::Ipv4Address::for_node(3);
  EXPECT_TRUE(chain.node(0).routes().has_route(target));
  bool found = false;
  chain.discovery(0).discover(target, [&](bool ok) { found = ok; });
  EXPECT_TRUE(found);  // synchronous: no flood needed
  EXPECT_EQ(chain.discovery(0).rreqs_sent(), 0u);

  // A hand-installed route overrides the oracle's hop (via node 1).
  auto& routes = chain.node(0).routes();
  EXPECT_EQ(routes.next_hop(target), proto::Ipv4Address::for_node(1));
  EXPECT_EQ(routes.size(), 0u);
  routes.add_route(target, proto::Ipv4Address::for_node(2));
  EXPECT_EQ(routes.next_hop(target), proto::Ipv4Address::for_node(2));
  EXPECT_EQ(routes.size(), 1u);
}

TEST(Discovery, LearnedRouteOverridesStaticRoute) {
  // Ring 0-1-2-3: node 0's static route to node 2 takes the clockwise
  // tie, via node 1.
  auto ring = routed_discovery(topo::ScenarioSpec::ring(4));
  const auto origin = proto::Ipv4Address::for_node(2);
  ASSERT_EQ(ring.node(0).routes().next_hop(origin),
            proto::Ipv4Address::for_node(1));
  // Node 3 relays a route request of node 2's, exactly as its engine
  // relays one: node 0 learns the reverse route to node 2 via node 3.
  proto::DiscoveryHeader h;
  h.kind = proto::DiscoveryHeader::Kind::kRreq;
  h.request_id = 1;
  h.origin = origin;
  h.target = proto::Ipv4Address::from_octets(10, 0, 0, 99);
  h.hop_count = 1;
  ring.node(3).stack().send(proto::make_discovery_packet(
      origin, proto::Ipv4Address::broadcast(), h, 7));
  ring.run_for(sim::Duration::millis(200));
  EXPECT_GT(ring.discovery(0).routes_learned(), 0u);
  EXPECT_EQ(ring.node(0).routes().next_hop(origin),
            proto::Ipv4Address::for_node(3));
}

TEST(Discovery, HopLimitBoundsTheFlood) {
  auto chain = filtered_chain(4);
  // Give node 0 a discovery engine with a 1-hop cap: the RREQ can reach
  // node 1 but will not be relayed further.
  DiscoveryConfig dc;
  dc.max_hops = 1;
  dc.request_timeout = sim::Duration::millis(300);
  dc.max_retries = 0;
  RouteDiscovery limited(chain.sim(), chain.node(0), dc);
  // (Replaces the default engine's handler on this node.)
  bool done = false, found = true;
  limited.discover(proto::Ipv4Address::for_node(3), [&](bool ok) {
    done = true;
    found = ok;
  });
  chain.run_for(sim::Duration::seconds(2));
  EXPECT_TRUE(done);
  EXPECT_FALSE(found);
}

TEST(Ping, RoundTripAcrossRelay) {
  auto chain = filtered_chain(3);
  // Static routes (discovery tested elsewhere).
  chain.node(0).routes().add_route(proto::Ipv4Address::for_node(2),
                                   proto::Ipv4Address::for_node(1));
  chain.node(2).routes().add_route(proto::Ipv4Address::for_node(0),
                                   proto::Ipv4Address::for_node(1));

  app::PingResponderApp responder(chain.node(2), 9200);
  app::PingConfig pc;
  pc.destination = {proto::Ipv4Address::for_node(2), 9200};
  pc.count = 5;
  pc.interval = sim::Duration::millis(50);
  app::PingApp ping(chain.sim(), chain.node(0), pc);
  ping.start();
  chain.run_for(sim::Duration::seconds(5));

  EXPECT_EQ(ping.sent(), 5u);
  EXPECT_EQ(ping.received(), 5u);
  EXPECT_EQ(responder.echoed(), 5u);
  EXPECT_EQ(ping.loss_fraction(), 0.0);
  // Two 160 B hops each way plus MAC overhead: single-digit ms at least.
  EXPECT_GT(ping.avg_rtt().millis_f(), 2.0);
  EXPECT_LT(ping.avg_rtt().millis_f(), 100.0);
  EXPECT_LE(ping.min_rtt(), ping.avg_rtt());
  EXPECT_LE(ping.avg_rtt(), ping.max_rtt());
}

TEST(Ping, TimeoutCountsLostProbes) {
  auto chain = filtered_chain(3);
  // No routes installed: probes die at node 0's next-hop lookup (sent to
  // the "direct" fallback, which the whitelist filters).
  app::PingConfig pc;
  pc.destination = {proto::Ipv4Address::for_node(2), 9200};
  pc.count = 3;
  pc.timeout = sim::Duration::millis(100);
  pc.interval = sim::Duration::millis(50);
  app::PingApp ping(chain.sim(), chain.node(0), pc);
  ping.start();
  chain.run_for(sim::Duration::seconds(2));

  EXPECT_EQ(ping.sent(), 3u);
  EXPECT_EQ(ping.received(), 0u);
  EXPECT_EQ(ping.timed_out(), 3u);
  EXPECT_EQ(ping.loss_fraction(), 1.0);
}

TEST(DiscoveryWire, HeaderRoundTrip) {
  proto::DiscoveryHeader h;
  h.kind = proto::DiscoveryHeader::Kind::kRrep;
  h.hop_count = 3;
  h.request_id = 777;
  h.origin = proto::Ipv4Address::for_node(0);
  h.target = proto::Ipv4Address::for_node(3);
  const auto pkt = proto::make_discovery_packet(proto::Ipv4Address::for_node(3),
                                         proto::Ipv4Address::for_node(0), h);
  EXPECT_EQ(pkt->wire_size(),
            proto::Ipv4Header::kWireBytes + proto::DiscoveryHeader::kWireBytes);
  const auto bytes = pkt->serialize();
  BufferReader r(bytes);
  const auto parsed = proto::Packet::parse(r);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->discovery.has_value());
  EXPECT_EQ(parsed->discovery->kind, proto::DiscoveryHeader::Kind::kRrep);
  EXPECT_EQ(parsed->discovery->hop_count, 3);
  EXPECT_EQ(parsed->discovery->request_id, 777);
  EXPECT_EQ(parsed->discovery->origin, proto::Ipv4Address::for_node(0));
  EXPECT_EQ(parsed->discovery->target, proto::Ipv4Address::for_node(3));
}

}  // namespace
}  // namespace hydra::net
