// Unit tests for the paper's contribution: classification, dual queues,
// and aggregate assembly under every policy.
#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "core/aggregator.h"
#include "core/classifier.h"
#include "core/policy.h"
#include "core/queues.h"
#include "proto/frames.h"
#include "proto/packet.h"

namespace hydra::core {
namespace {

using proto::MacAddress;
using proto::MacSubframe;

proto::PacketPtr tcp_data(std::uint32_t payload = 1357) {
  return proto::make_tcp_packet(proto::Ipv4Address::for_node(0),
                              proto::Ipv4Address::for_node(2), 1, 2, 100, 200,
                              {.ack = true}, 21712, payload);
}

proto::PacketPtr pure_ack() {
  return proto::make_tcp_packet(proto::Ipv4Address::for_node(2),
                              proto::Ipv4Address::for_node(0), 2, 1, 200, 101,
                              {.ack = true}, 21712, 0);
}

proto::PacketPtr flood_pkt() {
  return proto::make_flood_packet(proto::Ipv4Address::for_node(1), 40);
}

proto::MacSubframe subframe(proto::PacketPtr pkt, std::uint32_t receiver) {
  proto::MacSubframe sf;
  sf.receiver = proto::MacAddress(static_cast<std::uint16_t>(receiver));
  sf.transmitter = proto::MacAddress::for_node(9);
  sf.source = proto::MacAddress::for_node(9);
  sf.packet = std::move(pkt);
  return sf;
}

// --- classifier -----------------------------------------------------------

TEST(Classifier, PureAcksBecomeBroadcastWhenEnabled) {
  TcpAckClassifier c(/*tcp_ack_as_broadcast=*/true);
  EXPECT_EQ(c.classify(*pure_ack(), false), TrafficClass::kTcpAck);
  EXPECT_EQ(c.acks_classified(), 1u);
}

TEST(Classifier, DisabledLeavesAcksUnicast) {
  TcpAckClassifier c(/*tcp_ack_as_broadcast=*/false);
  EXPECT_EQ(c.classify(*pure_ack(), false), TrafficClass::kUnicast);
  EXPECT_EQ(c.acks_classified(), 0u);
}

TEST(Classifier, DataAndControlSegmentsStayUnicast) {
  TcpAckClassifier c(true);
  EXPECT_EQ(c.classify(*tcp_data(), false), TrafficClass::kUnicast);
  const auto syn = proto::make_tcp_packet(proto::Ipv4Address::for_node(0),
                                        proto::Ipv4Address::for_node(1), 1, 2,
                                        0, 0, {.syn = true}, 0, 0);
  EXPECT_EQ(c.classify(*syn, false), TrafficClass::kUnicast);
  const auto fin = proto::make_tcp_packet(proto::Ipv4Address::for_node(0),
                                        proto::Ipv4Address::for_node(1), 1, 2,
                                        0, 0, {.ack = true, .fin = true}, 0,
                                        0);
  EXPECT_EQ(c.classify(*fin, false), TrafficClass::kUnicast);
}

TEST(Classifier, LinkBroadcastAlwaysBroadcast) {
  TcpAckClassifier c(false);
  EXPECT_EQ(c.classify(*flood_pkt(), true), TrafficClass::kBroadcast);
}

TEST(Classifier, CountsPacketsSeen) {
  TcpAckClassifier c(true);
  c.classify(*tcp_data(), false);
  c.classify(*pure_ack(), false);
  c.classify(*flood_pkt(), true);
  EXPECT_EQ(c.packets_seen(), 3u);
  EXPECT_EQ(c.acks_classified(), 1u);
}

// --- queues -----------------------------------------------------------------

TEST(Queues, FifoOrder) {
  SubframeQueue q(8);
  for (int i = 0; i < 3; ++i) {
    q.push(subframe(tcp_data(100 + i), 1),
           sim::TimePoint::at(sim::Duration::millis(i)));
  }
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop().subframe.packet->payload_bytes, 100u);
  EXPECT_EQ(q.pop().subframe.packet->payload_bytes, 101u);
  EXPECT_EQ(q.pop().subframe.packet->payload_bytes, 102u);
  EXPECT_TRUE(q.empty());
}

TEST(Queues, LimitDropsAndCounts) {
  SubframeQueue q(2);
  EXPECT_TRUE(q.push(subframe(tcp_data(), 1), {}));
  EXPECT_TRUE(q.push(subframe(tcp_data(), 1), {}));
  EXPECT_FALSE(q.push(subframe(tcp_data(), 1), {}));
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(q.size(), 2u);
}

// Interleaved pushes and pops drive the storage through growth, full
// drains and prefix compaction; at every step the queue must match a
// std::deque reference in size, front, drop count and iteration order.
TEST(Queues, InterleavedPushPopKeepsFifoOrderAndIteration) {
  constexpr std::size_t kLimit = 12;
  SubframeQueue q(kLimit);
  std::deque<std::uint32_t> ref;
  std::uint64_t ref_drops = 0;
  std::uint32_t next = 0;
  // A deterministic script: bursts of pushes (some past the limit) and
  // pops of varying length, 4000 operations in all.
  std::uint32_t lcg = 12345;
  for (int op = 0; op < 4000; ++op) {
    lcg = lcg * 1103515245u + 12345u;
    const bool push = (lcg >> 16) % 7 < (op % 200 < 100 ? 4u : 3u);
    if (push) {
      const std::uint32_t id = next++;
      const bool accepted = q.push(subframe(tcp_data(id), 1),
                                   sim::TimePoint::at(sim::Duration::micros(id)));
      EXPECT_EQ(accepted, ref.size() < kLimit) << "op " << op;
      if (ref.size() < kLimit) {
        ref.push_back(id);
      } else {
        ++ref_drops;
      }
    } else if (!ref.empty()) {
      EXPECT_EQ(q.pop().subframe.packet->payload_bytes, ref.front())
          << "op " << op;
      ref.pop_front();
    }
    ASSERT_EQ(q.size(), ref.size()) << "op " << op;
    ASSERT_EQ(q.empty(), ref.empty());
    EXPECT_EQ(q.drops(), ref_drops);
    if (ref.empty()) {
      EXPECT_EQ(q.front(), nullptr);
    } else {
      EXPECT_EQ(q.front()->subframe.packet->payload_bytes, ref.front());
      EXPECT_EQ(q.front()->enqueued,
                sim::TimePoint::at(sim::Duration::micros(ref.front())));
    }
    std::vector<std::uint32_t> seen;
    for (const auto& queued : q) seen.push_back(queued.subframe.packet->payload_bytes);
    EXPECT_EQ(seen, std::vector<std::uint32_t>(ref.begin(), ref.end()))
        << "op " << op;
  }
  EXPECT_GT(ref_drops, 0u) << "the script should overrun the limit";
  EXPECT_GT(next, 10 * kLimit) << "the script should cycle the storage";
}

TEST(Queues, FullQueueDropsAndCountsAfterCycling) {
  SubframeQueue q(3);
  // Cycle entries through so the head has moved before the queue fills.
  for (std::uint32_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(q.push(subframe(tcp_data(i), 1), {}));
    if (i % 2 == 0) q.pop();
  }
  ASSERT_EQ(q.size(), q.limit());
  const std::uint32_t head = q.front()->subframe.packet->payload_bytes;
  EXPECT_EQ(head, 3u);
  EXPECT_FALSE(q.push(subframe(tcp_data(100), 1), {}));
  EXPECT_FALSE(q.push(subframe(tcp_data(101), 1), {}));
  EXPECT_EQ(q.drops(), 2u);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.front()->subframe.packet->payload_bytes, head);
  q.pop();
  EXPECT_TRUE(q.push(subframe(tcp_data(102), 1), {}));
  EXPECT_EQ(q.drops(), 2u);
  std::vector<std::uint32_t> seen;
  for (const auto& queued : q) seen.push_back(queued.subframe.packet->payload_bytes);
  EXPECT_EQ(seen.back(), 102u);
}

TEST(Queues, OldestEnqueueAcrossBothQueues) {
  DualQueue dq(8);
  EXPECT_FALSE(dq.oldest_enqueue().has_value());
  dq.unicast().push(subframe(tcp_data(), 1),
                    sim::TimePoint::at(sim::Duration::millis(5)));
  dq.broadcast().push(subframe(pure_ack(), 1),
                      sim::TimePoint::at(sim::Duration::millis(3)));
  ASSERT_TRUE(dq.oldest_enqueue().has_value());
  EXPECT_EQ(*dq.oldest_enqueue(),
            sim::TimePoint::at(sim::Duration::millis(3)));
  EXPECT_EQ(dq.total_size(), 2u);
}

// --- aggregator: NA ---------------------------------------------------------

TEST(AggregatorNa, OneSubframePerFrame) {
  Aggregator agg(AggregationPolicy::na());
  DualQueue q(16);
  q.unicast().push(subframe(tcp_data(), 1), {});
  q.unicast().push(subframe(tcp_data(), 1), {});

  const auto f1 = agg.build(q);
  EXPECT_EQ(f1.subframe_count(), 1u);
  EXPECT_EQ(f1.unicast.size(), 1u);
  const auto f2 = agg.build(q);
  EXPECT_EQ(f2.subframe_count(), 1u);
  EXPECT_TRUE(q.empty());
}

TEST(AggregatorNa, ServesBroadcastFirst) {
  Aggregator agg(AggregationPolicy::na());
  DualQueue q(16);
  q.unicast().push(subframe(tcp_data(), 1), {});
  q.broadcast().push(subframe(flood_pkt(), 0xffff), {});

  const auto f = agg.build(q);
  EXPECT_EQ(f.broadcast.size(), 1u);
  EXPECT_TRUE(f.unicast.empty());
}

// --- aggregator: UA ---------------------------------------------------------

TEST(AggregatorUa, AggregatesSameDestination) {
  Aggregator agg(AggregationPolicy::ua());
  DualQueue q(16);
  for (int i = 0; i < 3; ++i) q.unicast().push(subframe(tcp_data(), 1), {});

  const auto f = agg.build(q);
  EXPECT_EQ(f.unicast.size(), 3u);  // 3 * 1464 = 4392 <= 5120
  EXPECT_TRUE(f.broadcast.empty());
  EXPECT_TRUE(q.empty());
}

TEST(AggregatorUa, StopsAtDestinationBoundary) {
  Aggregator agg(AggregationPolicy::ua());
  DualQueue q(16);
  q.unicast().push(subframe(tcp_data(), 1), {});
  q.unicast().push(subframe(tcp_data(), 1), {});
  q.unicast().push(subframe(tcp_data(), 2), {});  // different next hop

  const auto f = agg.build(q);
  EXPECT_EQ(f.unicast.size(), 2u);
  EXPECT_EQ(q.unicast().size(), 1u);
  EXPECT_EQ(q.unicast().front()->subframe.receiver, proto::MacAddress(2));
}

TEST(AggregatorUa, RespectsMaxAggregateBytes) {
  auto policy = AggregationPolicy::ua();
  policy.max_aggregate_bytes = 3000;  // fits two 1464 B subframes
  Aggregator agg(policy);
  DualQueue q(16);
  for (int i = 0; i < 4; ++i) q.unicast().push(subframe(tcp_data(), 1), {});

  const auto f = agg.build(q);
  EXPECT_EQ(f.unicast.size(), 2u);
  EXPECT_LE(f.total_wire_bytes(), 3000u);
}

TEST(AggregatorUa, OversizedLoneSubframeStillSent) {
  auto policy = AggregationPolicy::ua();
  policy.max_aggregate_bytes = 1000;  // smaller than one data frame
  Aggregator agg(policy);
  DualQueue q(16);
  q.unicast().push(subframe(tcp_data(), 1), {});

  const auto f = agg.build(q);
  EXPECT_EQ(f.unicast.size(), 1u);
  EXPECT_GT(f.total_wire_bytes(), 1000u);
}

TEST(AggregatorUa, BroadcastGoesOutAloneLikeNa) {
  Aggregator agg(AggregationPolicy::ua());
  DualQueue q(16);
  q.broadcast().push(subframe(flood_pkt(), 0xffff), {});
  q.broadcast().push(subframe(flood_pkt(), 0xffff), {});
  q.unicast().push(subframe(tcp_data(), 1), {});

  const auto f = agg.build(q);
  EXPECT_EQ(f.broadcast.size(), 1u);  // one at a time, never mixed
  EXPECT_TRUE(f.unicast.empty());
}

// --- aggregator: BA ---------------------------------------------------------

TEST(AggregatorBa, BroadcastPrecedesUnicast) {
  Aggregator agg(AggregationPolicy::ba());
  DualQueue q(16);
  q.broadcast().push(subframe(pure_ack(), 3), {});
  q.broadcast().push(subframe(pure_ack(), 3), {});
  q.unicast().push(subframe(tcp_data(), 1), {});

  const auto f = agg.build(q);
  EXPECT_EQ(f.broadcast.size(), 2u);
  EXPECT_EQ(f.unicast.size(), 1u);
  // The unicast receiver is independent of the broadcast subframes'
  // (unicast) addresses — the paper's bi-directional relay case.
  EXPECT_EQ(f.unicast_receiver(), proto::MacAddress(1));
  EXPECT_EQ(f.broadcast[0].receiver, proto::MacAddress(3));
}

TEST(AggregatorBa, MixedFrameRespectsMaxBytes) {
  auto policy = AggregationPolicy::ba();
  policy.max_aggregate_bytes = 5 * 1024;
  Aggregator agg(policy);
  DualQueue q(64);
  for (int i = 0; i < 4; ++i) q.broadcast().push(subframe(pure_ack(), 3), {});
  for (int i = 0; i < 4; ++i) q.unicast().push(subframe(tcp_data(), 1), {});

  const auto f = agg.build(q);
  // 4 ACKs (640) + 3 data (4392) = 5032 <= 5120; a 4th data would overflow.
  EXPECT_EQ(f.broadcast.size(), 4u);
  EXPECT_EQ(f.unicast.size(), 3u);
  EXPECT_LE(f.total_wire_bytes(), policy.max_aggregate_bytes);
  EXPECT_EQ(q.unicast().size(), 1u);
}

TEST(AggregatorBa, PureBroadcastFrameWhenNoUnicast) {
  Aggregator agg(AggregationPolicy::ba());
  DualQueue q(16);
  q.broadcast().push(subframe(pure_ack(), 3), {});
  q.broadcast().push(subframe(flood_pkt(), 0xffff), {});

  const auto f = agg.build(q);
  EXPECT_EQ(f.broadcast.size(), 2u);
  EXPECT_FALSE(f.has_unicast());
}

TEST(AggregatorBa, ForwardAggregationDisabledLimitsBothPortions) {
  auto policy = AggregationPolicy::ba();
  policy.forward_aggregation = false;  // paper §6.4.4 ablation
  Aggregator agg(policy);
  DualQueue q(16);
  for (int i = 0; i < 3; ++i) q.broadcast().push(subframe(pure_ack(), 3), {});
  for (int i = 0; i < 3; ++i) q.unicast().push(subframe(tcp_data(), 1), {});

  const auto f = agg.build(q);
  EXPECT_EQ(f.broadcast.size(), 1u);
  EXPECT_EQ(f.unicast.size(), 1u);
  EXPECT_EQ(q.broadcast().size(), 2u);
  EXPECT_EQ(q.unicast().size(), 2u);
}

// --- aggregator: retry ------------------------------------------------------

TEST(AggregatorRetry, KeepsBurstAndMarksRetryFlag) {
  Aggregator agg(AggregationPolicy::ba());
  DualQueue q(16);
  for (int i = 0; i < 2; ++i) q.unicast().push(subframe(tcp_data(), 1), {});
  auto first = agg.build(q);
  ASSERT_EQ(first.unicast.size(), 2u);

  // New ACKs arrive while the burst awaits retransmission.
  q.broadcast().push(subframe(pure_ack(), 3), {});
  const auto retry = agg.build_retry(q, first.unicast);
  EXPECT_EQ(retry.unicast.size(), 2u);
  EXPECT_EQ(retry.broadcast.size(), 1u);
  for (const auto& sf : retry.unicast) EXPECT_TRUE(sf.retry);
}

TEST(AggregatorRetry, NoBroadcastWhenBurstFillsFrame) {
  auto policy = AggregationPolicy::ba();
  policy.max_aggregate_bytes = 3 * 1464;
  Aggregator agg(policy);
  DualQueue q(16);
  for (int i = 0; i < 3; ++i) q.unicast().push(subframe(tcp_data(), 1), {});
  auto burst = agg.build(q);
  ASSERT_EQ(burst.unicast.size(), 3u);

  q.broadcast().push(subframe(pure_ack(), 3), {});
  const auto retry = agg.build_retry(q, burst.unicast);
  EXPECT_TRUE(retry.broadcast.empty());  // 160 B would not fit
  EXPECT_EQ(q.broadcast().size(), 1u);   // still queued
}

// --- delayed aggregation ----------------------------------------------------

TEST(DelayedAggregation, HoldsUntilThreshold) {
  Aggregator agg(AggregationPolicy::dba(3));
  DualQueue q(16);
  std::optional<sim::TimePoint> deadline;
  const auto t0 = sim::TimePoint::origin();

  EXPECT_FALSE(agg.may_transmit(q, t0, &deadline));  // empty

  q.unicast().push(subframe(tcp_data(), 1), t0);
  EXPECT_FALSE(agg.may_transmit(q, t0, &deadline));
  ASSERT_TRUE(deadline.has_value());
  EXPECT_EQ(*deadline, t0 + agg.policy().delay_timeout);

  q.unicast().push(subframe(tcp_data(), 1), t0);
  EXPECT_FALSE(agg.may_transmit(q, t0, &deadline));

  q.broadcast().push(subframe(pure_ack(), 3), t0);  // third subframe
  EXPECT_TRUE(agg.may_transmit(q, t0, &deadline));
}

TEST(DelayedAggregation, TimeoutReleasesHold) {
  Aggregator agg(AggregationPolicy::dba(3));
  DualQueue q(16);
  const auto t0 = sim::TimePoint::origin();
  q.unicast().push(subframe(tcp_data(), 1), t0);

  std::optional<sim::TimePoint> deadline;
  EXPECT_FALSE(agg.may_transmit(
      q, t0 + agg.policy().delay_timeout / 2, &deadline));
  EXPECT_TRUE(agg.may_transmit(
      q, t0 + agg.policy().delay_timeout, &deadline));
}

TEST(DelayedAggregation, DisabledTransmitsImmediately) {
  Aggregator agg(AggregationPolicy::ba());
  DualQueue q(16);
  q.unicast().push(subframe(tcp_data(), 1), {});
  EXPECT_TRUE(agg.may_transmit(q, sim::TimePoint::origin(), nullptr));
}

// --- policy factories ---------------------------------------------------------

TEST(Policy, FactoryConfigurations) {
  EXPECT_EQ(AggregationPolicy::na().mode, AggregationMode::kNone);
  EXPECT_FALSE(AggregationPolicy::na().tcp_ack_as_broadcast);
  EXPECT_EQ(AggregationPolicy::ua().mode, AggregationMode::kUnicast);
  EXPECT_FALSE(AggregationPolicy::ua().tcp_ack_as_broadcast);
  EXPECT_EQ(AggregationPolicy::ba().mode, AggregationMode::kBroadcast);
  EXPECT_TRUE(AggregationPolicy::ba().tcp_ack_as_broadcast);
  EXPECT_EQ(AggregationPolicy::dba().delay_min_subframes, 3u);
  EXPECT_EQ(AggregationPolicy::ba().max_aggregate_bytes, 5u * 1024);
}

}  // namespace
}  // namespace hydra::core
