// Host-performance benchmark of the hydra simulator.
//
// One process runs one workload for a host-time budget and prints one
// JSON object as its last line of stdout; perfbench/run.py builds this
// binary, checks the metric names and units against BENCHMARK.json and
// reduces the object to the benchmark's result line.
//
//   perfbench --workload paper_tcp|flood_4k|mesh_tcp --seed N
//             --seconds S --trace 0|1 [--size full|smoke] [--commit ID]
//
// --trace 0 repeats the untraced workload until S host seconds have
// passed and reports the end-to-end metrics as medians over the
// repetitions. --trace 1 alternates an untraced and a traced repetition
// and reports the per-layer metrics: deterministic counts read from
// public getters, plus a host-time split measured from outside the
// simulator by wrapping the public std::function upcall hooks (spans)
// and by driving the event loop one Scheduler::step() at a time.
//
// Every workload uses the defaults a user gets from the spec builders:
// kAuto medium and scheduler policies (serial loop, culled medium at
// N >= 32) and static routes on.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "app/experiment.h"
#include "app/file_transfer.h"
#include "app/flood.h"
#include "core/policy.h"
#include "proto/mode.h"
#include "proto/packet.h"
#include "topo/experiment.h"
#include "topo/scenario.h"
#include "transport/host.h"
#include "transport/mux.h"
#include "util/alloc_stats.h"
#include "util/pool.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace hydra;

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ------------------------------------------------------------ workloads

// Bulk flows never finish: no 120 s transfer moves a gigabyte.
constexpr std::uint64_t kBulkBytes = 1'000'000'000;

enum class Goodput {
  kMeanFlow,   // mean per-flow TCP throughput (the paper's figures)
  kAggregate,  // application bytes per simulated second
};

// The generated input of one workload: the experiment specs the
// simulator receives, and how the benchmark reads their outcome.
struct Workload {
  std::vector<topo::ExperimentConfig> runs;
  Goodput goodput = Goodput::kAggregate;
  // Every flow must deliver exactly its file (paper_tcp).
  bool flows_must_complete = false;
  // Runs compared against app::run_experiment, one per topology.
  std::vector<std::size_t> parity_runs;
};

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  // splitmix64 finaliser: distinct, well-spread per-experiment seeds.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// The paper's TCP matrix: {two_hop, three_hop, fig6_star} x {NA, UA, BA,
// DBA} x the four paper rates, one file per sender, configured as the
// figure benches configure it (bench_common.h's tcp_config).
Workload paper_tcp(std::uint64_t seed, bool smoke) {
  const std::vector<topo::ScenarioSpec> topologies = {
      topo::ScenarioSpec::two_hop(), topo::ScenarioSpec::three_hop(),
      topo::ScenarioSpec::fig6_star()};
  std::vector<core::AggregationPolicy> schemes = {
      core::AggregationPolicy::na(), core::AggregationPolicy::ua(),
      core::AggregationPolicy::ba(), core::AggregationPolicy::dba()};
  std::vector<std::size_t> modes = {0, 1, 2, 3};
  if (smoke) {
    schemes = {core::AggregationPolicy::ba()};
    modes = {0};
  }
  Workload w;
  w.goodput = Goodput::kMeanFlow;
  w.flows_must_complete = true;
  for (const auto& topology : topologies) {
    w.parity_runs.push_back(w.runs.size());
    for (const auto& scheme : schemes) {
      for (const std::size_t mode : modes) {
        topo::ExperimentConfig cfg;
        cfg.scenario = topology;
        cfg.scenario.node.policy = scheme;
        cfg.scenario.node.unicast_mode = proto::mode_by_index(mode);
        cfg.scenario.node.broadcast_mode = proto::mode_by_index(mode);
        cfg.traffic = topo::TrafficKind::kTcp;
        cfg.tcp_file_bytes = smoke ? 20'000 : 1'000'000;
        cfg.seed = mix_seed(seed, w.runs.size());
        w.runs.push_back(cfg);
      }
    }
  }
  return w;
}

// A 64 x 64 grid at 10 m spacing where every node floods 40 B every
// 250 ms, phases staggered modulo 100 as in bench_ext_scale_10k.
Workload flood_4k(std::uint64_t seed, bool smoke) {
  const std::size_t side = smoke ? 8 : 64;
  topo::ExperimentConfig cfg;
  cfg.scenario = topo::ScenarioSpec::grid(side, side);
  cfg.scenario.spacing_m = 10.0;
  cfg.scenario.sessions.clear();
  cfg.flooding = true;
  cfg.flood_interval = sim::Duration::millis(250);
  cfg.flood_payload_bytes = 40;
  cfg.max_sim_time = sim::Duration::seconds(smoke ? 1 : 4);
  cfg.seed = seed;
  Workload w;
  w.runs.push_back(cfg);
  return w;
}

// A 20 x 20 grid at 10 m spacing with 16 bulk TCP flows: sender k is
// node 25k and its receiver sits 2 rows and 2 columns away (+42 mod 400).
// The grid straddles the 255-node address boundary on purpose.
Workload mesh_tcp(std::uint64_t seed, bool smoke) {
  const std::size_t side = smoke ? 8 : 20;
  const std::size_t nodes = side * side;
  const std::size_t flows = smoke ? 4 : 16;
  const std::size_t stride = nodes / flows;
  const std::size_t offset = 2 * side + 2;
  topo::ExperimentConfig cfg;
  cfg.scenario = topo::ScenarioSpec::grid(side, side);
  cfg.scenario.spacing_m = 10.0;
  cfg.scenario.sessions.clear();
  for (std::size_t k = 0; k < flows; ++k) {
    cfg.scenario.sessions.push_back(
        {static_cast<std::uint32_t>(k * stride),
         static_cast<std::uint32_t>((k * stride + offset) % nodes)});
  }
  cfg.traffic = topo::TrafficKind::kTcp;
  cfg.tcp_file_bytes = kBulkBytes;
  cfg.max_sim_time = sim::Duration::seconds(smoke ? 10 : 120);
  cfg.seed = seed;
  Workload w;
  w.runs.push_back(cfg);
  return w;
}

// ------------------------------------------------------------- results

struct Flow {
  std::uint64_t bytes = 0;       // delivered to the receiving application
  bool completed = false;        // whole file delivered (file transfers)
  double throughput_mbps = 0.0;  // run_experiment's per-flow figure
  friend bool operator==(const Flow&, const Flow&) = default;
};

void add(mac::MacStats& into, const mac::MacStats& s) {
  into.data_frames_tx += s.data_frames_tx;
  into.broadcast_subframes_tx += s.broadcast_subframes_tx;
  into.unicast_subframes_tx += s.unicast_subframes_tx;
  into.data_bytes_tx += s.data_bytes_tx;
  into.mac_header_bytes_tx += s.mac_header_bytes_tx;
  into.rts_tx += s.rts_tx;
  into.cts_tx += s.cts_tx;
  into.ack_tx += s.ack_tx;
  into.retries += s.retries;
  into.retry_drops += s.retry_drops;
  into.queue_drops += s.queue_drops;
  into.delivered_up += s.delivered_up;
  into.dropped_not_for_us += s.dropped_not_for_us;
  into.crc_failures += s.crc_failures;
  into.aggregate_discards += s.aggregate_discards;
  into.duplicates_suppressed += s.duplicates_suppressed;
  into.acks_rx += s.acks_rx;
  into.collisions += s.collisions;
  into.time.payload += s.time.payload;
  into.time.mac_header += s.time.mac_header;
  into.time.phy_header += s.time.phy_header;
  into.time.control += s.time.control;
  into.time.ifs += s.time.ifs;
  into.time.backoff += s.time.backoff;
}

auto key(const mac::MacStats& s) {
  return std::make_tuple(
      s.data_frames_tx, s.broadcast_subframes_tx, s.unicast_subframes_tx,
      s.data_bytes_tx, s.mac_header_bytes_tx, s.rts_tx, s.cts_tx, s.ack_tx,
      s.retries, s.retry_drops, s.queue_drops, s.delivered_up,
      s.dropped_not_for_us, s.crc_failures, s.aggregate_discards,
      s.duplicates_suppressed, s.acks_rx, s.collisions, s.time.payload,
      s.time.mac_header, s.time.phy_header, s.time.control, s.time.ifs,
      s.time.backoff);
}

// Deterministic work counts, summed over nodes (and over the simulations
// of a workload). Two runs of the same specs must agree on every field.
struct Counts {
  std::uint64_t events = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t rx_starts = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t phy_collisions = 0;
  std::uint64_t route_entries = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t header_clones = 0;
  std::uint64_t ttl_drops = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_delayed = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t app_bytes = 0;
  std::uint64_t flood_rx = 0;
  std::int64_t sim_ns = 0;
  mac::MacStats mac;

  void add(const Counts& c) {
    events += c.events;
    transmissions += c.transmissions;
    deliveries += c.deliveries;
    rx_starts += c.rx_starts;
    frames_received += c.frames_received;
    phy_collisions += c.phy_collisions;
    route_entries += c.route_entries;
    forwarded += c.forwarded;
    header_clones += c.header_clones;
    ttl_drops += c.ttl_drops;
    acks_sent += c.acks_sent;
    acks_delayed += c.acks_delayed;
    retransmits += c.retransmits;
    timeouts += c.timeouts;
    app_bytes += c.app_bytes;
    flood_rx += c.flood_rx;
    sim_ns += c.sim_ns;
    ::add(mac, c.mac);
  }
  friend bool operator==(const Counts& a, const Counts& b) {
    return std::tie(a.events, a.transmissions, a.deliveries, a.rx_starts,
                    a.frames_received, a.phy_collisions, a.route_entries,
                    a.forwarded, a.header_clones, a.ttl_drops, a.acks_sent,
                    a.acks_delayed, a.retransmits, a.timeouts, a.app_bytes,
                    a.flood_rx, a.sim_ns) ==
               std::tie(b.events, b.transmissions, b.deliveries, b.rx_starts,
                        b.frames_received, b.phy_collisions, b.route_entries,
                        b.forwarded, b.header_clones, b.ttl_drops,
                        b.acks_sent, b.acks_delayed, b.retransmits,
                        b.timeouts, b.app_bytes, b.flood_rx, b.sim_ns) &&
           key(a.mac) == key(b.mac);
  }
};

class Tracer;

// ------------------------------------------------------------ instance

// One simulation of one spec, built and driven through the public
// topo::Scenario and app:: APIs. The constructor is the set-up (build,
// attach, start); run() is the event loop. For TCP it mirrors
// app::run_experiment step for step, which the parity check pins; flood
// phases are staggered modulo 100 as in bench_ext_scale_10k, so offered
// load grows with N instead of igniting one node per 17 ms.
class Instance {
 public:
  explicit Instance(const topo::ExperimentConfig& cfg);
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  topo::Scenario& scenario() { return scenario_; }
  double build_s() const { return build_s_; }
  // Session endpoints; their transport muxes exist once set-up ends.
  const std::vector<std::uint32_t>& endpoints() const { return endpoints_; }

  // Runs to completion: untraced through Simulation::run_until, or one
  // event at a time through `tracer`.
  void run(Tracer* tracer, std::vector<double>* slice_s = nullptr);

  Counts counts();
  std::vector<Flow> flows() const;
  std::vector<mac::MacStats> node_stats();

 private:
  static topo::Scenario timed_build(const topo::ExperimentConfig& cfg,
                                    double& seconds);
  bool all_complete() const;
  void on_flood(const proto::Packet& packet);

  topo::ExperimentConfig cfg_;
  double build_s_ = 0.0;
  topo::Scenario scenario_;
  std::vector<std::uint32_t> endpoints_;
  std::vector<std::unique_ptr<app::FloodApp>> flooders_;
  std::vector<std::unique_ptr<app::FileReceiverApp>> receivers_;
  std::vector<std::unique_ptr<app::FileSenderApp>> senders_;
  std::vector<std::size_t> flows_at_;
  // Flood deliveries, attributed to the transmitting node through the
  // link-layer transmitter of the subframe that carried them.
  proto::MacAddress last_transmitter_;
  std::vector<std::uint64_t> flood_bytes_from_;
  std::uint64_t flood_rx_ = 0;
  std::uint64_t flood_bytes_ = 0;
};

topo::Scenario Instance::timed_build(const topo::ExperimentConfig& cfg,
                                     double& seconds) {
  const auto start = Clock::now();
  auto scenario = topo::Scenario::build(cfg.scenario, cfg.seed);
  seconds = seconds_since(start);
  return scenario;
}

Instance::Instance(const topo::ExperimentConfig& cfg)
    : cfg_(cfg), scenario_(timed_build(cfg, build_s_)) {
  constexpr proto::Port kTcpPort = 5001;  // as in run_experiment
  auto& simulation = scenario_.sim();
  const std::size_t node_count = scenario_.size();

  if (cfg.flooding) {
    flood_bytes_from_.assign(node_count, 0);
    for (std::uint32_t i = 0; i < node_count; ++i) {
      auto& node = scenario_.node(i);
      node.mac().on_deliver = [this, inner = std::move(node.mac().on_deliver)](
                                  proto::PacketPtr packet,
                                  proto::MacAddress transmitter) {
        last_transmitter_ = transmitter;
        inner(std::move(packet), transmitter);
      };
      node.stack().on_broadcast = [this](const proto::PacketPtr& packet) {
        on_flood(*packet);
      };
      app::FloodConfig fc;
      fc.payload_bytes = cfg.flood_payload_bytes;
      fc.interval = cfg.flood_interval;
      fc.initial_offset = sim::Duration::millis(17) * (i % 100 + 1);
      flooders_.push_back(
          std::make_unique<app::FloodApp>(simulation, node, fc));
      flooders_.back()->start();
    }
  }

  const auto& sessions = cfg.scenario.sessions;
  receivers_.resize(node_count);
  flows_at_.assign(node_count, 0);
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    const auto [src, dst] = sessions[s];
    if (!receivers_[dst]) {
      receivers_[dst] = std::make_unique<app::FileReceiverApp>(
          simulation, scenario_.node(dst), kTcpPort, cfg.tcp_file_bytes,
          cfg.tcp);
    }
    ++flows_at_[dst];
    senders_.push_back(std::make_unique<app::FileSenderApp>(
        simulation, scenario_.node(src),
        proto::Endpoint{proto::Ipv4Address::for_node(dst), kTcpPort},
        cfg.tcp_file_bytes, cfg.tcp));
    senders_.back()->start(
        sim::TimePoint::at(sim::Duration::millis(10) * (s + 1)));
    endpoints_.push_back(src);
    endpoints_.push_back(dst);
  }
  std::sort(endpoints_.begin(), endpoints_.end());
  endpoints_.erase(std::unique(endpoints_.begin(), endpoints_.end()),
                   endpoints_.end());
  // A sender's mux would otherwise appear only when its start timer
  // fires; creating it now (it has no side effects on the simulation)
  // lets the tracer wrap its send hook before the loop starts.
  for (const auto i : endpoints_) transport::mux_of(scenario_.node(i));
}

void Instance::on_flood(const proto::Packet& packet) {
  if (packet.ip.protocol != proto::kProtoFlood) return;
  ++flood_rx_;
  flood_bytes_ += packet.payload_bytes;
  const std::size_t from = last_transmitter_.value() - 1u;
  if (from < flood_bytes_from_.size()) {
    flood_bytes_from_[from] += packet.payload_bytes;
  }
}

bool Instance::all_complete() const {
  for (std::size_t d = 0; d < receivers_.size(); ++d) {
    if (receivers_[d] && !receivers_[d]->all_complete(flows_at_[d])) {
      return false;
    }
  }
  return true;
}

std::vector<Flow> Instance::flows() const {
  std::vector<Flow> out;
  if (cfg_.flooding) {
    for (const auto bytes : flood_bytes_from_) {
      out.push_back({.bytes = bytes, .completed = bytes > 0});
    }
  }
  const auto& sessions = cfg_.scenario.sessions;
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    const auto dst = sessions[s].receiver;
    // Flows at a shared receiver are indexed in accept order, which
    // follows the staggered start order (as in run_experiment).
    std::size_t flow_index = 0;
    for (std::size_t prior = 0; prior < s; ++prior) {
      if (sessions[prior].receiver == dst) ++flow_index;
    }
    Flow f;
    const auto& recv = *receivers_[dst];
    if (flow_index < recv.flow_count()) {
      const auto& flow = recv.flow(flow_index);
      f.bytes = flow.received;
      f.completed = flow.complete;
      if (flow.complete) {
        const auto elapsed = flow.completed_at - senders_[s]->started_at();
        f.throughput_mbps = static_cast<double>(cfg_.tcp_file_bytes) * 8.0 /
                            elapsed.seconds_f() / 1e6;
      }
    }
    out.push_back(f);
  }
  return out;
}

Counts Instance::counts() {
  Counts c;
  auto& medium = scenario_.medium();
  c.events = scenario_.sim().scheduler().executed_events();
  c.transmissions = medium.transmissions_started();
  c.deliveries = medium.deliveries_scheduled();
  c.sim_ns = scenario_.sim().now().since_origin().ns();
  for (std::size_t i = 0; i < scenario_.size(); ++i) {
    auto& node = scenario_.node(i);
    c.rx_starts += node.phy().rx_starts();
    c.frames_received += node.phy().frames_received();
    c.phy_collisions += node.phy().collisions_seen();
    c.route_entries += node.routes().size();
    c.forwarded += node.stack().forwarded();
    c.header_clones += node.stack().header_clones();
    c.ttl_drops += node.stack().ttl_drops();
    add(c.mac, node.mac_stats());
  }
  const auto add_tcp = [&c](const transport::TcpConnection& conn) {
    const auto& st = conn.stats();
    c.acks_sent += st.acks_sent;
    c.acks_delayed += st.acks_delayed;
    c.retransmits += st.retransmits;
    c.timeouts += st.timeouts;
  };
  for (const auto& sender : senders_) {
    if (sender->connection()) add_tcp(*sender->connection());
  }
  for (const auto& recv : receivers_) {
    if (!recv) continue;
    c.app_bytes += recv->total_received();
    for (std::size_t i = 0; i < recv->flow_count(); ++i) {
      add_tcp(recv->connection(i));
    }
  }
  c.app_bytes += flood_bytes_;
  c.flood_rx = flood_rx_;
  return c;
}

std::vector<mac::MacStats> Instance::node_stats() {
  std::vector<mac::MacStats> out;
  for (std::size_t i = 0; i < scenario_.size(); ++i) {
    out.push_back(scenario_.node(i).mac_stats());
  }
  return out;
}

// -------------------------------------------------------------- tracer

// Upcall hooks wrapped in spans, named by the boundary they cross.
enum Hook : std::size_t {
  kPhyRx,          // Phy::on_rx            phy -> mac
  kPhyTxDone,      // Phy::on_tx_complete   phy -> mac
  kPhyCca,         // Phy::on_cca_change    phy -> mac
  kMacDeliver,     // Mac::on_deliver       mac -> net
  kNetLocal,       // Ipv4Stack::deliver_local    net -> transport
  kNetBroadcast,   // Ipv4Stack::on_broadcast     net -> flood sink
  kTransportSend,  // TransportMux::send_packet   transport -> net
  kHooks
};

// Each stepped event is classed by the first boundary it crossed, in
// this order: a transmission started, a frame reached on_rx, only the
// CCA state changed, or nothing visible (sub-CCA rx events, timers).
enum EventClass : std::size_t { kTx, kRx, kCca, kQuiet, kClasses };

class Tracer {
 public:
  struct HookStats {
    std::uint64_t calls = 0;
    std::uint64_t incl_ns = 0;
    std::uint64_t self_ns = 0;
  };
  struct ClassStats {
    std::uint64_t events = 0;
    std::uint64_t ns = 0;
  };

  // Wraps every upcall hook of the instance's nodes; call after set-up.
  void attach(Instance& instance) {
    auto& scenario = instance.scenario();
    for (std::size_t i = 0; i < scenario.size(); ++i) {
      auto& node = scenario.node(i);
      wrap(node.phy().on_rx, kPhyRx);
      wrap(node.phy().on_tx_complete, kPhyTxDone);
      wrap(node.phy().on_cca_change, kPhyCca);
      wrap(node.mac().on_deliver, kMacDeliver);
      wrap(node.stack().deliver_local, kNetLocal);
      wrap(node.stack().on_broadcast, kNetBroadcast);
    }
    for (const auto i : instance.endpoints()) {
      wrap(transport::mux_of(scenario.node(i)).send_packet, kTransportSend);
    }
  }

  // Steps through every event at or before `until`, timing and classing
  // each, then moves the clock to `until` as Simulation::run_until does
  // (no event at or before `until` is left for it to execute).
  void run_until(topo::Scenario& scenario, sim::TimePoint until) {
    auto& scheduler = scenario.sim().scheduler();
    const auto& medium = scenario.medium();
    for (;;) {
      const auto next = scheduler.peek_next_time();
      if (!next || *next > until) break;
      const auto tx_before = medium.transmissions_started();
      const auto rx_before = hooks[kPhyRx].calls;
      const auto cca_before = hooks[kPhyCca].calls;
      const auto start = now_ns();
      scheduler.step();
      const auto ns = now_ns() - start;
      const EventClass c = medium.transmissions_started() != tx_before ? kTx
                           : hooks[kPhyRx].calls != rx_before          ? kRx
                           : hooks[kPhyCca].calls != cca_before        ? kCca
                                                                       : kQuiet;
      ++classes[c].events;
      classes[c].ns += ns;
      event_ns.push_back(static_cast<std::uint32_t>(
          std::min<std::uint64_t>(ns, UINT32_MAX)));
    }
    scheduler.run_until(until);
  }

  std::array<HookStats, kHooks> hooks{};
  std::array<ClassStats, kClasses> classes{};
  std::vector<std::uint32_t> event_ns;

 private:
  // Inclusive time is the span's duration; self time subtracts the time
  // of the spans opened inside it, tracked on a stack of child totals
  // (the serial scheduler runs every hook on this one thread).
  template <typename... Args>
  void wrap(std::function<void(Args...)>& hook, Hook kind) {
    if (!hook) return;
    hook = [this, kind, inner = std::move(hook)](Args... args) {
      const std::uint64_t start = now_ns();
      child_ns_.push_back(0);
      inner(std::forward<Args>(args)...);
      const std::uint64_t total = now_ns() - start;
      const std::uint64_t children = child_ns_.back();
      child_ns_.pop_back();
      auto& h = hooks[kind];
      ++h.calls;
      h.incl_ns += total;
      h.self_ns += total - children;
      if (!child_ns_.empty()) child_ns_.back() += total;
    };
  }

  std::vector<std::uint64_t> child_ns_;
};

void Instance::run(Tracer* tracer, std::vector<double>* slice_s) {
  auto& simulation = scenario_.sim();
  const auto advance = [&](sim::TimePoint until) {
    if (tracer != nullptr) {
      tracer->run_until(scenario_, until);
    } else {
      const auto start = Clock::now();
      simulation.run_until(until);
      if (slice_s != nullptr) slice_s->push_back(seconds_since(start));
    }
  };
  const auto deadline = sim::TimePoint::at(cfg_.max_sim_time);
  if (cfg_.scenario.sessions.empty()) {
    // Flooding runs out the clock in 10 ms slices, each timed on its own
    // (see best_loop_s). Slicing is invisible to the simulation: nothing
    // runs between slices, and each ends with the clock at its deadline.
    while (simulation.now() < deadline) {
      advance(std::min(deadline, simulation.now() + sim::Duration::millis(10)));
    }
    return;
  }
  // Slices of 200 ms until every flow completes or the time cap, as in
  // app::run_experiment.
  while (simulation.now() < deadline && !all_complete()) {
    advance(simulation.now() + sim::Duration::millis(200));
  }
}

// ---------------------------------------------------------------- reps

// One pass over every simulation of a workload.
struct Rep {
  Counts counts;
  std::vector<Flow> flows;
  double setup_s = 0.0;  // Scenario::build + app construction and start
  double build_s = 0.0;  // Scenario::build alone
  double loop_s = 0.0;   // the event loop
  // Host seconds of each slice of the untraced loop, in order.
  std::vector<double> slice_s;
  // Run-loop meters (set-up excluded).
  std::uint64_t allocs = 0;
  std::uint64_t heap_bytes = 0;
  std::uint64_t pool_requests = 0;
  std::uint64_t pool_recycled = 0;
};

Rep run_rep(const Workload& w, Tracer* tracer) {
  Rep rep;
  for (const auto& cfg : w.runs) {
    const auto setup_start = Clock::now();
    Instance instance(cfg);
    rep.setup_s += seconds_since(setup_start);
    rep.build_s += instance.build_s();
    if (tracer != nullptr) tracer->attach(instance);

    const auto alloc_before = util::alloc_snapshot();
    const auto pool_before = util::BufferPool::stats();
    const auto loop_start = Clock::now();
    instance.run(tracer, &rep.slice_s);
    rep.loop_s += seconds_since(loop_start);
    const auto alloc_after = util::alloc_snapshot();
    const auto pool_after = util::BufferPool::stats();
    rep.allocs += alloc_after.allocations - alloc_before.allocations;
    rep.heap_bytes += alloc_after.bytes - alloc_before.bytes;
    rep.pool_requests += pool_after.requests - pool_before.requests;
    rep.pool_recycled += pool_after.recycled - pool_before.recycled;

    rep.counts.add(instance.counts());
    for (const auto& f : instance.flows()) rep.flows.push_back(f);
  }
  return rep;
}

// Set-up alone, for more set-up samples than the loop repetitions give.
double setup_only(const Workload& w) {
  double seconds = 0.0;
  for (const auto& cfg : w.runs) {
    const auto start = Clock::now();
    Instance instance(cfg);
    seconds += seconds_since(start);
  }
  return seconds;
}

// Host seconds of the untraced loop with the host's interference taken
// out as far as repetition allows. Every slice of simulated time does
// identical work in every repetition of one seed, and co-tenants on a
// shared host only ever slow a slice down, so the fastest repetition of
// each slice is the least disturbed measurement of its work. In five
// 20 s runs of paper_tcp on a shared 4-CPU VM the sum of these minima
// spread 2% across seeds where the median repetition of the same runs
// spread 10%; interference lasting longer than a run still shows.
double best_loop_s(const std::vector<Rep>& reps) {
  std::vector<double> best = reps.front().slice_s;
  for (const auto& rep : reps) {
    for (std::size_t i = 0; i < best.size(); ++i) {
      best[i] = std::min(best[i], rep.slice_s.at(i));
    }
  }
  double total = 0.0;
  for (const double s : best) total += s;
  return total;
}

double goodput_mbps(const Workload& w, const Rep& rep) {
  if (w.goodput == Goodput::kMeanFlow) {
    double sum = 0.0;
    for (const auto& f : rep.flows) sum += f.throughput_mbps;
    return ratio(sum, static_cast<double>(rep.flows.size()));
  }
  return ratio(static_cast<double>(rep.counts.app_bytes) * 8.0 / 1e6,
               static_cast<double>(rep.counts.sim_ns) / 1e9);
}

// Indices of the flows that delivered nothing or, where files must
// complete, did not complete by the time cap.
std::vector<std::size_t> failed_flows(const Rep& rep, bool must_complete) {
  std::vector<std::size_t> failed;
  for (std::size_t i = 0; i < rep.flows.size(); ++i) {
    const Flow& f = rep.flows[i];
    if (f.bytes == 0 || (must_complete && !f.completed)) failed.push_back(i);
  }
  return failed;
}

// --------------------------------------------------------------- checks

class Checks {
 public:
  void require(bool ok, const std::string& what) {
    if (!ok) errors_.push_back(what);
  }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::vector<std::string> errors_;
};

// Every paper_tcp flow delivers exactly its file.
void check_files(const Workload& w, const Rep& rep, Checks& checks) {
  if (!w.flows_must_complete) return;
  std::size_t i = 0;
  for (const auto& cfg : w.runs) {
    for (std::size_t s = 0; s < cfg.scenario.sessions.size(); ++s, ++i) {
      const Flow& f = rep.flows.at(i);
      checks.require(f.completed && f.bytes == cfg.tcp_file_bytes,
                     "flow " + std::to_string(i) + " delivered " +
                         std::to_string(f.bytes) + " of " +
                         std::to_string(cfg.tcp_file_bytes) + " bytes");
    }
  }
}

// The benchmark's own build -> attach -> run path reproduces
// app::run_experiment exactly.
void check_parity(const Workload& w, Checks& checks) {
  for (const auto index : w.parity_runs) {
    const auto& cfg = w.runs.at(index);
    const auto ref = app::run_experiment(cfg);
    Instance instance(cfg);
    instance.run(nullptr);
    const auto flows = instance.flows();
    const auto counts = instance.counts();
    const auto stats = instance.node_stats();
    const std::string where = "parity (run " + std::to_string(index) + "): ";
    bool flows_match = flows.size() == ref.flows.size();
    for (std::size_t i = 0; flows_match && i < flows.size(); ++i) {
      flows_match = flows[i].completed == ref.flows[i].completed &&
                    flows[i].throughput_mbps == ref.flows[i].throughput_mbps;
    }
    checks.require(flows_match, where + "flow throughputs differ");
    checks.require(counts.events == ref.sched_executed_events,
                   where + "executed events differ");
    checks.require(counts.transmissions == ref.phy_transmissions,
                   where + "transmissions differ");
    bool stats_match = stats.size() == ref.node_stats.size();
    for (std::size_t i = 0; stats_match && i < stats.size(); ++i) {
      stats_match = key(stats[i]) == key(ref.node_stats[i]);
    }
    checks.require(stats_match, where + "node MAC stats differ");
  }
}

// ---------------------------------------------------------------- output

class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             unit + "\"}";
  }
  void add(const std::string& name, std::uint64_t value, const char* unit) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + std::to_string(value) +
             ", \"unit\": \"" + unit + "\"}";
  }
  std::string json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void add_counts(Metrics& m, const Counts& c) {
  const double tx = static_cast<double>(c.transmissions);
  const double frames = static_cast<double>(c.mac.data_frames_tx);
  m.add("sim.events", c.events, "count");
  m.add("sim.events_per_frame", ratio(static_cast<double>(c.events), tx),
        "events/frame");
  m.add("topo.route_entries", c.route_entries, "count");
  m.add("phy.transmissions", c.transmissions, "count");
  m.add("phy.deliveries", c.deliveries, "count");
  m.add("phy.fanout", ratio(static_cast<double>(c.deliveries), tx),
        "rx/frame");
  m.add("phy.rx_starts", c.rx_starts, "count");
  m.add("phy.frames_received", c.frames_received, "count");
  m.add("phy.collisions", c.phy_collisions, "count");
  m.add("phy.decode_ratio",
        ratio(static_cast<double>(c.frames_received),
              static_cast<double>(c.deliveries)),
        "ratio");
  m.add("mac.data_frames", c.mac.data_frames_tx, "count");
  m.add("mac.subframes_per_frame",
        ratio(static_cast<double>(c.mac.subframes_tx()), frames),
        "subframes/frame");
  m.add("mac.control_frames", c.mac.rts_tx + c.mac.cts_tx + c.mac.ack_tx,
        "count");
  m.add("mac.retries", c.mac.retries, "count");
  m.add("mac.retry_drops", c.mac.retry_drops, "count");
  m.add("mac.queue_drops", c.mac.queue_drops, "count");
  m.add("mac.collisions", c.mac.collisions, "count");
  m.add("mac.crc_failures", c.mac.crc_failures, "count");
  m.add("mac.overhead_fraction", c.mac.time.overhead_fraction(), "ratio");
  m.add("core.broadcast_subframes", c.mac.broadcast_subframes_tx, "count");
  m.add("core.unicast_subframes", c.mac.unicast_subframes_tx, "count");
  m.add("core.avg_frame_bytes", c.mac.avg_frame_bytes(), "B");
  m.add("net.forwarded", c.forwarded, "count");
  m.add("net.header_clones", c.header_clones, "count");
  m.add("net.ttl_drops", c.ttl_drops, "count");
  m.add("transport.acks_sent", c.acks_sent, "count");
  m.add("transport.acks_delayed", c.acks_delayed, "count");
  m.add("transport.retransmits", c.retransmits, "count");
  m.add("transport.timeouts", c.timeouts, "count");
  m.add("app.bytes_delivered", c.app_bytes, "B");
  m.add("app.flood_rx", c.flood_rx, "count");
}

// Host-time split of one traced repetition.
struct TraceSummary {
  double loop_s = 0.0;
  std::array<Tracer::HookStats, kHooks> hooks{};
  std::array<Tracer::ClassStats, kClasses> classes{};
  double p50_ns = 0.0, p99_ns = 0.0, p999_ns = 0.0;
};

double percentile(std::vector<std::uint32_t>& v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

TraceSummary summarise(Tracer& tracer, double loop_s) {
  TraceSummary t;
  t.loop_s = loop_s;
  t.hooks = tracer.hooks;
  t.classes = tracer.classes;
  t.p50_ns = percentile(tracer.event_ns, 0.50);
  t.p99_ns = percentile(tracer.event_ns, 0.99);
  t.p999_ns = percentile(tracer.event_ns, 0.999);
  return t;
}

// `overhead_pct`: how much longer the traced loop ran than the untraced
// loop of the same pair, median over pairs.
void add_trace(Metrics& m, const TraceSummary& t, double overhead_pct) {
  const auto s = [](std::uint64_t ns) { return static_cast<double>(ns) / 1e9; };
  double events_s = 0.0;
  for (const auto& c : t.classes) events_s += s(c.ns);
  m.add("sim.event_ns_p50", t.p50_ns, "ns");
  m.add("sim.event_ns_p99", t.p99_ns, "ns");
  m.add("sim.event_ns_p999", t.p999_ns, "ns");
  m.add("sim.step_overhead_s", t.loop_s - events_s, "s");
  m.add("phy.tx_event_s", s(t.classes[kTx].ns), "s");
  m.add("phy.tx_event_ns",
        ratio(static_cast<double>(t.classes[kTx].ns),
              static_cast<double>(t.classes[kTx].events)),
        "ns");
  m.add("phy.cca_event_s", s(t.classes[kCca].ns), "s");
  m.add("phy.quiet_event_s", s(t.classes[kQuiet].ns), "s");
  m.add("phy.quiet_events", t.classes[kQuiet].events, "count");
  m.add("mac.rx_event_s", s(t.classes[kRx].ns), "s");
  m.add("mac.rx_self_s", s(t.hooks[kPhyRx].self_ns), "s");
  m.add("mac.cca_self_s", s(t.hooks[kPhyCca].self_ns), "s");
  m.add("mac.tx_done_self_s", s(t.hooks[kPhyTxDone].self_ns), "s");
  m.add("net.rx_self_s", s(t.hooks[kMacDeliver].self_ns), "s");
  m.add("net.tx_s", s(t.hooks[kTransportSend].incl_ns), "s");
  m.add("transport.rx_self_s", s(t.hooks[kNetLocal].self_ns), "s");
  m.add("app.rx_self_s", s(t.hooks[kNetBroadcast].self_ns), "s");
  m.add("trace.loop_s", t.loop_s, "s");
  m.add("trace.overhead_pct", overhead_pct, "%");
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper_tcp|flood_4k|mesh_tcp --seed N --seconds S --trace "
               "0|1 [--size full|smoke] [--commit ID]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("bad --seed");
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || value.empty() || o.seconds < 0) {
        usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace");
      o.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "smoke") usage("bad --size");
      o.smoke = value == "smoke";
    } else if (flag == "--commit") {
      o.commit = value;
    } else {
      usage("unknown flag");
    }
  }
  if (!have_workload) usage("missing --workload");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (std::string_view(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  Workload w;
  if (opt.workload == "paper_tcp") {
    w = paper_tcp(opt.seed, opt.smoke);
  } else if (opt.workload == "flood_4k") {
    w = flood_4k(opt.seed, opt.smoke);
  } else if (opt.workload == "mesh_tcp") {
    w = mesh_tcp(opt.seed, opt.smoke);
  } else {
    usage("unknown workload");
  }

  Checks checks;
  check_parity(w, checks);

  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t reps_run = 0;
  std::vector<std::size_t> failed_set;  // of the first repetition
  const auto count_flows = [&](const Rep& rep) {
    const auto failed_here = failed_flows(rep, w.flows_must_complete);
    if (reps_run == 0) failed_set = failed_here;
    attempted += rep.flows.size();
    failed += failed_here.size();
    check_files(w, rep, checks);
    ++reps_run;
  };
  const auto started = Clock::now();

  const auto check_repeat = [&](const Rep& rep, const Rep& first) {
    checks.require(rep.counts == first.counts && rep.flows == first.flows &&
                       rep.slice_s.size() == first.slice_s.size(),
                   "repetitions of one seed disagree");
  };

  if (!opt.trace) {
    std::vector<Rep> reps;
    std::vector<double> setup;
    do {
      reps.push_back(run_rep(w, nullptr));
      const Rep& rep = reps.back();
      count_flows(rep);
      check_repeat(rep, reps.front());
      setup.push_back(rep.setup_s);
      std::fprintf(stderr, "rep %zu: setup %.6f s, loop %.4f s\n",
                   reps.size(), rep.setup_s, rep.loop_s);
    } while (seconds_since(started) < opt.seconds);
    while (setup.size() < 5) setup.push_back(setup_only(w));
    metrics.add("frames_per_s",
                ratio(static_cast<double>(reps.front().counts.transmissions),
                      best_loop_s(reps)),
                "frames/s");
    metrics.add("setup_s", median(setup), "s");
    metrics.add("peak_rss_mb",
                static_cast<double>(util::peak_rss_kb()) / 1024.0, "MB");
    metrics.add("goodput_mbps", goodput_mbps(w, reps.front()), "Mbps");
  } else {
    std::vector<Rep> untraced;
    std::vector<TraceSummary> traced;
    std::vector<double> build_s, slowdown;
    do {
      untraced.push_back(run_rep(w, nullptr));
      const Rep& plain = untraced.back();
      count_flows(plain);
      check_repeat(plain, untraced.front());
      Tracer tracer;
      const Rep rep = run_rep(w, &tracer);
      count_flows(rep);
      checks.require(rep.counts == plain.counts && rep.flows == plain.flows,
                     "the traced run changed the simulation");
      checks.require(tracer.hooks[kMacDeliver].calls ==
                         rep.counts.mac.delivered_up,
                     "Mac::on_deliver calls != sum of mac.delivered_up");
      traced.push_back(summarise(tracer, rep.loop_s));
      build_s.push_back(plain.build_s);
      build_s.push_back(rep.build_s);
      slowdown.push_back(ratio(rep.loop_s, plain.loop_s));
      std::fprintf(stderr, "pair %zu: loop %.4f s untraced, %.4f s traced\n",
                   untraced.size(), plain.loop_s, rep.loop_s);
    } while (seconds_since(started) < opt.seconds);

    // Report the traced repetition with the median loop time, so its
    // class split sums to the loop time it reports.
    std::sort(traced.begin(), traced.end(),
              [](const TraceSummary& a, const TraceSummary& b) {
                return a.loop_s < b.loop_s;
              });
    const Rep& first = untraced.front();
    const double events = static_cast<double>(first.counts.events);
    add_counts(metrics, first.counts);
    metrics.add("sim.events_per_s", ratio(events, best_loop_s(untraced)),
                "events/s");
    metrics.add("topo.build_s", median(build_s), "s");
    metrics.add("util.allocs_per_event",
                ratio(static_cast<double>(first.allocs), events),
                "allocs/event");
    metrics.add("util.pool_recycle_ratio",
                ratio(static_cast<double>(first.pool_recycled),
                      static_cast<double>(first.pool_requests)),
                "ratio");
    metrics.add("util.heap_mb", static_cast<double>(first.heap_bytes) / 1e6,
                "MB");
    metrics.add("flows_attempted",
                static_cast<std::uint64_t>(first.flows.size()), "count");
    metrics.add("flows_failed",
                static_cast<std::uint64_t>(failed_set.size()), "count");
    add_trace(metrics, traced[traced.size() / 2],
              100.0 * (median(slowdown) - 1.0));
  }

  std::string errors = "[";
  for (std::size_t i = 0; i < checks.errors().size(); ++i) {
    if (i > 0) errors += ", ";
    errors += json_string(checks.errors()[i]);
  }
  errors += "]";
  // The first 64 failed flow indices, in session (or node) order.
  std::string failed_json = "[";
  for (std::size_t i = 0; i < failed_set.size() && i < 64; ++i) {
    if (i > 0) failed_json += ", ";
    failed_json += std::to_string(failed_set[i]);
  }
  failed_json += "]";
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s, \"errors\": %s, \"meta\": {\"workload\": %s, "
      "\"seed\": %llu, \"size\": \"%s\", \"trace\": %s, \"reps\": %zu, "
      "\"host_cpus\": %u, \"compiler\": %s, \"build_type\": %s, "
      "\"commit\": %s, \"failed_flows\": %s}}\n",
      checks.errors().empty() ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.json().c_str(),
      errors.c_str(), json_string(opt.workload).c_str(),
      static_cast<unsigned long long>(opt.seed), opt.smoke ? "smoke" : "full",
      opt.trace ? "true" : "false", reps_run,
      std::thread::hardware_concurrency(), json_string(compiler).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(opt.commit).c_str(), failed_json.c_str());
  return checks.errors().empty() ? 0 : 1;
}
