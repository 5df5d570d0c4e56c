// sim::Scheduler against a trivially correct reference queue, plus the
// lifetime guarantees of callbacks parked in the scheduler's slots.
//
// The differential test drives the scheduler and a reference (a vector
// kept sorted by (time, sequence), cancelled events erased eagerly) with
// the same seeded stream of operations: schedule_at/schedule_in,
// schedule_batch on both of its heap-restore branches, cancels of live,
// already-run, already-cancelled, fire-and-forget and reused-slot ids,
// pending, peek_next_time, step and run_until. Events run an action
// drawn from their own seed, so callbacks schedule, batch and cancel
// from inside the loop too. Every return value, the execution order,
// now(), pending_events() and executed_events() must agree at every step.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <vector>

#include "sim/scheduler.h"

namespace hydra::sim {
namespace {

// Events spawn no children past this many handles, which bounds a run.
constexpr std::size_t kHandleCap = 20000;

std::uint64_t mix(std::uint64_t seed, std::uint64_t h) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + h + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Few distinct delays, so same-instant ties (FIFO by sequence) are common.
Duration draw_delay(std::mt19937_64& rng) {
  static constexpr std::array<std::int64_t, 8> kNanos = {0,  0,  10,  10,
                                                         20, 50, 100, 1000};
  return Duration::nanos(kNanos[rng() % kNanos.size()]);
}

// Batch sizes that land on both restore branches: a few events against a
// standing heap sift up one by one; a batch of at least an eighth of the
// heap heapifies.
std::size_t draw_batch_size(std::mt19937_64& rng) {
  return rng() % 2 == 0 ? 1 + rng() % 4 : 10 + rng() % 60;
}

// What event `h` does when it runs, identically in both worlds: its
// draws come from (seed, h) alone. Fewer than one child per event on
// average, so the queue is fed mostly by the top-level operations.
template <class World>
void on_run(World& w, std::size_t h) {
  w.log.push_back(static_cast<std::int64_t>(h));
  w.log.push_back(w.now().ns());
  std::mt19937_64 rng(mix(w.seed, h));
  const bool spawn = w.handles() < kHandleCap;
  switch (rng() % 6) {
    case 0:
      if (spawn) w.schedule_in(draw_delay(rng));
      break;
    case 2:
      if (spawn) {
        w.schedule_at(w.now() + draw_delay(rng));
        w.schedule_in(draw_delay(rng));
      }
      break;
    case 3:
      if (spawn) {
        std::vector<Duration> delays(1 + rng() % 3);
        for (auto& d : delays) d = draw_delay(rng);
        w.schedule_batch(delays, rng() % 2 == 0);
      }
      break;
    case 1:
    case 4: {
      const std::size_t victim = rng() % w.handles();
      w.log.push_back(w.cancel(victim) ? 1 : 0);
      break;
    }
    default:
      w.log.push_back(w.pending(rng() % w.handles()) ? 1 : 0);
      break;
  }
}

// The scheduler under test. Handle h is the h-th event scheduled; a
// fire-and-forget batch event gets the invalid id.
struct RealWorld {
  explicit RealWorld(std::uint64_t s) : seed(s) {}

  TimePoint now() const { return sched.now(); }
  std::size_t handles() const { return ids.size(); }
  Scheduler::Callback callback(std::size_t h) {
    return [this, h] { on_run(*this, h); };
  }
  void schedule_at(TimePoint at) {
    ids.push_back(sched.schedule_at(at, callback(ids.size())));
  }
  void schedule_in(Duration d) {
    ids.push_back(sched.schedule_in(d, callback(ids.size())));
  }
  void schedule_batch(const std::vector<Duration>& delays, bool with_ids) {
    std::vector<Scheduler::BatchEvent> batch;
    const std::size_t first = ids.size();
    for (std::size_t i = 0; i < delays.size(); ++i) {
      batch.push_back({now() + delays[i], callback(first + i)});
    }
    std::vector<EventId> got;
    sched.schedule_batch(batch, with_ids ? &got : nullptr);
    EXPECT_TRUE(batch.empty());
    if (!with_ids) got.assign(delays.size(), EventId{});
    EXPECT_EQ(got.size(), delays.size());
    ids.insert(ids.end(), got.begin(), got.end());
  }
  bool cancel(std::size_t h) { return sched.cancel(ids[h]); }
  bool pending(std::size_t h) const { return sched.pending(ids[h]); }
  std::optional<TimePoint> peek() { return sched.peek_next_time(); }
  bool step() { return sched.step(); }
  std::size_t run_until(TimePoint t) { return sched.run_until(t); }
  std::size_t pending_events() const { return sched.pending_events(); }
  std::uint64_t executed_events() const { return sched.executed_events(); }

  std::uint64_t seed;
  Scheduler sched;
  std::vector<EventId> ids;
  std::vector<std::int64_t> log;
};

// The reference: a vector sorted by (at, seq), cancels erase eagerly.
// `dead` only mirrors how many keys the scheduler's heap still holds
// (a cancelled key stays queued until it reaches the head), so the test
// can tell which restore branch a batch takes; it never affects results.
struct RefWorld {
  struct Event {
    TimePoint at;
    std::uint64_t seq;
    std::size_t h;
  };
  enum class State { kPending, kDone, kUntracked };
  static bool before(const Event& a, const Event& b) {
    return a.at < b.at || (a.at == b.at && a.seq < b.seq);
  }

  explicit RefWorld(std::uint64_t s) : seed(s) {}

  TimePoint now() const { return now_; }
  std::size_t handles() const { return state.size(); }
  void add(TimePoint at, bool tracked) {
    EXPECT_GE(at, now_);
    const Event e{at, next_seq_++, state.size()};
    queue.insert(std::upper_bound(queue.begin(), queue.end(), e, before), e);
    state.push_back(tracked ? State::kPending : State::kUntracked);
  }
  void schedule_at(TimePoint at) { add(at, true); }
  void schedule_in(Duration d) { add(now_ + d, true); }
  void schedule_batch(const std::vector<Duration>& delays, bool with_ids) {
    const TimePoint base = now_;
    for (const Duration d : delays) add(base + d, with_ids);
  }
  bool cancel(std::size_t h) {
    if (state[h] != State::kPending) return false;
    state[h] = State::kDone;
    const auto it = std::find_if(queue.begin(), queue.end(),
                                 [h](const Event& e) { return e.h == h; });
    dead.insert(std::upper_bound(dead.begin(), dead.end(), *it, before), *it);
    queue.erase(it);
    return true;
  }
  bool pending(std::size_t h) const { return state[h] == State::kPending; }
  std::optional<TimePoint> peek() {
    // The scheduler pops cancelled keys that precede the live head.
    auto end = dead.begin();
    while (end != dead.end() &&
           (queue.empty() || before(*end, queue.front()))) {
      ++end;
    }
    dead.erase(dead.begin(), end);
    if (queue.empty()) return std::nullopt;
    return queue.front().at;
  }
  bool step() {
    if (!peek()) return false;
    const Event e = queue.front();
    queue.erase(queue.begin());
    state[e.h] = State::kDone;
    now_ = e.at;
    ++executed_;
    on_run(*this, e.h);
    return true;
  }
  std::size_t run_until(TimePoint t) {
    std::size_t ran = 0;
    for (auto next = peek(); next && *next <= t; next = peek()) {
      step();
      ++ran;
    }
    if (now_ < t) now_ = t;
    return ran;
  }
  std::size_t pending_events() const { return queue.size(); }
  std::uint64_t executed_events() const { return executed_; }
  std::size_t queued_keys() const { return queue.size() + dead.size(); }

  std::uint64_t seed;
  std::vector<Event> queue;
  std::vector<Event> dead;
  std::vector<State> state;
  std::vector<std::int64_t> log;

 private:
  TimePoint now_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
};

// Applies `ops` top-level operations drawn from `seed` to both worlds and
// compares them after each one. Counts into `branches` how many batches
// took the sift-up [0] and the heapify [1] restore branch.
void run_differential(std::uint64_t seed, int ops,
                      std::array<int, 2>& branches) {
  RealWorld real(seed);
  RefWorld ref(seed);
  std::mt19937_64 rng(seed);
  for (int op = 0; op < ops; ++op) {
    const auto kind = rng() % 10;
    if (kind <= 2 || real.handles() == 0) {  // 30%
      const Duration d = draw_delay(rng);
      if (rng() % 2 == 0) {
        real.schedule_in(d);
        ref.schedule_in(d);
      } else {
        real.schedule_at(real.now() + d);
        ref.schedule_at(ref.now() + d);
      }
    } else if (kind == 3) {  // 10%
      std::vector<Duration> delays(draw_batch_size(rng));
      for (auto& d : delays) d = draw_delay(rng);
      const bool with_ids = rng() % 2 == 0;
      ++branches[delays.size() >= ref.queued_keys() / 8 ? 1 : 0];
      real.schedule_batch(delays, with_ids);
      ref.schedule_batch(delays, with_ids);
    } else if (kind == 4) {
      // Any handle: live, run, cancelled, fire-and-forget or one whose
      // slot has since been reused by a newer event.
      const std::size_t h = rng() % real.handles();
      ASSERT_EQ(real.cancel(h), ref.cancel(h)) << "seed " << seed;
    } else if (kind == 5) {
      const std::size_t h = rng() % real.handles();
      ASSERT_EQ(real.pending(h), ref.pending(h)) << "seed " << seed;
    } else if (kind == 6) {
      ASSERT_EQ(real.peek(), ref.peek()) << "seed " << seed;
    } else if (kind <= 8) {  // 20%
      ASSERT_EQ(real.step(), ref.step()) << "seed " << seed;
    } else {
      const TimePoint deadline = real.now() + draw_delay(rng) * 3;
      ASSERT_EQ(real.run_until(deadline), ref.run_until(deadline))
          << "seed " << seed;
    }
    ASSERT_EQ(real.now(), ref.now()) << "seed " << seed << " op " << op;
    ASSERT_EQ(real.pending_events(), ref.pending_events())
        << "seed " << seed << " op " << op;
    ASSERT_EQ(real.executed_events(), ref.executed_events())
        << "seed " << seed << " op " << op;
    ASSERT_EQ(real.handles(), ref.handles()) << "seed " << seed;
    ASSERT_EQ(real.log, ref.log) << "seed " << seed << " op " << op;
    real.log.clear();
    ref.log.clear();
  }
  // Drain both: the tails must agree too.
  real.run_until(real.now() + Duration::seconds(1));
  ref.run_until(ref.now() + Duration::seconds(1));
  EXPECT_EQ(real.log, ref.log) << "seed " << seed;
  EXPECT_EQ(real.executed_events(), ref.executed_events());
  EXPECT_EQ(real.pending_events(), 0u);
}

TEST(SchedulerReference, MatchesSortedVectorOnMixedOperations) {
  std::array<int, 2> branches{};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    run_differential(seed, 3000, branches);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(branches[0], 0) << "no batch took the sift-up branch";
  EXPECT_GT(branches[1], 0) << "no batch took the heapify branch";
}

// A running callback must not live in storage the scheduler may move:
// schedule enough events from inside it to grow the slot table many
// times over, then read its own captures (ASan flags a stale read).
TEST(SchedulerSlotLifetime, RunningCallbackSurvivesSlotGrowth) {
  Scheduler sched;
  std::uint64_t inline_sum = 0;
  std::uint64_t boxed_sum = 0;
  const std::array<std::uint64_t, 4> small = {1, 2, 3, 4};  // inline: 48 B
  sched.schedule_in(Duration::nanos(1), [&sched, small, &inline_sum] {
    for (int i = 0; i < 10000; ++i) {
      sched.schedule_in(Duration::nanos(1), [] {});
    }
    for (const auto v : small) inline_sum += v;
  });
  const std::array<std::uint64_t, 12> big = {1, 2, 3, 4, 5, 6,
                                             7, 8, 9, 10, 11, 12};  // boxed
  sched.schedule_in(Duration::nanos(2), [&sched, big, &boxed_sum] {
    for (int i = 0; i < 10000; ++i) {
      sched.schedule_in(Duration::nanos(1), [] {});
    }
    for (const auto v : big) boxed_sum += v;
  });
  EXPECT_EQ(sched.run(), 20002u);
  EXPECT_EQ(inline_sum, 10u);
  EXPECT_EQ(boxed_sum, 78u);
}

// Cancellation is lazy: the callback (and what it captured) is released
// when its key reaches the head of the queue, not at cancel().
TEST(SchedulerSlotLifetime, CancelledCaptureReleasedWhenKeySurfaces) {
  Scheduler sched;
  auto token = std::make_shared<int>(7);
  const std::weak_ptr<int> weak = token;
  const EventId id = sched.schedule_at(TimePoint::at(Duration::millis(10)),
                                       [token = std::move(token)] {});
  int ran = 0;
  sched.schedule_at(TimePoint::at(Duration::millis(5)), [&ran] { ++ran; });
  sched.schedule_at(TimePoint::at(Duration::millis(15)), [] {});
  EXPECT_TRUE(sched.cancel(id));
  EXPECT_FALSE(weak.expired());
  EXPECT_TRUE(sched.step());
  EXPECT_EQ(ran, 1);
  EXPECT_FALSE(weak.expired());  // now the head, but not yet popped
  EXPECT_EQ(sched.peek_next_time(), TimePoint::at(Duration::millis(15)));
  EXPECT_TRUE(weak.expired());
}

TEST(SchedulerSlotLifetime, DestroyingSchedulerReleasesQueuedCallbacks) {
  std::vector<std::weak_ptr<int>> weak;
  {
    Scheduler sched;
    std::vector<EventId> ids;
    std::vector<Scheduler::BatchEvent> batch;
    for (int i = 0; i < 64; ++i) {
      auto token = std::make_shared<int>(i);
      weak.push_back(token);
      const auto at = TimePoint::at(Duration::micros(1 + i % 7));
      if (i % 3 == 0) {
        batch.push_back({at, [token = std::move(token)] {}});
      } else if (i % 3 == 1) {
        ids.push_back(sched.schedule_at(at, [token = std::move(token)] {}));
      } else {
        // Past SmallFn's inline capacity: boxed through the BufferPool.
        const std::array<std::uint64_t, 8> pad{};
        ids.push_back(sched.schedule_at(at, [token = std::move(token), pad] {
          (void)pad;
        }));
      }
    }
    sched.schedule_batch(batch);
    for (std::size_t i = 0; i < ids.size(); i += 2) sched.cancel(ids[i]);
    for (const auto& w : weak) EXPECT_FALSE(w.expired());
  }
  for (const auto& w : weak) EXPECT_TRUE(w.expired());
}

}  // namespace
}  // namespace hydra::sim
