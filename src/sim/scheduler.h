// Discrete-event scheduler: a min-heap of 24-byte (time, sequence, slot)
// keys, with each queued event's callback and affinity parked in its
// slot, so sifting never moves a callback. Same-instant events run in
// scheduling order. An opt-in conservative parallel mode (Chandy–Misra-
// style lookahead windows executed on a util::TaskPool — see
// ExecutionPolicy below) runs the same queue.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "sim/time.h"
#include "sim/turn.h"
#include "util/small_fn.h"
#include "util/thread_annotations.h"

namespace hydra::sim {

// Opaque handle for cancelling a scheduled event: a slot index stamped
// with the slot's generation, so a handle goes stale the moment its
// event runs or is cancelled and the slot is reused. Id 0 is "invalid".
class EventId {
 public:
  constexpr EventId() = default;
  constexpr bool valid() const { return id_ != 0; }
  friend constexpr auto operator<=>(EventId, EventId) = default;

 private:
  friend class Scheduler;
  constexpr explicit EventId(std::uint64_t id) : id_(id) {}
  std::uint64_t id_ = 0;
};

// How run()/run_until() execute the queue.
//
//   kSerial           one event at a time on the calling thread (the
//                     default, and the reference semantics).
//   kParallelWindows  conservative parallel DES: a lookahead provider
//                     (the medium's minimum live-pair propagation delay)
//                     bounds a window [now, now + lookahead) in which no
//                     event can affect a different node; window events
//                     are grouped by affinity (owning node id) and the
//                     groups run concurrently on a worker pool. Events
//                     that touch cross-node shared state (the medium,
//                     the global RNG, the trace) serialize themselves in
//                     exact serial order through acquire_shared_turn(),
//                     and side-effect schedule/cancel calls commit in
//                     canonical order at the window barrier — so the
//                     observable event sequence is bit-identical to
//                     kSerial, at any worker count.
enum class ExecutionPolicy { kSerial, kParallelWindows };

// Single-threaded event loop by default; see ExecutionPolicy for the
// opt-in parallel-window mode. Events scheduled for the same instant run
// in scheduling order (FIFO), which keeps protocol traces deterministic.
class Scheduler {
 public:
  // Move-only with inline capture storage (boxed through the
  // BufferPool past 48 bytes), so scheduling an event allocates nothing
  // from the system heap in steady state. Accepts any void() callable,
  // like std::function, but is moved — never copied — through the heap.
  using Callback = util::SmallFn;
  // Returns the current safe lookahead: no event executed now may
  // schedule onto a *different* affinity sooner than now + lookahead.
  // Zero (or a negative/absent value) disables window formation and
  // falls back to serial stepping.
  using LookaheadProvider = std::function<Duration()>;

  // Affinity = the node that owns an event (kNoAffinity = untagged;
  // untagged events act as serial barriers in parallel-window mode, so
  // partial tagging is always correct, just less parallel).
  static constexpr std::uint32_t kNoAffinity = 0xFFFFFFFFu;

  Scheduler();
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // During window execution this is the executing event's own time (the
  // scheduler-wide clock only advances at the window barrier).
  TimePoint now() const;

  // Schedules `cb` to run at absolute time `at` (must not be in the past).
  // The event's affinity is the scheduling context's: an AffinityScope
  // if one is active, else the affinity of the event being executed.
  EventId schedule_at(TimePoint at, Callback cb);
  // Schedules `cb` to run `delay` from now.
  EventId schedule_in(Duration delay, Callback cb);

  // One event of a batch commit.
  struct BatchEvent {
    TimePoint at;
    Callback cb;
    std::uint32_t affinity = kNoAffinity;
  };
  // Commits every event of `events` (in order — the sequence numbers are
  // assigned contiguously, so same-instant FIFO semantics match N
  // schedule_at calls exactly) and restores the heap in one pass when
  // the batch is large relative to it, instead of N sift-ups. The medium
  // uses this to commit a whole transmission's delivery fan-out at once.
  // With `ids`, the EventId of every committed event is appended in
  // batch order (the ids cost nothing extra — batch events already
  // occupy cancel slots), so callers can cancel individual deliveries
  // later; without it the batch is fire-and-forget. `events` is left
  // cleared for reuse; `ids` is appended to, not cleared. A BatchEvent
  // affinity of kNoAffinity inherits the scheduling context's affinity,
  // like schedule_at.
  void schedule_batch(std::vector<BatchEvent>& events,
                      std::vector<EventId>* ids = nullptr);

  // Cancels a pending event. Returns false if the event already ran, was
  // already cancelled, or the id is invalid.
  bool cancel(EventId id);

  // True while the event is still queued (not yet run, not cancelled).
  // Stale-handle-safe, like cancel(): a reused slot reports false.
  bool pending(EventId id) const;

  // The time of the next live event, dropping any cancelled entries off
  // the head of the queue on the way; nullopt when the queue is empty.
  std::optional<TimePoint> peek_next_time();

  // Runs events until the queue is empty. Returns the number executed.
  std::size_t run();
  // Runs events with time <= deadline; leaves later events queued and
  // advances now() to the deadline. Returns the number executed.
  std::size_t run_until(TimePoint deadline);
  // Executes at most one event (always serially, regardless of policy).
  // Returns false if the queue is empty.
  bool step();

  // Selects how run()/run_until() execute. kParallelWindows spawns a
  // persistent worker pool (workers = 0 resolves to the hardware
  // concurrency, clamped to [1, 8]); switching back to kSerial releases
  // it. Changing policy never changes observable behaviour — that is
  // the whole contract — only wall-clock. Must be called between runs,
  // not from inside a callback.
  void set_execution(ExecutionPolicy policy, unsigned workers = 0);
  ExecutionPolicy execution_policy() const { return policy_; }
  unsigned execution_workers() const { return workers_; }

  // Registers the lookahead source for kParallelWindows (the medium
  // registers its min live-pair propagation delay on construction).
  // Replaces any previous provider; nullptr clears it, which makes the
  // parallel policy degrade to serial stepping.
  void set_lookahead_provider(LookaheadProvider provider);

  std::size_t pending_events() const { return pending_count_; }
  std::uint64_t executed_events() const { return executed_; }
  // Lookahead windows run by the parallel mode, and how many events ran
  // inside windows that actually had >1 concurrent group.
  std::uint64_t windows_executed() const { return windows_; }
  std::uint64_t parallel_events_executed() const { return parallel_events_; }

  // Serializes access to cross-node shared state from inside a parallel
  // window: blocks until every window event with a smaller canonical
  // (time, sequence) position has completed, so shared-state touches
  // happen in exactly the serial order. The turn is held (idempotently)
  // until the calling event finishes. A no-op outside window execution,
  // so shared subsystems (medium, RNG, trace) can call it
  // unconditionally on their hot paths. ASSERT_CAPABILITY (rather than
  // ACQUIRE) because there is no matching release call: the turn lapses
  // implicitly when the calling event's callback returns.
  static void acquire_shared_turn() ASSERT_CAPABILITY(shared_turn);

  // Tags every event scheduled while in scope with a fixed affinity,
  // overriding inheritance from the currently executing event. Used at
  // the roots of per-node activity (timer arms, a PHY's own tx-complete).
  class AffinityScope {
   public:
    explicit AffinityScope(std::uint32_t affinity);
    ~AffinityScope();
    AffinityScope(const AffinityScope&) = delete;
    AffinityScope& operator=(const AffinityScope&) = delete;

   private:
    std::uint32_t prev_;
    bool had_prev_;
  };

 private:
  // A queued event's heap key: trivially copyable, so a sift level copies
  // 24 bytes instead of relocating a callback. (at, seq) is unique, which
  // makes the pop order total and independent of the heap's shape.
  struct Key {
    TimePoint at;
    std::uint64_t seq;   // tie-breaker: FIFO among same-time events
    std::uint32_t slot;  // index into slots_
  };
  static_assert(std::is_trivially_copyable_v<Key> && sizeof(Key) == 24,
                "heap keys stay small and memcpy-able");
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  // One live-event slot: the queued event's callback and affinity, plus
  // the cancel bookkeeping. `generation` stamps the EventId handed out
  // for the slot's current occupant; vacating the slot bumps it, so
  // cancel() can tell "still pending" from "already ran / already
  // cancelled / slot reused" with two array loads instead of hash-set
  // lookups. A cancelled event keeps its callback until its key surfaces
  // (lazy deletion). Events collected into a parallel window and
  // deferred window schedules hold their callbacks in the window
  // engine's records instead, and commit them to the slot at the barrier.
  struct Slot {
    std::uint32_t generation = 1;
    std::uint32_t affinity = kNoAffinity;
    bool pending = false;
    Callback cb;
  };

  // Per-thread execution context: which scheduler/event this thread is
  // currently running a callback for. Serial execution installs one so
  // children inherit affinity; window execution installs one so
  // schedule/cancel calls route to the deferred-op machinery and
  // acquire_shared_turn knows the event's canonical position.
  struct ExecContext;
  // All parallel-window state (worker pool, window bookkeeping,
  // deferred ops); allocated only while policy is kParallelWindows.
  struct WindowEngine;
  friend struct WindowEngine;

  void pop_and_run();
  std::uint32_t acquire_slot();
  void vacate(std::uint32_t slot);
  // Pops a cancelled head key and releases its callback and slot.
  void drop_head();

  // Removes and returns the earliest key.
  Key pop_key();
  // Restores the heap invariant after keys were appended past the first
  // `existing`: k sift-ups cost O(k log n) and one heapify pass O(n), so
  // a batch small next to the heap sifts and a dominating one (a large
  // delivery fan-out into a quiet heap) heapifies in one sweep.
  void restore_heap(std::size_t existing);
  // The affinity new events get in the current context (AffinityScope
  // override first, then the executing event's, then kNoAffinity).
  static std::uint32_t current_affinity();
  // The window ExecContext of this thread iff it belongs to this
  // scheduler and a window is executing, else nullptr.
  ExecContext* window_ctx() const;

  // Forms and executes one lookahead window starting at the head of the
  // heap (events with time in [head, head + lookahead) and <= deadline,
  // up to the first untagged event). Returns false — leaving the queue
  // untouched — when no window can form (no/zero lookahead, head
  // untagged or beyond deadline); the caller then steps serially.
  bool run_parallel_window(TimePoint deadline);
  // Schedule/cancel/pending while executing inside a window.
  EventId window_schedule(TimePoint at, std::uint32_t affinity, Callback cb,
                          ExecContext& ctx);
  bool window_cancel(EventId id, ExecContext& ctx);
  bool window_pending(EventId id) const;

  TimePoint now_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t parallel_events_ = 0;
  std::size_t pending_count_ = 0;
  ExecutionPolicy policy_ = ExecutionPolicy::kSerial;
  unsigned workers_ = 0;
  LookaheadProvider lookahead_;
  std::unique_ptr<WindowEngine> win_;
  // Kept in heap order by the std::*_heap algorithms (not a
  // priority_queue: batch commits append a run of keys and restore the
  // invariant in one pass).
  std::vector<Key> heap_;
  // Slot storage grows to the high-water mark of concurrently scheduled
  // events and is then recycled through the free list; cancelled events
  // keep their slot (and callback) until their key is popped. Callbacks
  // are moved out of a slot before it is vacated and run, so a running
  // callback survives slots_ reallocating under it. Concurrency
  // discipline the annotations cannot express (the guarding mutex lives
  // in the policy-dependent WindowEngine): outside window execution only
  // the run loop's thread touches slots_/free_slots_/pending_count_;
  // inside a window every access routes through the engine's op_mutex
  // (window_schedule / window_cancel / execute). The TSan CI slice
  // (`ctest -L parallel`) covers what GUARDED_BY here cannot.
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;

  static thread_local ExecContext* tl_ctx_;
  static thread_local std::uint32_t tl_affinity_override_;
  static thread_local bool tl_affinity_override_set_;
};

}  // namespace hydra::sim
