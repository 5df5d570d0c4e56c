#include "sim/scheduler.h"

#include <algorithm>
#include <deque>
#include <thread>
#include <unordered_map>

#include "util/mutex.h"

#include "util/assert.h"
#include "util/task_pool.h"

namespace hydra::sim {

namespace {

constexpr std::uint64_t pack_id(std::uint32_t generation,
                                std::uint32_t slot) {
  return (std::uint64_t{generation} << 32) | slot;
}

}  // namespace

// Which scheduler/event the current thread is executing a callback for.
// Serial execution installs one so children inherit the event's
// affinity; window execution additionally routes schedule/cancel calls
// to the deferred-op machinery and carries the event's canonical
// position for acquire_shared_turn.
struct Scheduler::ExecContext {
  Scheduler* scheduler = nullptr;
  bool in_window = false;
  TimePoint at;  // the executing event's time: now() inside a window
  std::uint32_t affinity = kNoAffinity;
  // Index of the executing event in the engine's window deque — the
  // anchor of its canonical position (WindowEngine::exec_before).
  std::size_t ev = 0;
  std::uint32_t next_op = 0;  // schedules issued by this event so far
  bool turn_held = false;
};

// All parallel-window state. One window at a time: the main thread
// collects the window single-threadedly (begin), the pool runs one task
// per affinity group (run_group), and the main thread commits deferred
// schedules after the pool barrier. Locking discipline: win_mutex
// guards the coordinator state (events/groups/version), op_mutex guards
// the slot table and deferred-op buffers; the two are never held
// together.
struct Scheduler::WindowEngine {
  WindowEngine(Scheduler* owner, unsigned workers)
      : owner(owner), pool(workers) {}

  // No creator: the event was already queued when the window formed.
  static constexpr std::size_t kNoCreator = ~std::size_t{0};

  struct Event {
    TimePoint at;
    std::uint32_t slot;
    std::uint32_t affinity;
    // Canonical position = (creator chain, idx): for an initial event,
    // idx is its collection (heap pop) order and creator is kNoCreator;
    // for a same-window child, creator indexes the event whose callback
    // scheduled it and idx is the creation order within that creator.
    // exec_before() turns this into exactly the serial (time, sequence)
    // order, at any chain depth.
    std::size_t creator;
    std::uint32_t idx;
    enum class State : std::uint8_t { kReady, kRunning, kDone };
    State state;
    Callback cb;
  };
  // One affinity's window events, in canonical-key order. Execution
  // within a group is strictly sequential (`busy` + the head pointer);
  // distinct groups run concurrently.
  struct Group {
    std::vector<std::size_t> members;  // indices into `events`
    std::size_t next = 0;              // first member not yet done
    bool busy = false;                 // a member is currently running
  };
  // A schedule issued inside the window that lands at or after the
  // window end: buffered, then committed in canonical creator order at
  // the barrier so sequence numbers match serial execution.
  struct PendingOp {
    std::size_t creator;  // index of the issuing event in `events`
    std::uint32_t op;     // creation order within the creator
    TimePoint at;
    std::uint32_t slot;
    std::uint32_t affinity;
    Callback cb;
  };

  // ---- coordinator state (win_mutex) --------------------------------
  util::Mutex win_mutex;
  util::CondVar cv;
  // Bumped on every state change (cv ticket).
  std::uint64_t version GUARDED_BY(win_mutex) = 0;
  // Deque: add_child appends mid-window and references to claimed
  // events must stay stable. Every access — including taking a
  // reference — happens under win_mutex.
  std::deque<Event> events GUARDED_BY(win_mutex);
  std::vector<Group> groups GUARDED_BY(win_mutex);
  // affinity -> group index
  std::unordered_map<std::uint32_t, std::size_t> group_of  // hydra-lint: allow(unordered-member) — lookup-only (try_emplace/at); never iterated, so its order cannot leak into the event sequence
      GUARDED_BY(win_mutex);
  std::uint64_t ran GUARDED_BY(win_mutex) = 0;  // events that executed
  // max at among them: the barrier's now().
  TimePoint last_ran_at GUARDED_BY(win_mutex);

  // ---- deferred-op state (op_mutex) ---------------------------------
  util::Mutex op_mutex;
  TimePoint window_end GUARDED_BY(op_mutex);
  std::vector<PendingOp> pending_ops GUARDED_BY(op_mutex);
  // slot -> affinity for events living inside the current window (both
  // collected ones and same-window children): lets window_cancel tell a
  // legal same-node cancel from a cross-node one.
  std::unordered_map<std::uint32_t, std::uint32_t> resident_affinity  // hydra-lint: allow(unordered-member) — find/erase/empty only; never iterated, so its order cannot leak into the event sequence
      GUARDED_BY(op_mutex);

  Scheduler* owner;
  util::TaskPool pool;
  // Main-thread-only scratch (reused across windows): collect_buf feeds
  // begin(), commit_buf drains pending_ops at the barrier. Neither is
  // ever touched while the pool is running a batch.
  std::vector<Key> collect_buf;
  std::vector<PendingOp> commit_buf;

  // Builds the per-window state from the collected (heap-order) events.
  // Runs single-threaded and lock-free on purpose: no worker can touch
  // this state until the pool's batch handoff publishes it (the workers
  // observe the generation bump under the pool's own mutex), a
  // publication protocol the analysis cannot follow — hence the escape.
  // Each collected event's callback moves out of its slot into the
  // window record; the slot itself stays occupied until execute().
  void begin(std::vector<Key>& collected,
             TimePoint end) NO_THREAD_SAFETY_ANALYSIS {
    events.clear();
    groups.clear();
    group_of.clear();
    pending_ops.clear();
    resident_affinity.clear();
    window_end = end;
    ran = 0;
    last_ran_at = TimePoint::origin();
    for (const Key& key : collected) {
      Slot& slot = owner->slots_[key.slot];
      const std::size_t i = events.size();
      events.push_back(Event{key.at, key.slot, slot.affinity, kNoCreator,
                             static_cast<std::uint32_t>(i),
                             Event::State::kReady, std::move(slot.cb)});
      const auto [it, inserted] =
          group_of.try_emplace(slot.affinity, groups.size());
      if (inserted) groups.emplace_back();
      groups[it->second].members.push_back(i);
      resident_affinity.emplace(key.slot, slot.affinity);
    }
    collected.clear();
  }

  // Strict total order: true iff serial execution runs `a` before `b`.
  // Time-major; at equal instants the serial tie-break is the sequence
  // number, reconstructed structurally: initial events carry pre-window
  // sequences (collection order, below every child's), and children are
  // sequenced in creation order — by creator execution order, then by
  // op within one creator. Recurses up the creator chain, whose depth is
  // bounded by the window's same-node event count. Static over an
  // explicit `events` so callers holding win_mutex can alias the member
  // once and use the comparator from a sort lambda (which the analysis
  // treats as a separate, unannotated function).
  static bool exec_before(const std::deque<Event>& events, std::size_t ai,
                          std::size_t bi) {
    const Event& a = events[ai];
    const Event& b = events[bi];
    if (a.at != b.at) return a.at < b.at;
    if (a.creator == b.creator) return a.idx < b.idx;  // incl. both initial
    if (a.creator == kNoCreator) return true;
    if (b.creator == kNoCreator) return false;
    return exec_before(events, a.creator, b.creator);
  }

  // Runs (or skips, when cancelled) one claimed event. Called without
  // win_mutex; the caller marked it kRunning and set its group busy
  // (which is what makes the unlocked reference to `e` safe: a claimed
  // event is owned by exactly one thread until finish_locked).
  bool execute(std::size_t ei, Event& e) EXCLUDES(win_mutex, op_mutex) {
    bool live = false;
    {
      const util::MutexLock lock(op_mutex);
      if (owner->slots_[e.slot].pending) {
        live = true;
        --owner->pending_count_;
      }
      owner->vacate(e.slot);
      resident_affinity.erase(e.slot);
    }
    if (!live) return false;
    ExecContext ctx;
    ctx.scheduler = owner;
    ctx.in_window = true;
    ctx.at = e.at;
    ctx.affinity = e.affinity;
    ctx.ev = ei;
    ExecContext* const prev = tl_ctx_;
    tl_ctx_ = &ctx;
    e.cb();
    tl_ctx_ = prev;
    return true;
  }

  // Marks a claimed event done and wakes every waiter (group runners
  // blocked on a stolen head, turn waiters watching the minimum).
  void finish_locked(Group& g, Event& e, bool did_run) REQUIRES(win_mutex) {
    e.state = Event::State::kDone;
    ++g.next;
    g.busy = false;
    if (did_run) {
      ++ran;
      if (last_ran_at < e.at) last_ran_at = e.at;
    }
    ++version;
    cv.notify_all();
  }

  // One pool task: drain this group's members in canonical order.
  void run_group(std::size_t gi) EXCLUDES(win_mutex, op_mutex) {
    util::MutexLock lock(win_mutex);
    Group& g = groups[gi];
    for (;;) {
      if (g.next >= g.members.size()) {
        // A stolen member may still be running; the pool barrier must
        // mean "group complete", so wait it out.
        if (!g.busy) return;
        const std::uint64_t v = version;
        while (version == v) cv.wait(win_mutex);
        continue;
      }
      Event& head = events[g.members[g.next]];
      if (g.busy || head.state != Event::State::kReady) {
        // The head was claimed by a turn-waiter's helper-steal; wait
        // for it to finish rather than double-running it.
        const std::uint64_t v = version;
        while (version == v) cv.wait(win_mutex);
        continue;
      }
      head.state = Event::State::kRunning;
      g.busy = true;
      const std::size_t head_idx = g.members[g.next];
      lock.unlock();
      const bool did = execute(head_idx, head);
      lock.lock();
      finish_locked(g, head, did);
    }
  }

  // Blocks the calling window event until its canonical position is the
  // minimum incomplete one. Deadlock-free: the minimum is either ready
  // (helper-steal runs it inline right here — essential on a 1-worker
  // pool, where group tasks run sequentially) or already running on a
  // thread that, by the same rule, can always make progress.
  void wait_for_turn(ExecContext& ctx) EXCLUDES(win_mutex, op_mutex) {
    util::MutexLock lock(win_mutex);
    for (;;) {
      std::size_t min_gi = groups.size();
      std::size_t min_ev = kNoCreator;
      for (std::size_t gi = 0; gi < groups.size(); ++gi) {
        const Group& g = groups[gi];
        if (g.next >= g.members.size()) continue;
        const std::size_t head = g.members[g.next];
        if (min_ev == kNoCreator || exec_before(events, head, min_ev)) {
          min_ev = head;
          min_gi = gi;
        }
      }
      // The caller itself is incomplete, so a minimum always exists and
      // is never past the caller.
      HYDRA_ASSERT(min_gi < groups.size() &&
                   (min_ev == ctx.ev || exec_before(events, min_ev, ctx.ev)));
      if (min_ev == ctx.ev) {
        // Held implicitly until the event completes: it stays its
        // group's incomplete head, so the minimum cannot move past it.
        ctx.turn_held = true;
        return;
      }
      Group& g = groups[min_gi];
      Event& head = events[min_ev];
      if (head.state == Event::State::kReady) {
        // The global minimum never blocks (everything smaller is done,
        // and its children sort after it), so inlining it here always
        // terminates. busy would imply the head is running, not ready.
        HYDRA_ASSERT(!g.busy);
        head.state = Event::State::kRunning;
        g.busy = true;
        lock.unlock();
        const bool did = execute(min_ev, head);
        lock.lock();
        finish_locked(g, head, did);
        continue;
      }
      const std::uint64_t v = version;
      while (version == v) cv.wait(win_mutex);
    }
  }

  // Registers a schedule that lands inside the current window: it joins
  // its creator's group at the canonical position serial execution
  // would give it.
  void add_child(TimePoint at, std::uint32_t slot, const ExecContext& ctx,
                 std::uint32_t op, Callback cb) EXCLUDES(win_mutex) {
    const util::MutexLock lock(win_mutex);
    const std::size_t idx = events.size();
    events.push_back(Event{at, slot, ctx.affinity, ctx.ev, op,
                           Event::State::kReady, std::move(cb)});
    Group& g = groups[group_of.at(ctx.affinity)];
    // Insert in canonical order among the unrun members. The creator is
    // the running head (members[next]) and the child sorts strictly
    // after it, so the position is strictly past the head.
    auto pos = g.members.end();
    const auto floor =
        g.members.begin() + static_cast<std::ptrdiff_t>(g.next) + 1;
    while (pos != floor && exec_before(events, idx, *(pos - 1))) --pos;
    g.members.insert(pos, idx);
    ++version;
    cv.notify_all();
  }
};

thread_local Scheduler::ExecContext* Scheduler::tl_ctx_ = nullptr;
thread_local std::uint32_t Scheduler::tl_affinity_override_ =
    Scheduler::kNoAffinity;
thread_local bool Scheduler::tl_affinity_override_set_ = false;

Scheduler::Scheduler() = default;
Scheduler::~Scheduler() = default;

Scheduler::AffinityScope::AffinityScope(std::uint32_t affinity)
    : prev_(tl_affinity_override_), had_prev_(tl_affinity_override_set_) {
  tl_affinity_override_ = affinity;
  tl_affinity_override_set_ = true;
}

Scheduler::AffinityScope::~AffinityScope() {
  tl_affinity_override_ = prev_;
  tl_affinity_override_set_ = had_prev_;
}

std::uint32_t Scheduler::current_affinity() {
  if (tl_affinity_override_set_) return tl_affinity_override_;
  if (const ExecContext* ctx = tl_ctx_) return ctx->affinity;
  return kNoAffinity;
}

Scheduler::ExecContext* Scheduler::window_ctx() const {
  ExecContext* const ctx = tl_ctx_;
  return (ctx != nullptr && ctx->scheduler == this && ctx->in_window)
             ? ctx
             : nullptr;
}

TimePoint Scheduler::now() const {
  if (const ExecContext* ctx = window_ctx()) return ctx->at;
  return now_;
}

void Scheduler::set_execution(ExecutionPolicy policy, unsigned workers) {
  HYDRA_ASSERT_MSG(tl_ctx_ == nullptr || tl_ctx_->scheduler != this,
                   "cannot change execution policy from inside a callback");
  policy_ = policy;
  if (policy == ExecutionPolicy::kSerial) {
    win_.reset();
    workers_ = 0;
    return;
  }
  if (workers == 0) {
    workers = std::clamp(std::thread::hardware_concurrency(), 1u, 8u);
  }
  if (win_ && workers_ == workers) return;
  win_.reset();
  win_ = std::make_unique<WindowEngine>(this, workers);
  workers_ = workers;
}

void Scheduler::set_lookahead_provider(LookaheadProvider provider) {
  lookahead_ = std::move(provider);
}

void Scheduler::acquire_shared_turn() {
  ExecContext* const ctx = tl_ctx_;
  if (ctx == nullptr || !ctx->in_window || ctx->turn_held) return;
  ctx->scheduler->win_->wait_for_turn(*ctx);
}

std::uint32_t Scheduler::acquire_slot() {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].pending = true;
  ++pending_count_;
  return slot;
}

EventId Scheduler::window_schedule(TimePoint at, std::uint32_t affinity,
                                   Callback cb, ExecContext& ctx) {
  HYDRA_ASSERT_MSG(at >= ctx.at, "cannot schedule into the past");
  HYDRA_ASSERT(cb != nullptr);
  const std::uint32_t op = ctx.next_op++;
  std::uint32_t slot;
  EventId id;
  bool child;
  {
    // The slot is acquired eagerly so the id is valid (and pending())
    // true) the moment this returns; slot *numbers* are allocation-order
    // dependent across threads, but they are unobservable — nothing in
    // a simulation's behaviour reads them.
    const util::MutexLock lock(win_->op_mutex);
    slot = acquire_slot();
    id = EventId(pack_id(slots_[slot].generation, slot));
    child = at < win_->window_end;
    if (!child) {
      win_->pending_ops.push_back(WindowEngine::PendingOp{
          ctx.ev, op, at, slot, affinity, std::move(cb)});
    } else {
      win_->resident_affinity.emplace(slot, ctx.affinity);
    }
  }
  if (child) {
    // A same-window child must stay on its creator's node: anything else
    // would be a cross-node effect inside the lookahead horizon, which
    // the lookahead provider's contract rules out (the medium's fan-outs
    // always land at >= now + lookahead). The assert is the tripwire for
    // a provider that over-promises.
    HYDRA_ASSERT_MSG(affinity == ctx.affinity,
                     "a same-window child must stay on its creator's node");
    win_->add_child(at, slot, ctx, op, std::move(cb));
  }
  return id;
}

EventId Scheduler::schedule_at(TimePoint at, Callback cb) {
  if (ExecContext* const ctx = window_ctx()) {
    return window_schedule(at, current_affinity(), std::move(cb), *ctx);
  }
  HYDRA_ASSERT_MSG(at >= now_, "cannot schedule into the past");
  HYDRA_ASSERT(cb != nullptr);
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.affinity = current_affinity();
  s.cb = std::move(cb);
  heap_.push_back(Key{at, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  // generation >= 1 always, so a packed id is never 0 (the invalid id).
  return EventId(pack_id(s.generation, slot));
}

EventId Scheduler::schedule_in(Duration delay, Callback cb) {
  HYDRA_ASSERT_MSG(!delay.is_negative(), "negative delay");
  return schedule_at(now() + delay, std::move(cb));
}

void Scheduler::schedule_batch(std::vector<BatchEvent>& events,
                               std::vector<EventId>* ids) {
  if (events.empty()) return;
  if (ExecContext* const ctx = window_ctx()) {
    if (ids) ids->reserve(ids->size() + events.size());
    for (auto& event : events) {
      const std::uint32_t affinity = event.affinity == kNoAffinity
                                         ? current_affinity()
                                         : event.affinity;
      const EventId id =
          window_schedule(event.at, affinity, std::move(event.cb), *ctx);
      if (ids) ids->push_back(id);
    }
    events.clear();
    return;
  }
  const std::size_t existing = heap_.size();
  heap_.reserve(existing + events.size());
  if (ids) ids->reserve(ids->size() + events.size());
  for (auto& event : events) {
    HYDRA_ASSERT_MSG(event.at >= now_, "cannot schedule into the past");
    HYDRA_ASSERT(event.cb != nullptr);
    const std::uint32_t slot = acquire_slot();
    Slot& s = slots_[slot];
    if (ids) ids->push_back(EventId(pack_id(s.generation, slot)));
    s.affinity = event.affinity == kNoAffinity ? current_affinity()
                                               : event.affinity;
    s.cb = std::move(event.cb);
    heap_.push_back(Key{event.at, next_seq_++, slot});
  }
  restore_heap(existing);
  events.clear();
}

bool Scheduler::window_cancel(EventId id, ExecContext& ctx) {
  const auto slot = static_cast<std::uint32_t>(id.id_);
  const auto generation = static_cast<std::uint32_t>(id.id_ >> 32);
  const util::MutexLock lock(win_->op_mutex);
  if (slot >= slots_.size()) return false;
  auto& s = slots_[slot];
  if (s.generation != generation || !s.pending) return false;
  const auto res = win_->resident_affinity.find(slot);
  if (res != win_->resident_affinity.end()) {
    // Cancelling an event that lives inside this same window is only
    // deterministic within one group (group order == serial order);
    // across groups the outcome would depend on thread timing.
    HYDRA_ASSERT_MSG(res->second == ctx.affinity,
                     "cross-node cancel of an event inside the window");
  }
  s.pending = false;
  --pending_count_;
  return true;
}

bool Scheduler::cancel(EventId id) {
  if (!id.valid()) return false;
  if (ExecContext* const ctx = window_ctx()) return window_cancel(id, *ctx);
  const auto slot = static_cast<std::uint32_t>(id.id_);
  const auto generation = static_cast<std::uint32_t>(id.id_ >> 32);
  if (slot >= slots_.size()) return false;
  auto& s = slots_[slot];
  // A stale generation means the event already ran (or was already
  // cancelled) and the slot moved on; cancelling it is a no-op that must
  // report failure.
  if (s.generation != generation || !s.pending) return false;
  // Lazy deletion: clear the pending flag; the key is dropped (and the
  // callback released, the slot vacated) when it surfaces.
  s.pending = false;
  --pending_count_;
  return true;
}

bool Scheduler::window_pending(EventId id) const {
  const auto slot = static_cast<std::uint32_t>(id.id_);
  const auto generation = static_cast<std::uint32_t>(id.id_ >> 32);
  const util::MutexLock lock(win_->op_mutex);
  if (slot >= slots_.size()) return false;
  const auto& s = slots_[slot];
  return s.generation == generation && s.pending;
}

bool Scheduler::pending(EventId id) const {
  if (!id.valid()) return false;
  if (window_ctx() != nullptr) return window_pending(id);
  const auto slot = static_cast<std::uint32_t>(id.id_);
  const auto generation = static_cast<std::uint32_t>(id.id_ >> 32);
  if (slot >= slots_.size()) return false;
  const auto& s = slots_[slot];
  return s.generation == generation && s.pending;
}

void Scheduler::vacate(std::uint32_t slot) {
  auto& s = slots_[slot];
  s.pending = false;
  // Bumping the generation invalidates every id handed out for this
  // occupancy. Wrap-around after 2^32 reuses of one slot is accepted:
  // a handle would have to be held across four billion rearms of the
  // same slot to alias.
  ++s.generation;
  if (s.generation == 0) s.generation = 1;  // keep packed ids non-zero
  free_slots_.push_back(slot);
}

void Scheduler::drop_head() {
  const std::uint32_t slot = pop_key().slot;
  // Moved out first: the callback's destructor may schedule, which can
  // reallocate slots_.
  const Callback dead = std::move(slots_[slot].cb);
  vacate(slot);
}

Scheduler::Key Scheduler::pop_key() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key top = heap_.back();
  heap_.pop_back();
  return top;
}

void Scheduler::restore_heap(std::size_t existing) {
  if (heap_.size() - existing >= existing / 8) {
    std::make_heap(heap_.begin(), heap_.end(), Later{});
  } else {
    for (std::size_t i = existing; i < heap_.size(); ++i) {
      std::push_heap(heap_.begin(),
                     heap_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                     Later{});
    }
  }
}

std::optional<TimePoint> Scheduler::peek_next_time() {
  while (!heap_.empty()) {
    if (slots_[heap_.front().slot].pending) return heap_.front().at;
    drop_head();
  }
  return std::nullopt;
}

void Scheduler::pop_and_run() {
  const Key key = pop_key();
  Slot& s = slots_[key.slot];
  const bool live = s.pending;
  const std::uint32_t affinity = s.affinity;
  Callback cb = std::move(s.cb);
  vacate(key.slot);
  if (!live) return;  // cancelled; already discounted from pending_count_
  --pending_count_;
  HYDRA_ASSERT(key.at >= now_);
  now_ = key.at;
  ++executed_;
  // Children scheduled from the callback inherit the event's affinity.
  ExecContext ctx;
  ctx.scheduler = this;
  ctx.at = key.at;
  ctx.affinity = affinity;
  ExecContext* const prev = tl_ctx_;
  tl_ctx_ = &ctx;
  cb();
  tl_ctx_ = prev;
}

bool Scheduler::run_parallel_window(TimePoint deadline) {
  if (!win_ || !lookahead_) return false;
  const Duration look = lookahead_();
  if (look <= Duration::zero() || look == Duration::infinite()) return false;
  WindowEngine& win = *win_;
  // The caller peeked, so the head is live; its time anchors the window.
  const TimePoint window_end = heap_.front().at + look;
  auto& collected = win.collect_buf;
  collected.clear();
  while (!heap_.empty()) {
    const Key head = heap_.front();
    if (head.at >= window_end || head.at > deadline) break;
    const Slot& s = slots_[head.slot];
    if (!s.pending) {  // cancelled: drop lazily
      drop_head();
      continue;
    }
    // An untagged event may touch anything, so it fences the window:
    // everything before it runs in the window, it runs serially after
    // the barrier. Partially tagged workloads stay correct, just less
    // parallel.
    if (s.affinity == kNoAffinity) break;
    collected.push_back(pop_key());
  }
  if (collected.empty()) return false;
  win.begin(collected, window_end);

  const std::size_t group_count = win.groups.size();
  win.pool.parallel_for(group_count,
                        [&win](std::size_t gi) { win.run_group(gi); });

  // ---- barrier: advance the clock, commit deferred schedules --------
  // The pool barrier means every worker is done, so this section is
  // single-threaded again; the locks below are uncontended and taken
  // one at a time (win_mutex and op_mutex are never held together —
  // the deferred ops move through the main-thread commit_buf between
  // the two critical sections).
  {
    const util::MutexLock lock(win.win_mutex);
    if (win.ran > 0) {
      HYDRA_ASSERT(win.last_ran_at >= now_);
      now_ = win.last_ran_at;
      executed_ += win.ran;
    }
    ++windows_;
    if (group_count > 1) parallel_events_ += win.ran;
  }

  auto& ops = win.commit_buf;
  {
    const util::MutexLock lock(win.op_mutex);
    ops.swap(win.pending_ops);
  }
  if (!ops.empty()) {
    // Canonical creator order: exactly the order serial execution would
    // have issued these schedules in, so the contiguous sequence
    // numbers assigned here reproduce serial same-instant FIFO. The
    // comparator recurses through the window's event records, so the
    // sort runs under win_mutex (aliased locally: the analysis cannot
    // follow lock state into the sort lambda).
    {
      const util::MutexLock lock(win.win_mutex);
      const auto& events = win.events;
      std::sort(ops.begin(), ops.end(),
                [&events](const WindowEngine::PendingOp& a,
                          const WindowEngine::PendingOp& b) {
                  if (a.creator != b.creator) {
                    return WindowEngine::exec_before(events, a.creator,
                                                     b.creator);
                  }
                  return a.op < b.op;
                });
    }
    const std::size_t existing = heap_.size();
    heap_.reserve(existing + ops.size());
    for (auto& op : ops) {
      HYDRA_ASSERT(op.at >= now_);
      // A deferred schedule cancelled later in the same window kept its
      // slot non-pending; queueing it anyway reproduces the serial lazy
      // cancel (the key is dropped when it surfaces).
      Slot& s = slots_[op.slot];
      s.affinity = op.affinity;
      s.cb = std::move(op.cb);
      heap_.push_back(Key{op.at, next_seq_++, op.slot});
    }
    restore_heap(existing);
    ops.clear();
  }
  {
    // Every resident either ran or was dropped as cancelled by its
    // group.
    const util::MutexLock lock(win.op_mutex);
    HYDRA_ASSERT(win.resident_affinity.empty());
  }
  return true;
}

std::size_t Scheduler::run() {
  const auto before = executed_;
  while (peek_next_time()) {
    if (policy_ == ExecutionPolicy::kParallelWindows &&
        run_parallel_window(TimePoint::at(Duration::infinite()))) {
      continue;
    }
    pop_and_run();
  }
  return executed_ - before;
}

std::size_t Scheduler::run_until(TimePoint deadline) {
  const auto before = executed_;
  for (;;) {
    const auto next = peek_next_time();
    if (!next || *next > deadline) break;
    if (policy_ == ExecutionPolicy::kParallelWindows &&
        run_parallel_window(deadline)) {
      continue;
    }
    pop_and_run();
  }
  if (now_ < deadline) now_ = deadline;
  return executed_ - before;
}

bool Scheduler::step() {
  if (!peek_next_time()) return false;
  pop_and_run();
  return true;
}

}  // namespace hydra::sim
