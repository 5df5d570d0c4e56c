#include "core/queues.h"

#include "util/assert.h"

namespace hydra::core {

bool SubframeQueue::push(proto::MacSubframe subframe, sim::TimePoint now) {
  if (size() >= limit_) {
    ++drops_;
    return false;
  }
  q_.push_back(QueuedSubframe{std::move(subframe), now});
  return true;
}

QueuedSubframe SubframeQueue::pop() {
  HYDRA_ASSERT(!empty());
  QueuedSubframe out = std::move(q_[head_]);
  ++head_;
  if (head_ == q_.size()) {
    q_.clear();  // keeps the capacity for the next burst
    head_ = 0;
  } else if (2 * head_ >= q_.size()) {
    q_.erase(q_.begin(), q_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  return out;
}

std::optional<sim::TimePoint> DualQueue::oldest_enqueue() const {
  std::optional<sim::TimePoint> oldest;
  if (const auto* b = broadcast_.front()) oldest = b->enqueued;
  if (const auto* u = unicast_.front()) {
    if (!oldest || u->enqueued < *oldest) oldest = u->enqueued;
  }
  return oldest;
}

}  // namespace hydra::core
