// Bounded duplicate suppression: the last N distinct keys remembered.
//
// The MAC's retransmission dedup and route discovery's RREQ dedup both
// keep a membership set plus an eviction order. The order lives in a
// fixed N-slot ring that allocates on the first remember(), so a node
// that never sees a duplicate-suppressed frame pays nothing for it at
// build time (a std::deque allocates a map and a block on construction).
#pragma once

#include <cstddef>
#include <unordered_set>
#include <utility>
#include <vector>

namespace hydra::util {

template <typename Key, std::size_t N>
class RecentKeys {
  static_assert(N > 0, "an empty window remembers nothing");

 public:
  bool contains(const Key& key) const { return members_.contains(key); }

  // Adds `key`; false (and no change) when it is already a member. A key
  // stays a member until N newer distinct keys have been remembered, at
  // which point the oldest is forgotten and would be accepted again.
  bool remember(const Key& key) {
    if (!members_.insert(key).second) return false;
    if (order_.size() < N) {
      if (order_.empty()) order_.reserve(N);
      order_.push_back(key);
    } else {
      members_.erase(std::exchange(order_[oldest_], key));
      oldest_ = oldest_ + 1 == N ? 0 : oldest_ + 1;
    }
    return true;
  }

  std::size_t size() const { return order_.size(); }

 private:
  std::unordered_set<Key> members_;  // hydra-lint: allow(unordered-member) — contains/insert/erase only; eviction walks order_, never the set
  // Insertion order; once full, a ring whose oldest entry is oldest_.
  std::vector<Key> order_;
  std::size_t oldest_ = 0;
};

}  // namespace hydra::util
