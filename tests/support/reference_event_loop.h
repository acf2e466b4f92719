// Test-side reference event engine: the std::priority_queue implementation
// the production engine (sim/event_loop.h) first replaced, kept only as the
// differential oracle for tests/test_sim_event_core.cpp. It has the same
// observable contract as sim::EventLoop — time order, same-tick FIFO by
// scheduling order, O(1) cancellation, the run/run_until clock rules and the
// max_events guard — in the most obvious possible form.
#pragma once

#include <algorithm>
#include <cstdint>
#include <queue>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/callback.h"
#include "sim/event_loop.h"
#include "sim/time.h"
#include "util/error.h"

namespace cd::sim::testing {

class ReferenceEventLoop {
 public:
  using Callback = SmallFn;

  [[nodiscard]] SimTime now() const { return now_; }

  EventId schedule_at(SimTime at, Callback fn) {
    const EventId id = next_id_++;
    queue_.push(
        Event{std::min(std::max(at, now_), kSimTimeMax), id, std::move(fn)});
    return id;
  }

  EventId schedule_in(SimTime delay, Callback fn) {
    delay = std::max<SimTime>(0, delay);
    const SimTime at = delay > kSimTimeMax - now_ ? kSimTimeMax : now_ + delay;
    return schedule_at(at, std::move(fn));
  }

  void cancel(EventId id) { cancelled_.insert(id); }

  void run(std::uint64_t max_events = UINT64_MAX) {
    std::uint64_t n = 0;
    while (pop_one(n, max_events, "ReferenceEventLoop::run exceeded max_events")) {
    }
  }

  void run_until(SimTime until, std::uint64_t max_events = UINT64_MAX) {
    until = std::min(until, kSimTimeMax);
    std::uint64_t n = 0;
    while (!queue_.empty()) {
      // Prune cancelled tombstones BEFORE the time guard, so a cancelled
      // head never lets pop_one run the next real event past `until`.
      const Event& top = queue_.top();
      const auto it = cancelled_.find(top.id);
      if (it != cancelled_.end()) {
        cancelled_.erase(it);
        queue_.pop();
        continue;
      }
      if (top.at > until) break;
      if (!pop_one(n, max_events,
                   "ReferenceEventLoop::run_until exceeded max_events")) {
        break;
      }
    }
    now_ = std::max(now_, until);
  }

  [[nodiscard]] std::size_t pending() const {
    return queue_.size() - std::min(queue_.size(), cancelled_.size());
  }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

 private:
  struct Event {
    SimTime at;
    EventId id;
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.id > b.id;
    }
  };

  bool pop_one(std::uint64_t& n, std::uint64_t max_events, const char* what) {
    while (!queue_.empty()) {
      // priority_queue::top() is const; moving out before pop is safe
      // because the element is removed immediately after.
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      if (cancelled_.erase(ev.id) > 0) continue;
      now_ = ev.at;
      ++executed_;
      ev.fn();
      CD_ENSURE(++n <= max_events, what);
      return true;
    }
    return false;
  }

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_set<EventId> cancelled_;
  SimTime now_ = 0;
  EventId next_id_ = 1;
  std::uint64_t executed_ = 0;
};

}  // namespace cd::sim::testing
