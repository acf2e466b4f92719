// Discrete-event simulation core: a 4-ary min-heap over intrusive,
// pool-recycled event nodes.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/callback.h"
#include "sim/time.h"

namespace cd::sim {

using EventId = std::uint64_t;

/// Single-threaded discrete event loop. Events scheduled for the same time
/// run in scheduling order (stable). Cancellation is O(1).
///
/// The engine is a 4-ary min-heap of 24-byte {at, seq, node} entries over
/// intrusive pooled event nodes with small-buffer-optimized callbacks — zero
/// steady-state heap allocations per scheduled event. `seq` is the
/// scheduling counter, so events due at the same tick pop in scheduling
/// order by construction. Its observable semantics (execution order,
/// same-tick FIFO, cancellation, now()/executed() trajectories) are
/// differentially tested against a plain priority-queue reference engine
/// that lives with the tests (tests/support/reference_event_loop.h).
class EventLoop {
 public:
  /// Scheduling callback. Move-only; callables up to SmallFn::kInlineSize
  /// bytes are stored inline (no heap allocation on the scheduling path).
  using Callback = SmallFn;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;
  ~EventLoop();

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `fn` at absolute time `at` (clamped to [now, kSimTimeMax]).
  /// Returns an id usable with cancel().
  EventId schedule_at(SimTime at, Callback fn);

  /// Schedule `fn` after `delay` from now. Negative delays clamp to zero and
  /// sentinel-large delays saturate at kSimTimeMax instead of wrapping.
  EventId schedule_in(SimTime delay, Callback fn);

  /// Prevent a pending event from running. Safe on already-run ids.
  void cancel(EventId id);

  /// Runs events until the queue drains. `max_events` guards against
  /// runaway self-scheduling loops (throws InvariantError when exceeded).
  void run(std::uint64_t max_events = UINT64_MAX);

  /// Runs events with time <= `until`; leaves later events queued and
  /// advances now() to `until`.
  void run_until(SimTime until, std::uint64_t max_events = UINT64_MAX);

  /// Pending (scheduled, not cancelled, not yet run) events.
  [[nodiscard]] std::size_t pending() const { return live_; }
  /// Events executed so far.
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

 private:
  static constexpr std::size_t kNodesPerChunk = 64;
  static constexpr std::size_t kArity = 4;

  /// Intrusive event node: the SBO callback plus the id and cancellation
  /// state. Recycled through a free list; `gen` invalidates stale EventIds
  /// on reuse.
  struct Node {
    Node* next = nullptr;  // free-list link
    std::uint32_t index = 0;  // position in the node pool (id encoding)
    std::uint32_t gen = 0;
    bool queued = false;     // referenced by a heap entry
    bool cancelled = false;
    Callback fn;
  };

  /// Heap entry, ordered by (at, seq). `seq` counts schedule calls, so it
  /// breaks every time tie in scheduling order.
  struct Entry {
    SimTime at;
    std::uint64_t seq;
    Node* node;
  };

  [[nodiscard]] static bool earlier(const Entry& a, const Entry& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }

  [[nodiscard]] static EventId node_id(const Node* n) {
    return (static_cast<EventId>(n->gen) << 32) |
           static_cast<EventId>(n->index + 1);
  }

  void run_impl(SimTime until, std::uint64_t max_events, const char* what);

  Node* alloc_node();
  void recycle_node(Node* n);
  [[nodiscard]] Node* node_for(EventId id);

  void heap_push(Entry e);
  /// Removes heap_.front().
  void heap_pop();

  SimTime now_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t next_seq_ = 0;

  // Everything is pooled and reaches a steady state where scheduling
  // allocates nothing.
  std::vector<Entry> heap_;
  std::size_t live_ = 0;  // queued, non-cancelled nodes
  std::vector<Node*> chunks_;
  Node* free_nodes_ = nullptr;
};

}  // namespace cd::sim
