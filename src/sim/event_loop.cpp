#include "sim/event_loop.h"

#include <algorithm>

#include "util/error.h"

namespace cd::sim {

EventLoop::~EventLoop() {
  for (Node* chunk : chunks_) delete[] chunk;
}

EventId EventLoop::schedule_at(SimTime at, Callback fn) {
  Node* n = alloc_node();
  n->fn = std::move(fn);
  n->queued = true;
  ++live_;
  heap_push(Entry{std::min(std::max(at, now_), kSimTimeMax), next_seq_++, n});
  return node_id(n);
}

EventId EventLoop::schedule_in(SimTime delay, Callback fn) {
  delay = std::max<SimTime>(0, delay);
  // Saturating add: a sentinel-large delay must pin to the far future, not
  // wrap SimTime negative and fire immediately.
  const SimTime at =
      delay > kSimTimeMax - now_ ? kSimTimeMax : now_ + delay;
  return schedule_at(at, std::move(fn));
}

void EventLoop::cancel(EventId id) {
  Node* n = node_for(id);
  // Only a queued node can be cancelled: a free-list node whose generation
  // happens to match a guessed id is inert (ids of executed events never
  // match again; recycle bumped the generation). The node stays in the heap
  // as a husk until it reaches the top.
  if (n == nullptr || n->cancelled || !n->queued) return;
  n->cancelled = true;
  --live_;
}

void EventLoop::run(std::uint64_t max_events) {
  run_impl(kSimTimeMax, max_events, "EventLoop::run exceeded max_events");
}

void EventLoop::run_until(SimTime until, std::uint64_t max_events) {
  until = std::min(until, kSimTimeMax);
  run_impl(until, max_events, "EventLoop::run_until exceeded max_events");
  now_ = std::max(now_, until);
}

void EventLoop::run_impl(SimTime until, std::uint64_t max_events,
                         const char* what) {
  std::uint64_t n = 0;
  while (!heap_.empty()) {
    const Entry top = heap_.front();
    Node* node = top.node;
    // Husks are pruned before the time guard, and pruning one does not move
    // the clock: now() only ever takes the time of an executed event.
    if (node->cancelled) {
      heap_pop();
      recycle_node(node);
      continue;
    }
    if (top.at > until) return;
    heap_pop();
    --live_;
    now_ = top.at;
    Callback fn = std::move(node->fn);
    // Recycle before invoking: the callback may schedule (reusing this node)
    // or cancel its own id (generation bumped -> safe no-op).
    recycle_node(node);
    ++executed_;
    fn();
    CD_ENSURE(++n <= max_events, what);
  }
}

EventLoop::Node* EventLoop::alloc_node() {
  if (free_nodes_ == nullptr) {
    Node* chunk = new Node[kNodesPerChunk];
    chunks_.push_back(chunk);
    const auto base =
        static_cast<std::uint32_t>((chunks_.size() - 1) * kNodesPerChunk);
    for (std::size_t i = kNodesPerChunk; i-- > 0;) {
      chunk[i].index = base + static_cast<std::uint32_t>(i);
      chunk[i].next = free_nodes_;
      free_nodes_ = &chunk[i];
    }
  }
  Node* n = free_nodes_;
  free_nodes_ = n->next;
  n->next = nullptr;
  return n;
}

void EventLoop::recycle_node(Node* n) {
  n->fn.reset();
  n->queued = n->cancelled = false;
  ++n->gen;  // invalidates every EventId handed out for this incarnation
  n->next = free_nodes_;
  free_nodes_ = n;
}

EventLoop::Node* EventLoop::node_for(EventId id) {
  const std::uint64_t low = id & 0xFFFFFFFFull;
  if (low == 0) return nullptr;
  const std::size_t index = static_cast<std::size_t>(low - 1);
  if (index >= chunks_.size() * kNodesPerChunk) return nullptr;
  Node* n = &chunks_[index / kNodesPerChunk][index % kNodesPerChunk];
  if (n->gen != static_cast<std::uint32_t>(id >> 32)) return nullptr;
  return n;
}

void EventLoop::heap_push(Entry e) {
  std::size_t i = heap_.size();
  heap_.push_back(e);
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventLoop::heap_pop() {
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t size = heap_.size();
  if (size == 0) return;
  // Sift the hole at the root down to where the former last entry fits.
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= size) break;
    const std::size_t end = std::min(first + kArity, size);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

}  // namespace cd::sim
