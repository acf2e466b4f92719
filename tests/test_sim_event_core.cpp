// The event-core equivalence guarantee: the 4-ary heap engine
// (sim::EventLoop) must be observably identical to the plain priority-queue
// engine that lives on test-side as a reference
// (tests/support/reference_event_loop.h).
//
// Two layers of evidence:
//  1. A property test interprets randomized schedule/cancel/run programs
//     (with nested scheduling and cancellation from inside callbacks)
//     against both engines and demands the exact same execution trace —
//     tags, firing times, clock trajectory. Failures greedily delta-debug
//     themselves down to a minimal reproducing program. The programs date
//     from the hierarchical timing wheel the heap replaced, so they also
//     sweep times across every byte of a SimTime.
//  2. Targeted regressions for hard edges: same-tick FIFO for events
//     scheduled from different distances, 10,000 same-tick events through
//     cancels, far-future times, schedule_in overflow saturation, cancel of
//     already-fired ids.
//
// Whole campaigns are pinned by the campaign digest table
// (tests/support/campaign_pins.h) and the golden capture (test_golden_pcap).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_loop.h"
#include "support/reference_event_loop.h"
#include "util/rng.h"

namespace {

using namespace cd;
using sim::EventLoop;
using sim::SimTime;
using sim::testing::ReferenceEventLoop;

// --- randomized differential interpreter -------------------------------------

struct Op {
  enum Kind : std::uint8_t {
    kScheduleAt,
    kScheduleIn,
    kCancel,
    kRunUntil,
    kRun,
    kRunFor,  // run_until(now + t)
  };
  Kind kind = kScheduleAt;
  SimTime t = 0;           // absolute time / delay / run_until bound
  std::size_t ref = 0;     // cancel: index into the ids issued so far
  std::uint32_t tag = 0;   // trace identity; also drives nested behavior
};

const char* kind_name(Op::Kind k) {
  switch (k) {
    case Op::kScheduleAt: return "schedule_at";
    case Op::kScheduleIn: return "schedule_in";
    case Op::kCancel: return "cancel";
    case Op::kRunUntil: return "run_until";
    case Op::kRun: return "run";
    case Op::kRunFor: return "run_for";
  }
  return "?";
}

/// One trace entry per executed callback (tag + firing time); run/run_until
/// ops append a sentinel entry carrying the post-run clock, pinning the
/// run_until clock-advance rule as well.
struct Trace {
  std::vector<std::pair<std::uint32_t, SimTime>> entries;
  std::uint64_t executed = 0;
  std::size_t final_pending = 0;
  SimTime final_now = 0;

  friend bool operator==(const Trace&, const Trace&) = default;
};

constexpr std::uint32_t kRunMarker = 0xFFFFFFFF;
constexpr std::uint32_t kNestedBit = 0x80000000;

/// Interprets `ops` on a fresh loop of engine `Loop`. Callbacks with certain
/// tags re-enter the loop (schedule a nested event, or cancel an earlier
/// id) — behavior derived from the tag alone, so both engines see the same
/// nested program iff their execution orders match.
template <typename Loop>
Trace interpret(const std::vector<Op>& ops) {
  Loop loop;
  Trace trace;
  std::vector<sim::EventId> ids;

  struct Ctx {
    Loop& loop;
    Trace& trace;
    std::vector<sim::EventId>& ids;
  } ctx{loop, trace, ids};

  // Shared callback body (value-captured ctx pointer: 16 bytes, inline in
  // SmallFn). Declared as a struct so it can recurse via schedule.
  struct Fire {
    static void run(Ctx* c, std::uint32_t tag) {
      c->trace.entries.emplace_back(tag, c->loop.now());
      if ((tag & kNestedBit) == 0) {
        if (tag % 7 == 3) {
          const std::uint32_t nested = tag | kNestedBit;
          const auto delay = static_cast<SimTime>(tag % 50);
          c->ids.push_back(c->loop.schedule_in(
              delay, [c, nested] { Fire::run(c, nested); }));
        }
        if (tag % 11 == 5 && !c->ids.empty()) {
          c->loop.cancel(c->ids[tag % c->ids.size()]);
        }
      }
    }
  };

  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::kScheduleAt: {
        const std::uint32_t tag = op.tag;
        ids.push_back(
            loop.schedule_at(op.t, [&ctx, tag] { Fire::run(&ctx, tag); }));
        break;
      }
      case Op::kScheduleIn: {
        const std::uint32_t tag = op.tag;
        ids.push_back(
            loop.schedule_in(op.t, [&ctx, tag] { Fire::run(&ctx, tag); }));
        break;
      }
      case Op::kCancel:
        if (!ids.empty()) loop.cancel(ids[op.ref % ids.size()]);
        break;
      case Op::kRunUntil:
        loop.run_until(op.t, 1'000'000);
        trace.entries.emplace_back(kRunMarker, loop.now());
        break;
      case Op::kRun:
        loop.run(1'000'000);
        trace.entries.emplace_back(kRunMarker, loop.now());
        break;
      case Op::kRunFor:
        loop.run_until(loop.now() + op.t, 1'000'000);
        trace.entries.emplace_back(kRunMarker, loop.now());
        break;
    }
  }
  loop.run(1'000'000);  // drain everything, however far in the future
  trace.executed = loop.executed();
  trace.final_pending = loop.pending();
  trace.final_now = loop.now();
  return trace;
}

/// Times drawn across every byte of a SimTime (each a level of the retired
/// timing wheel) — same-tick collisions, short and mid-range delays, and
/// far-future instants near kSimTimeMax.
SimTime gen_time(Rng& rng) {
  switch (rng.uniform(8)) {
    case 0: return static_cast<SimTime>(rng.uniform(4));        // dense ties
    case 1: return static_cast<SimTime>(rng.uniform(256));      // level 0
    case 2: return static_cast<SimTime>(rng.uniform(1 << 16));  // level 1
    case 3: return static_cast<SimTime>(rng.uniform(1u << 24)); // level 2
    case 4: return static_cast<SimTime>(rng.uniform(1ull << 40));
    case 5: return static_cast<SimTime>(rng.uniform(1ull << 56));
    case 6: return sim::kSimTimeMax - static_cast<SimTime>(rng.uniform(512));
    default: return static_cast<SimTime>(rng.uniform(100'000));
  }
}

std::vector<Op> gen_program(std::uint64_t seed, std::size_t n_ops) {
  Rng rng(seed);
  std::vector<Op> ops;
  ops.reserve(n_ops);
  for (std::size_t i = 0; i < n_ops; ++i) {
    Op op;
    op.tag = static_cast<std::uint32_t>(i) & ~kNestedBit;
    const std::uint64_t pick = rng.uniform(100);
    if (pick < 60) {
      op.kind = Op::kScheduleAt;
      op.t = gen_time(rng);
    } else if (pick < 75) {
      op.kind = Op::kScheduleIn;
      // Includes schedule_in(0) and sentinel-huge delays that must saturate.
      op.t = rng.uniform(10) == 0 ? 0 : gen_time(rng);
      if (rng.uniform(50) == 0) op.t = INT64_MAX - 1;
    } else if (pick < 85) {
      op.kind = Op::kCancel;  // may hit pending OR already-fired ids
      op.ref = rng.uniform(1u << 16);
    } else if (pick < 97) {
      op.kind = Op::kRunUntil;
      op.t = gen_time(rng);
    } else {
      op.kind = Op::kRun;
    }
    ops.push_back(op);
  }
  return ops;
}

bool diverges(const std::vector<Op>& ops) {
  return !(interpret<EventLoop>(ops) == interpret<ReferenceEventLoop>(ops));
}

/// Greedy delta-debugging: repeatedly drop chunks (halving the chunk size)
/// while the program still diverges. Cancel ops index ids positionally, so
/// any subsequence is still a valid program.
std::vector<Op> shrink(std::vector<Op> ops) {
  for (std::size_t chunk = ops.size() / 2; chunk >= 1; chunk /= 2) {
    bool removed_any = true;
    while (removed_any) {
      removed_any = false;
      for (std::size_t start = 0; start + chunk <= ops.size();) {
        std::vector<Op> candidate;
        candidate.reserve(ops.size() - chunk);
        candidate.insert(candidate.end(), ops.begin(),
                         ops.begin() + static_cast<std::ptrdiff_t>(start));
        candidate.insert(
            candidate.end(),
            ops.begin() + static_cast<std::ptrdiff_t>(start + chunk),
            ops.end());
        if (diverges(candidate)) {
          ops = std::move(candidate);
          removed_any = true;
        } else {
          start += chunk;
        }
      }
    }
  }
  return ops;
}

std::string format_program(const std::vector<Op>& ops) {
  std::ostringstream out;
  for (const Op& op : ops) {
    out << "  " << kind_name(op.kind) << " t=" << op.t << " ref=" << op.ref
        << " tag=" << op.tag << "\n";
  }
  return out.str();
}

TEST(EventCoreProperty, RandomProgramsMatchReferenceExactly) {
  // ~6 x 2500 ops x ~75% schedule ops (plus nested schedules) comfortably
  // exceeds 10k differentially-checked events.
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 99ull, 1337ull, 2020ull}) {
    std::vector<Op> ops = gen_program(seed, 2500);
    if (diverges(ops)) {
      const std::vector<Op> minimal = shrink(std::move(ops));
      FAIL() << "engine diverges from reference; seed=" << seed
             << "; minimal program (" << minimal.size() << " ops):\n"
             << format_program(minimal);
    }
  }
}

TEST(EventCoreProperty, CancelHeavyProgramsMatchReferenceExactly) {
  // A second distribution: mostly cancels and run_until, catching clock
  // advancement through cancelled-only stretches of the queue.
  for (const std::uint64_t seed : {3ull, 5ull, 11ull}) {
    Rng rng(seed);
    std::vector<Op> ops;
    for (std::size_t i = 0; i < 1500; ++i) {
      Op op;
      op.tag = static_cast<std::uint32_t>(i) & ~kNestedBit;
      const std::uint64_t pick = rng.uniform(10);
      if (pick < 3) {
        op.kind = Op::kScheduleAt;
        op.t = gen_time(rng);
      } else if (pick < 7) {
        op.kind = Op::kCancel;
        op.ref = rng.uniform(1u << 16);
      } else {
        op.kind = Op::kRunUntil;
        op.t = gen_time(rng);
      }
      ops.push_back(op);
    }
    if (diverges(ops)) {
      const std::vector<Op> minimal = shrink(std::move(ops));
      FAIL() << "engine diverges from reference; seed=" << seed
             << "; minimal program (" << minimal.size() << " ops):\n"
             << format_program(minimal);
    }
  }
}

/// Sparse far-future programs, written for the retired timing wheel and kept
/// as they were: each round puts a few events on wheel levels
/// 3-7 (a delay in [2^(8L), 2^(8L+1)) lands on level L), sometimes cancels
/// one, then runs a stretch that reaches some of them or drains the wheel.
/// Levels fill from empty and empty again over and over — on schedule and
/// cascade, and when a level's last slot is collected or popped — so the
/// wheel's search for the earliest due boundary is checked against the
/// reference at every such change. Level-7 delays stay below 2^57, and for the 40 seeds the test
/// runs every round ends more than 2^57 short of kSimTimeMax (2^62; the
/// clock ends at 39-83% of it), so level 7 stays reachable throughout.
std::vector<Op> gen_sparse_program(std::uint64_t seed, std::size_t rounds) {
  Rng rng(seed);
  std::vector<Op> ops;
  std::uint32_t tag = 0;
  const auto delay_on_level = [&rng](int level) {
    const std::uint64_t low = 1ull << (8 * level);
    return static_cast<SimTime>(low + rng.uniform(low));
  };
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::size_t events = 1 + rng.uniform(3);
    SimTime furthest = 0;
    for (std::size_t e = 0; e < events; ++e) {
      Op op;
      op.kind = Op::kScheduleIn;
      op.tag = tag++ & ~kNestedBit;
      op.t = delay_on_level(3 + static_cast<int>(rng.uniform(5)));
      furthest = std::max(furthest, op.t);
      ops.push_back(op);
    }
    if (rng.uniform(4) == 0) {
      Op op;
      op.kind = Op::kCancel;
      op.ref = rng.uniform(1u << 16);
      ops.push_back(op);
    }
    Op run;
    switch (rng.uniform(3)) {
      case 0: run.kind = Op::kRun; break;  // drains every level
      case 1:  // stops short of the furthest event
        run.kind = Op::kRunFor;
        run.t = static_cast<SimTime>(rng.uniform(
            static_cast<std::uint64_t>(furthest)));
        break;
      default:  // just past the furthest event
        run.kind = Op::kRunFor;
        run.t = furthest + static_cast<SimTime>(rng.uniform(256));
        break;
    }
    run.tag = tag++ & ~kNestedBit;
    ops.push_back(run);
  }
  return ops;
}

TEST(EventCoreProperty, SparseFarFutureProgramsMatchReferenceExactly) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    std::vector<Op> ops = gen_sparse_program(seed, 80);
    if (diverges(ops)) {
      const std::vector<Op> minimal = shrink(std::move(ops));
      FAIL() << "engine diverges from reference; seed=" << seed
             << "; minimal program (" << minimal.size() << " ops):\n"
             << format_program(minimal);
    }
  }
}

// --- targeted edges -----------------------------------------------------------

/// Every edge case runs on the production engine AND the reference, so the
/// pair pins the same contract.
template <typename Loop>
class EventCore : public ::testing::Test {};
using Engines = ::testing::Types<EventLoop, ReferenceEventLoop>;
TYPED_TEST_SUITE(EventCore, Engines);

TYPED_TEST(EventCore, SameTickFifoAcrossCascadeLevels) {
  // Ten events for one far-future tick, scheduled from progressively closer
  // times (on the retired timing wheel they entered DIFFERENT levels and
  // only met in the level-0 slot after cascading). FIFO must still hold.
  TypeParam loop;
  constexpr SimTime target = (SimTime{3} << 40) + 123;
  std::vector<int> order;
  int next = 0;
  // Every 2^36 ticks, schedule one more callback for `target`.
  std::function<void()> step = [&] {
    loop.schedule_at(target, [&order, i = next] { order.push_back(i); });
    ++next;
    if (next < 10) loop.schedule_in(SimTime{1} << 36, step);
  };
  loop.schedule_at(0, step);
  loop.run();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
  EXPECT_EQ(loop.now(), target);
}

TYPED_TEST(EventCore, SameTickFifoWhenTwoLevelsCascadeTogether) {
  // Regression from the retired timing wheel: `a` is scheduled first from
  // far away (level 2 of the wheel), `b` later and from closer (level 1) for the same tick, and one
  // cursor move (to 0x10000) enters both of their slots. Cascading those
  // slots one level at a time put `b` ahead of `a`; `a` must run first.
  TypeParam loop;
  constexpr SimTime target = 0x10005;
  std::vector<char> order;
  loop.schedule_at(target, [&] { order.push_back('a'); });
  loop.schedule_at(0xFF00, [&] {
    loop.schedule_at(target, [&] { order.push_back('b'); });
  });
  loop.run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'b'}));
  EXPECT_EQ(loop.now(), target);
}

TYPED_TEST(EventCore, FarFutureTimesSpanEveryLevel) {
  TypeParam loop;
  std::vector<SimTime> fired;
  // One event per byte of the delta: 2^(8k) + k.
  for (int k = 0; k < 8; ++k) {
    const SimTime at = (SimTime{1} << (8 * k)) + k;
    loop.schedule_at(at, [&fired, &loop] { fired.push_back(loop.now()); });
  }
  loop.run();
  ASSERT_EQ(fired.size(), 8u);
  for (int k = 0; k < 8; ++k) {
    EXPECT_EQ(fired[static_cast<std::size_t>(k)], (SimTime{1} << (8 * k)) + k);
  }
}

TYPED_TEST(EventCore, ScheduleInSaturatesInsteadOfWrapping) {
  // Regression: now_ + delay used to wrap negative for sentinel-large
  // delays, firing the "far future" event immediately.
  TypeParam loop;
  bool far_ran = false;
  bool near_ran = false;
  loop.schedule_at(100, [&] {
    loop.schedule_in(INT64_MAX, [&] { far_ran = true; });
    loop.schedule_in(INT64_MAX - 50, [&] { far_ran = true; });
  });
  loop.schedule_at(200, [&] { near_ran = true; });
  loop.run_until(1'000'000);
  EXPECT_TRUE(near_ran);
  EXPECT_FALSE(far_ran);
  EXPECT_EQ(loop.pending(), 2u);
  loop.run();
  EXPECT_TRUE(far_ran);
  EXPECT_EQ(loop.now(), sim::kSimTimeMax);
}

TYPED_TEST(EventCore, ScheduleAtClampsToSimTimeMax) {
  TypeParam loop;
  SimTime fired_at = -1;
  loop.schedule_at(INT64_MAX, [&] { fired_at = loop.now(); });
  loop.run();
  EXPECT_EQ(fired_at, sim::kSimTimeMax);
}

TYPED_TEST(EventCore, RunUntilNeverRunsPastBoundOverCancelledHead) {
  // Regression for a defect in the original priority-queue engine: with a
  // cancelled tombstone at the head of the queue, run_until tested the
  // bound against the tombstone and then executed the next real event
  // however far past `until` it lay. Both engines must stop at the bound
  // and only discard the husk.
  TypeParam loop;
  const auto head = loop.schedule_in(161, [] {});
  loop.cancel(head);
  bool far_ran = false;
  loop.schedule_at(SimTime{1} << 52, [&] { far_ran = true; });
  loop.run_until(61'333);
  EXPECT_FALSE(far_ran);
  EXPECT_EQ(loop.now(), 61'333);
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_TRUE(far_ran);
}

TYPED_TEST(EventCore, TenThousandSameTickEventsKeepFifoThroughCancels) {
  // 10,000 events for one tick, with cancels of random earlier events
  // interleaved between the schedules. Every 1,000th event, when it runs,
  // schedules one more event for the same tick and cancels its successor.
  // Survivors must run in scheduling order, the nested ones after all of
  // them.
  TypeParam loop;
  constexpr SimTime kTick = 5'000;
  constexpr int kEvents = 10'000;
  std::vector<int> order;
  std::vector<sim::EventId> ids;
  std::vector<bool> cancelled(kEvents, false);
  Rng rng(17);
  for (int i = 0; i < kEvents; ++i) {
    ids.push_back(loop.schedule_at(kTick, [&, i] {
      order.push_back(i);
      if (i % 1000 == 0) {
        loop.schedule_in(0, [&order, i] { order.push_back(kEvents + i); });
        if (i + 1 < kEvents) loop.cancel(ids[static_cast<std::size_t>(i + 1)]);
      }
    }));
    if (i % 3 == 2) {
      const std::size_t victim = rng.uniform(ids.size());
      loop.cancel(ids[victim]);
      cancelled[victim] = true;
    }
  }

  std::vector<int> expected;
  std::vector<int> nested;
  bool skip_next = false;
  for (int i = 0; i < kEvents; ++i) {
    const bool runs = !cancelled[static_cast<std::size_t>(i)] && !skip_next;
    skip_next = false;
    if (!runs) continue;
    expected.push_back(i);
    if (i % 1000 == 0) {
      nested.push_back(kEvents + i);
      skip_next = true;
    }
  }
  expected.insert(expected.end(), nested.begin(), nested.end());

  loop.run();
  EXPECT_EQ(order, expected);
  EXPECT_EQ(loop.now(), kTick);
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_EQ(loop.executed(), expected.size());
}

TEST(EventCorePool, CancelOfRecycledIdIsInert) {
  // After an event fires, its id must never alias a later event — even
  // though the engine recycles the underlying node immediately.
  EventLoop loop;
  const auto stale = loop.schedule_at(1, [] {});
  loop.run();
  bool ran = false;
  loop.schedule_at(2, [&] { ran = true; });  // likely reuses the node
  loop.cancel(stale);                        // must NOT cancel the new event
  loop.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(loop.executed(), 2u);
}

}  // namespace
