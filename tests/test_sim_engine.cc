// Engine semantics: time monotonicity, same-time FIFO, coroutine tracking.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <tuple>
#include <vector>

#include "sim/co.h"
#include "sim/engine.h"
#include "sim/task.h"

namespace fcc::sim {
namespace {

TEST(Engine, StartsAtZeroAndIdle) {
  Engine e;
  EXPECT_EQ(e.now(), 0);
  EXPECT_TRUE(e.idle());
  EXPECT_EQ(e.run(), 0u);
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine e;
  std::vector<int> seen;
  e.schedule_at(30, [&] { seen.push_back(3); });
  e.schedule_at(10, [&] { seen.push_back(1); });
  e.schedule_at(20, [&] { seen.push_back(2); });
  EXPECT_EQ(e.run(), 3u);
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
}

TEST(Engine, SameTimeEventsFireInScheduleOrder) {
  Engine e;
  std::vector<int> seen;
  for (int i = 0; i < 100; ++i) {
    e.schedule_at(5, [&seen, i] { seen.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(seen[static_cast<size_t>(i)], i);
}

TEST(Engine, NestedSchedulingFromCallbacks) {
  Engine e;
  std::vector<TimeNs> fired;
  e.schedule_at(10, [&] {
    fired.push_back(e.now());
    e.schedule_after(5, [&] { fired.push_back(e.now()); });
  });
  e.run();
  EXPECT_EQ(fired, (std::vector<TimeNs>{10, 15}));
}

TEST(Engine, SchedulingIntoThePastThrows) {
  Engine e;
  e.schedule_at(10, [] {});
  e.run();
  EXPECT_THROW(e.schedule_at(5, [] {}), std::logic_error);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine e;
  int count = 0;
  for (TimeNs t = 10; t <= 100; t += 10) {
    e.schedule_at(t, [&] { ++count; });
  }
  e.run_until(50);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(e.now(), 50);
  e.run();
  EXPECT_EQ(count, 10);
}

Task simple_proc(Engine& e, std::vector<TimeNs>& log) {
  log.push_back(e.now());
  co_await delay(e, 100);
  log.push_back(e.now());
  co_await delay(e, 0);  // zero-delay still round-trips the queue
  log.push_back(e.now());
}

TEST(Task, DelaysAdvanceVirtualTime) {
  Engine e;
  std::vector<TimeNs> log;
  simple_proc(e, log);
  EXPECT_EQ(e.live_tasks(), 1);  // suspended at first delay
  e.run();
  EXPECT_EQ(log, (std::vector<TimeNs>{0, 100, 100}));
  EXPECT_EQ(e.live_tasks(), 0);
}

Task spawner(Engine& e, int depth, int& count) {
  ++count;
  if (depth > 0) {
    co_await delay(e, 1);
    spawner(e, depth - 1, count);
    spawner(e, depth - 1, count);
  }
  co_return;
}

TEST(Task, RecursiveSpawningTracksLiveness) {
  Engine e;
  int count = 0;
  spawner(e, 10, count);
  e.run();
  EXPECT_EQ(count, (1 << 11) - 1);
  EXPECT_EQ(e.live_tasks(), 0);
}

Co child(Engine& e, std::vector<int>& log, int id) {
  log.push_back(id);
  co_await delay(e, 10);
  log.push_back(id + 100);
}

Task parent_proc(Engine& e, std::vector<int>& log) {
  co_await child(e, log, 1);
  co_await child(e, log, 2);
  log.push_back(999);
}

TEST(Co, SubroutinesRunToCompletionBeforeParentContinues) {
  Engine e;
  std::vector<int> log;
  parent_proc(e, log);
  e.run();
  EXPECT_EQ(log, (std::vector<int>{1, 101, 2, 102, 999}));
  EXPECT_EQ(e.now(), 20);
  EXPECT_EQ(e.live_tasks(), 0);
}

Co leaf(Engine& e) { co_await delay(e, 1); }

Co middle(Engine& e, int depth) {
  if (depth == 0) {
    co_await leaf(e);
  } else {
    co_await middle(e, depth - 1);
  }
}

Task deep_proc(Engine& e, bool& done) {
  co_await middle(e, 200);
  done = true;
}

TEST(Co, DeepNestingCompletes) {
  Engine e;
  bool done = false;
  deep_proc(e, done);
  e.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(e.now(), 1);
}

TEST(Engine, MixedStagingAndMidDrainSchedulesPopInGlobalOrder) {
  // Bulk-staged events (scheduled while the engine is empty) and events
  // scheduled from inside callbacks (mid-drain, heap path) must interleave
  // in exact (time, seq) order.
  Engine e;
  std::vector<int> seen;
  e.schedule_at(10, [&] {
    seen.push_back(1);
    e.schedule_at(15, [&] { seen.push_back(2); });  // lands in the heap
    e.schedule_at(40, [&] { seen.push_back(5); });
  });
  e.schedule_at(20, [&] { seen.push_back(3); });  // staged
  e.schedule_at(30, [&] { seen.push_back(4); });  // staged
  EXPECT_EQ(e.run(), 5u);
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Engine, SameTimeOrderHoldsAcrossStagingAndHeap) {
  Engine e;
  std::vector<int> seen;
  e.schedule_at(5, [&] {
    seen.push_back(0);
    // Same-time events scheduled mid-drain fire after the already-staged
    // ones at t=5 (larger insertion sequence), in their own schedule order.
    e.schedule_at(5, [&] { seen.push_back(3); });
    e.schedule_at(5, [&] { seen.push_back(4); });
  });
  e.schedule_at(5, [&] { seen.push_back(1); });
  e.schedule_at(5, [&] { seen.push_back(2); });
  e.run();
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, PooledNodesAreRecycledAcrossWaves) {
  Engine e;
  long sink = 0;
  for (int wave = 0; wave < 50; ++wave) {
    for (int i = 0; i < 100; ++i) {
      e.schedule_after(i, [&sink] { ++sink; });
    }
    e.run();
  }
  EXPECT_EQ(sink, 50 * 100);
  // The slab never grows past one wave's worth of simultaneously-pending
  // callbacks: freed nodes are reused, not abandoned.
  EXPECT_LE(e.slab_nodes(), 100u);
}

TEST(Engine, PendingCountsAllTiers) {
  Engine e;
  e.schedule_at(1, [] {});
  e.schedule_at(2, [] {});
  EXPECT_EQ(e.pending(), 2u);
  e.run_until(1);
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, RunUntilHonorsDeadlineAcrossTiers) {
  Engine e;
  int count = 0;
  e.schedule_at(10, [&] {
    ++count;
    e.schedule_at(20, [&] { ++count; });  // heap path
    e.schedule_at(60, [&] { ++count; });
  });
  e.schedule_at(50, [&] { ++count; });  // staged
  EXPECT_EQ(e.run_until(50), 3u);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(e.now(), 50);
  e.run();
  EXPECT_EQ(count, 4);
}

TEST(Engine, LargeCallbacksFallBackToTheHeapPath) {
  // A callable bigger than the node's inline buffer still works (one heap
  // allocation, API unchanged).
  Engine e;
  std::array<std::uint64_t, 16> big{};  // 128 bytes captured by value
  big[15] = 42;
  std::uint64_t out = 0;
  e.schedule_at(1, [big, &out] { out = big[15]; });
  e.run();
  EXPECT_EQ(out, 42u);
}

TEST(Engine, DestructorReleasesUnfiredCallbacks) {
  // Scheduled-but-never-run callables (both inline and heap-fallback) are
  // destroyed with the engine; shared_ptr use counts prove it.
  auto tracer = std::make_shared<int>(7);
  std::weak_ptr<int> weak = tracer;
  {
    Engine e;
    e.schedule_at(5, [t = tracer] { (void)t; });
    std::array<std::uint64_t, 16> big{};
    e.schedule_at(6, [t = tracer, big] { (void)t; (void)big; });
    tracer.reset();
    EXPECT_FALSE(weak.expired());
  }
  EXPECT_TRUE(weak.expired());
}

TEST(Engine, DestructorReleasesCallbacksInClosedAndOpenRuns) {
  // Mid-drain schedules at one time form runs: when ~Engine runs, a closed
  // run (pooled, in the heap), a closed singleton entry and the still-open
  // run all hold unfired callables, inline and heap-fallback alike.
  auto tracer = std::make_shared<int>(7);
  std::weak_ptr<int> weak = tracer;
  {
    Engine e;
    std::array<std::uint64_t, 16> big{};
    e.schedule_at(0, [&e, t = tracer, big] {
      for (int i = 0; i < 3; ++i) {
        e.schedule_at(10, [t, big] { (void)t; (void)big; });
      }
      e.schedule_at(15, [t] { (void)t; });  // closes the t=10 run
      e.schedule_at(20, [t] { (void)t; });  // closes the singleton
      e.schedule_at(20, [t, big] { (void)t; (void)big; });  // open run
    });
    e.schedule_at(100, [t = tracer] { (void)t; });  // keeps tiers non-empty
    tracer.reset();
    EXPECT_EQ(e.run_until(5), 1u);
    EXPECT_EQ(e.pending(), 7u);
    EXPECT_EQ(e.next_event_time(), 10);
    EXPECT_FALSE(weak.expired());
  }
  EXPECT_TRUE(weak.expired());
}

/// Differential check of the engine's firing order against a plain
/// std::priority_queue on (time, seq). Every event's behavior is a pure
/// function of its id and the time it fires, so the engine and the
/// reference replay the same schedule: same-time bursts, distinct times,
/// zero-delay reschedules from inside events, callbacks mixed with
/// coroutine resumes, and windows of run_until followed by rewind
/// (schedule_at_unchecked) injections into the past of the frontier.
class RandomSchedule {
 public:
  explicit RandomSchedule(std::uint64_t seed) : seed_(seed) {}

  /// A scheduled event: fire time, id, and whether a coroutine resume
  /// (rather than a callback) carries it.
  struct Push {
    TimeNs t;
    int id;
    bool resume;
  };

  /// Children `id` schedules when it fires at `now` (empty past the budget).
  std::vector<Push> children(int id, TimeNs now) {
    std::vector<Push> out;
    std::uint64_t r = mix(seed_ ^ (static_cast<std::uint64_t>(id) << 20));
    const int n = static_cast<int>(r % 4);  // 0..3 children
    for (int c = 0; c < n && next_id_ < kBudget; ++c) {
      r = mix(r);
      TimeNs dt;
      switch (r % 5) {
        case 0: dt = 0; break;                          // zero-delay
        case 1: case 2: dt = 16; break;                 // same-time burst
        case 3: dt = static_cast<TimeNs>(r >> 40) % 7; break;  // near
        default: dt = static_cast<TimeNs>(r >> 40) % 97; break;  // distinct
      }
      out.push_back({now + dt, next_id_++, ((r >> 8) & 1) != 0});
    }
    return out;
  }

  /// Rewind injections after a window ending at `frontier`.
  std::vector<Push> rewinds(TimeNs frontier) {
    std::vector<Push> out;
    std::uint64_t r = mix(seed_ + static_cast<std::uint64_t>(frontier) * 31);
    const int n = static_cast<int>(r % 3);
    for (int c = 0; c < n && next_id_ < kBudget; ++c) {
      r = mix(r);
      const TimeNs t = frontier - static_cast<TimeNs>(r % 12);
      out.push_back({t < 0 ? 0 : t, next_id_++, ((r >> 9) & 1) != 0});
    }
    return out;
  }

  /// Seeds the first events (scheduled on an idle engine: staging tier).
  std::vector<Push> initial() {
    std::vector<Push> out;
    for (int i = 0; i < 24; ++i) {
      const std::uint64_t r = mix(seed_ * 977 + static_cast<std::uint64_t>(i));
      out.push_back({static_cast<TimeNs>(r % 3 == 0 ? 0 : r % 50), next_id_++,
                     (r & 1) != 0});
    }
    return out;
  }

 private:
  static constexpr int kBudget = 4000;
  static std::uint64_t mix(std::uint64_t x) {  // splitmix64 finalizer
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }

  std::uint64_t seed_;
  int next_id_ = 0;
};

/// Engine side of the differential test. Resume-kind events are carried by
/// pooled worker coroutines that park between events.
class EngineReplay {
 public:
  EngineReplay(Engine& e, RandomSchedule& gen) : e_(e), gen_(gen) {}

  void push(const RandomSchedule::Push& p, bool rewind) {
    if (!p.resume) {
      auto fn = [this, id = p.id] { on_fire(id); };
      if (rewind) {
        e_.schedule_at_unchecked(p.t, fn);
      } else {
        e_.schedule_at(p.t, fn);
      }
      return;
    }
    if (parked_.empty()) worker(e_);  // parks itself immediately
    Parked w = parked_.back();
    parked_.pop_back();
    *w.id = p.id;
    if (rewind) {
      e_.schedule_resume_at_unchecked(p.t, w.h);
    } else {
      e_.schedule_resume_at(p.t, w.h);
    }
  }

  /// Resumes every parked worker with stopping_ set so its frame finishes.
  void stop_workers() {
    stopping_ = true;
    while (!parked_.empty()) {
      Parked w = parked_.back();
      parked_.pop_back();
      w.h.resume();
    }
  }

  std::vector<std::pair<TimeNs, int>> fired;

 private:
  struct Parked {
    std::coroutine_handle<> h;
    int* id;
  };
  struct Park {
    EngineReplay& r;
    int* id;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      r.parked_.push_back({h, id});
    }
    void await_resume() const noexcept {}
  };

  Task worker(Engine& e) {  // `e` registers the task with the engine
    (void)e;
    int id = -1;
    for (;;) {
      co_await Park{*this, &id};
      if (stopping_) co_return;
      on_fire(id);
    }
  }

  void on_fire(int id) {
    fired.emplace_back(e_.now(), id);
    for (const auto& c : gen_.children(id, e_.now())) push(c, false);
  }

  Engine& e_;
  RandomSchedule& gen_;
  std::vector<Parked> parked_;
  bool stopping_ = false;
};

TEST(Engine, RandomSchedulesFireInReferenceOrder) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 17ull, 4242ull, 99991ull}) {
    SCOPED_TRACE(seed);
    // Reference: (time, seq) min-queue; seq is the global push counter.
    using Entry = std::tuple<TimeNs, std::uint64_t, int>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> ref_q;
    std::uint64_t ref_seq = 0;
    std::vector<std::pair<TimeNs, int>> ref_fired;
    RandomSchedule ref_gen(seed);
    for (const auto& p : ref_gen.initial()) ref_q.emplace(p.t, ref_seq++, p.id);

    Engine e;
    RandomSchedule gen(seed);
    EngineReplay replay(e, gen);
    for (const auto& p : gen.initial()) replay.push(p, false);

    // Windows of run_until; after each, both sides inject the same rewinds.
    for (TimeNs deadline = 40; !ref_q.empty() || !e.idle(); deadline += 40) {
      while (!ref_q.empty() && std::get<0>(ref_q.top()) <= deadline) {
        const auto [t, seq, id] = ref_q.top();
        ref_q.pop();
        ref_fired.emplace_back(t, id);
        for (const auto& c : ref_gen.children(id, t)) {
          ref_q.emplace(c.t, ref_seq++, c.id);
        }
      }
      e.run_until(deadline);
      ASSERT_EQ(e.now(), deadline);
      ASSERT_EQ(e.pending(), ref_q.size());
      ASSERT_EQ(e.next_event_time(),
                ref_q.empty() ? Engine::kNoEvent : std::get<0>(ref_q.top()));
      for (const auto& p : ref_gen.rewinds(deadline)) {
        ref_q.emplace(p.t, ref_seq++, p.id);
      }
      for (const auto& p : gen.rewinds(deadline)) replay.push(p, true);
    }
    EXPECT_GT(ref_fired.size(), 1000u);
    EXPECT_EQ(replay.fired, ref_fired);
    replay.stop_workers();
    EXPECT_EQ(e.live_tasks(), 0);
  }
}

Task resume_hop(Engine& e, int& hops) {
  for (int i = 0; i < 3; ++i) {
    co_await delay(e, 7);
    ++hops;
  }
}

TEST(Engine, ResumeFastPathAdvancesTimeLikeAnyEvent) {
  Engine e;
  int hops = 0;
  resume_hop(e, hops);
  e.run();
  EXPECT_EQ(hops, 3);
  EXPECT_EQ(e.now(), 21);
  // Bare-handle resume events never take a pooled callback node.
  EXPECT_EQ(e.slab_nodes(), 0u);
}

TEST(Determinism, TwoIdenticalRunsProduceIdenticalLogs) {
  auto run_once = [] {
    Engine e;
    std::vector<std::pair<TimeNs, int>> log;
    for (int i = 0; i < 50; ++i) {
      e.schedule_at((i * 7) % 13, [&log, i, &e] { log.emplace_back(e.now(), i); });
    }
    e.run();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace fcc::sim
