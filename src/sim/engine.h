// Deterministic discrete-event engine.
//
// Events are ordered by (time, insertion sequence): two events at the same
// virtual time fire in the order they were scheduled, which makes every
// simulation bit-reproducible. The engine is deliberately single-threaded
// (CP.2: no shared mutable state between threads); sweep-level parallelism
// runs *whole engines* on separate threads instead (bench/sweep_runner.h).
//
// Hot-path design (host speed only — simulated timing is untouched, see
// tests/test_sim_determinism.cc):
//
//   * The ready queue is three-tiered. Events scheduled while the engine
//     holds no pending events (the bulk-spawn phase at the start of every
//     operator, and the single in-flight event of a delay chain) land in a
//     flat staging buffer; the first pop sorts it once, descending, and
//     drains it back-to-front — one cache-friendly std::sort instead of
//     per-event heap repair.
//   * Events scheduled *while* events are pending form *runs*: a maximal
//     sequence of consecutive schedules at one virtual time. The newest run
//     stays open and takes every further schedule at its time; a schedule at
//     any other time closes it into a d-ary heap (d = 4) and opens a new
//     one. Almost every mid-drain schedule lands at the same time as the one
//     before it (a wave of same-cost workgroups resumes at one instant), so
//     the heap repairs once per run instead of once per event.
//   * Ordering stays exact. A run holds a contiguous range of sequence
//     numbers, and no other event's seq falls inside that range (the run
//     closes as soon as anything else is scheduled). So comparing a run's
//     key (time, first seq) against any other entry gives the same answer
//     as comparing any one of its events, also after some of them fired; a
//     run at the heap root drains front-to-back without re-sifting. Each
//     pop takes the smallest of (sorted-run back, heap root, open-run
//     front) under the (time, seq) total order: the engine pops in exactly
//     the order of a std::priority_queue on (time, seq).
//   * Memory rule: a run that closes with one event left becomes a plain
//     24-byte (time, seq, payload) heap entry, exactly what it cost before
//     runs existed. Longer runs move into a pooled run (a reusable payload
//     vector, 8 bytes per event) keyed by one heap entry; drained runs go
//     back on a free list with their capacity, so steady-state scheduling
//     allocates nothing.
//   * The overwhelming event kind is "resume this coroutine" (delay,
//     busy_wait, flag wakeups, PUT completions). `schedule_resume_*` packs
//     the bare handle into the entry's tagged payload word — no event
//     object, no allocation, no dispatch indirection beyond the resume.
//   * Arbitrary callbacks live in a slab of fixed-size pooled nodes
//     (chunked so node addresses are stable; freed nodes go on a free list
//     and are reused). Callables up to the node's small buffer are stored
//     inline (every callback in this codebase fits); larger ones fall back
//     to one heap allocation, preserving the generic API.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace fcc::sim {

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine() {
    // Destroy pending callbacks without running them (coroutine handles are
    // non-owning here: frames are destroyed by their own final-suspend
    // machinery or leaked with the process, matching the old behavior).
    for (const auto* q : {&staging_, &sorted_run_, &heap_}) {
      for (const HeapEntry& e : *q) {
        if (is_run(e.payload)) {
          dispose_run(runs_[run_index(e.payload)]);
        } else {
          dispose_event(e.payload);
        }
      }
    }
    dispose_run(open_);
  }

  TimeNs now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (>= now). Callables up to
  /// kInlineBytes are stored in a pooled event node; larger ones cost one
  /// heap allocation.
  template <typename F>
  void schedule_at(TimeNs t, F&& fn) {
    FCC_CHECK_MSG(t >= now_, "cannot schedule into the past: " << t << " < "
                                                               << now_);
    schedule_at_unchecked(t, std::forward<F>(fn));
  }

  /// Rewind scheduling: schedule_at without the no-past check. Only the
  /// sharded barrier machinery uses this — `run_until` advances `now_` to
  /// the window deadline even on an idle shard, so a cross-shard join or
  /// collective that resolves to an exact completion time inside the window
  /// must be injected "into the past" of the frontier. Firing such an entry
  /// rewinds `now_` to its time; the continuation may only touch its own
  /// shard's state and must delay by >= the lookahead before its next
  /// cross-shard effect (every fused-op driver tail does: stream_sync /
  /// kernel_launch delays dominate any fabric latency floor).
  template <typename F>
  void schedule_at_unchecked(TimeNs t, F&& fn) {
    // The node is fully constructed before its entry is queued, so a
    // throwing callable constructor (or allocation failure) leaves nothing
    // behind that fire() or ~Engine() could touch.
    const std::uint32_t idx = alloc_node();
    Node& n = node(idx);
    using Fn = std::decay_t<F>;
    try {
      if constexpr (sizeof(Fn) <= kInlineBytes &&
                    alignof(Fn) <= alignof(std::max_align_t)) {
        ::new (static_cast<void*>(n.buf)) Fn(std::forward<F>(fn));
        n.run_and_dispose = [](void* buf) {
          Fn* fn_p = std::launder(reinterpret_cast<Fn*>(buf));
          (*fn_p)();
          fn_p->~Fn();
        };
        n.dispose = [](void* buf) {
          std::launder(reinterpret_cast<Fn*>(buf))->~Fn();
        };
      } else {
        Fn* heap_fn = new Fn(std::forward<F>(fn));
        std::memcpy(n.buf, &heap_fn, sizeof(heap_fn));
        n.run_and_dispose = [](void* buf) {
          Fn* fn_p;
          std::memcpy(&fn_p, buf, sizeof(fn_p));
          (*fn_p)();
          delete fn_p;
        };
        n.dispose = [](void* buf) {
          Fn* fn_p;
          std::memcpy(&fn_p, buf, sizeof(fn_p));
          delete fn_p;
        };
      }
    } catch (...) {
      free_.push_back(idx);
      throw;
    }
    try {
      push_entry_unchecked(t, static_cast<std::uintptr_t>(idx) << 2);
    } catch (...) {
      n.dispose(n.buf);
      free_.push_back(idx);
      throw;
    }
  }

  /// Schedules `fn` after a relative delay (>= 0).
  template <typename F>
  void schedule_after(TimeNs dt, F&& fn) {
    FCC_CHECK(dt >= 0);
    schedule_at(now_ + dt, std::forward<F>(fn));
  }

  /// Fast path for the dominant event kind: resume `h` at time `t`. The
  /// handle itself is the event payload — nothing is allocated or pooled.
  void schedule_resume_at(TimeNs t, std::coroutine_handle<> h) {
    push_entry(t, reinterpret_cast<std::uintptr_t>(h.address()) | 1u);
  }

  /// Rewind variant of schedule_resume_at; see schedule_at_unchecked.
  void schedule_resume_at_unchecked(TimeNs t, std::coroutine_handle<> h) {
    push_entry_unchecked(t, reinterpret_cast<std::uintptr_t>(h.address()) | 1u);
  }

  void schedule_resume_after(TimeNs dt, std::coroutine_handle<> h) {
    FCC_CHECK(dt >= 0);
    schedule_resume_at(now_ + dt, h);
  }

  /// Runs until the event queue drains. Returns the number of events
  /// processed. If coroutine processes are still suspended on conditions
  /// afterwards (live_tasks() > 0) the simulation deadlocked.
  std::size_t run() {
    FCC_CHECK_MSG(run_forbidden_ == nullptr, run_forbidden_);
    std::size_t processed = 0;
    for (;;) {
      // Single-pending fast cycle: one in-flight event ping-ponging through
      // the queue (a delay chain / busy-wait loop, the most common shape).
      // By the staging invariant the other tiers are empty here, so the
      // event can fire straight out of the staging buffer.
      while (staging_.size() == 1) {
        const HeapEntry top = staging_.front();
        staging_.clear();
        FCC_DCHECK(top.t >= now_);
        now_ = top.t;
        ++processed;
        fire(top.payload);
      }
      if (idle()) return processed;
      step();
      ++processed;
    }
  }

  /// Makes run() throw `why`: for engines that only a windowed driver may
  /// advance (run_until stays legal), such as a gpu::Machine shard whose
  /// barrier hooks would be skipped by a plain run().
  void forbid_run(const char* why) { run_forbidden_ = why; }

  /// Runs events with time <= `deadline`. Returns events processed.
  std::size_t run_until(TimeNs deadline) {
    std::size_t processed = 0;
    for (TimeNs next = next_event_time(); next != kNoEvent && next <= deadline;
         next = next_event_time()) {
      step();
      ++processed;
    }
    if (now_ < deadline) now_ = deadline;
    return processed;
  }

  bool idle() const {
    return staging_.empty() && sorted_run_.empty() && heap_.empty() &&
           open_empty();
  }

  /// Sentinel returned by next_event_time() when no events are pending.
  static constexpr TimeNs kNoEvent = -1;

  /// Time of the earliest pending event, or kNoEvent when idle. May flush
  /// the staging tier (deterministic); used by the sharded scheduler to
  /// compute conservative window bounds.
  TimeNs next_event_time() {
    flush_staging();
    switch (next_source()) {
      case Source::kSorted: return sorted_run_.back().t;
      case Source::kHeap: return heap_.front().t;
      case Source::kOpen: return open_t_;
      case Source::kNone: break;
    }
    return kNoEvent;
  }

  /// Events scheduled but not yet fired.
  std::size_t pending() const {
    std::size_t n = staging_.size() + sorted_run_.size() + run_left(open_);
    for (const HeapEntry& e : heap_) {
      n += is_run(e.payload) ? run_left(runs_[run_index(e.payload)]) : 1;
    }
    return n;
  }

  /// Pooled callback nodes ever created (capacity watermark, not live
  /// count; resume events never take a node).
  std::size_t slab_nodes() const { return next_node_; }

  /// Number of coroutine processes started but not yet finished.
  int live_tasks() const { return live_tasks_; }

  /// Called by the Task promise machinery; not for direct use.
  void task_started() { ++live_tasks_; }
  void task_finished() {
    --live_tasks_;
    FCC_DCHECK(live_tasks_ >= 0);
  }

 private:
  /// Small-buffer size for inline callbacks. Sized for the largest lambda
  /// the library schedules (PUT delivery: this + ids + a std::function).
  static constexpr std::size_t kInlineBytes = 48;
  static constexpr std::size_t kChunkShift = 9;  // 512 nodes per slab chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
  static constexpr unsigned kHeapArity = 4;

  /// Pooled storage for one callback event. `run_and_dispose` executes and
  /// destroys in a single indirect call; `dispose` destroys without running
  /// (engine teardown with events still pending).
  struct Node {
    void (*run_and_dispose)(void* buf);
    void (*dispose)(void* buf);
    alignas(std::max_align_t) unsigned char buf[kInlineBytes];
  };

  /// Heap entries carry the full (time, seq) sort key, so sifting compares
  /// within one contiguous array and never dereferences the slab. The
  /// payload word is tagged: bit 0 set => the rest is a coroutine frame
  /// address to resume (frame alignment guarantees the low bits are free);
  /// otherwise bit 1 set => payload >> 2 is a pooled run index (heap entries
  /// only), bit 1 clear => payload >> 2 is a slab node index.
  struct HeapEntry {
    TimeNs t;
    std::uint64_t seq;
    std::uintptr_t payload;
  };

  /// Same-time events with consecutive seqs, in schedule order; `head` is
  /// the next one to fire. Seqs are implicit: a run is keyed by the seq it
  /// opened with, which orders it exactly (see the file comment) however
  /// many of its events have fired.
  struct Run {
    std::vector<std::uintptr_t> payloads;
    std::size_t head = 0;
  };

  static bool is_resume(std::uintptr_t payload) { return (payload & 1u) != 0; }
  static bool is_run(std::uintptr_t payload) { return (payload & 3u) == 2u; }
  static std::uint32_t node_index(std::uintptr_t payload) {
    return static_cast<std::uint32_t>(payload >> 2);
  }
  static std::uint32_t run_index(std::uintptr_t payload) {
    return static_cast<std::uint32_t>(payload >> 2);
  }
  static std::size_t run_left(const Run& r) {
    return r.payloads.size() - r.head;
  }
  /// A run's payloads are cleared the moment its last event fires, so the
  /// open run is empty exactly when it holds no payloads.
  bool open_empty() const { return open_.payloads.empty(); }

  Node& node(std::uint32_t idx) {
    return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)];
  }

  void dispose_event(std::uintptr_t payload) {
    if (!is_resume(payload)) {
      Node& n = node(node_index(payload));
      n.dispose(n.buf);
    }
  }
  void dispose_run(const Run& r) {
    for (std::size_t i = r.head; i < r.payloads.size(); ++i) {
      dispose_event(r.payloads[i]);
    }
  }

  void push_entry(TimeNs t, std::uintptr_t payload) {
    FCC_CHECK_MSG(t >= now_, "cannot schedule into the past: " << t << " < "
                                                               << now_);
    push_entry_unchecked(t, payload);
  }

  // Kept small so it inlines into every schedule call; opening a run is the
  // rare case and lives out of line.
  void push_entry_unchecked(TimeNs t, std::uintptr_t payload) {
    if (open_empty()) {
      if (sorted_run_.empty() && heap_.empty()) {
        // Invariant: staging_ is only non-empty while every other tier is
        // empty (no pop can intervene without flushing first), so staged
        // events always have smaller seq than anything later queued.
        staging_.push_back({t, next_seq_++, payload});
        return;
      }
    } else if (t == open_t_) {
      open_.payloads.push_back(payload);
      ++next_seq_;
      return;
    }
    open_run(t, payload);
  }

  /// Starts a new open run holding one event, closing the current one.
  [[gnu::noinline]] void open_run(TimeNs t, std::uintptr_t payload) {
    if (!open_empty()) close_open_run();
    open_.payloads.push_back(payload);
    open_t_ = t;
    open_seq_ = next_seq_++;
  }

  /// Moves the open run into the heap: one plain entry when a single event
  /// is left (the pre-run cost), else one pooled run entry.
  void close_open_run() {
    if (run_left(open_) == 1) {
      heap_push({open_t_, open_seq_, open_.payloads[open_.head]});
    } else {
      const std::uint32_t r = alloc_run();
      try {
        heap_push({open_t_, open_seq_,
                   (static_cast<std::uintptr_t>(r) << 2) | 2u});
      } catch (...) {
        free_runs_.push_back(r);
        throw;
      }
      std::swap(runs_[r], open_);  // open_ takes the pooled run's capacity
    }
    open_.payloads.clear();
    open_.head = 0;
  }

  std::uint32_t alloc_run() {
    if (!free_runs_.empty()) {
      const std::uint32_t r = free_runs_.back();
      free_runs_.pop_back();
      return r;
    }
    runs_.emplace_back();
    return static_cast<std::uint32_t>(runs_.size() - 1);
  }

  void heap_push(const HeapEntry& e) {
    heap_.push_back(e);
    sift_up(heap_.size() - 1);
  }

  /// Sorts the staged bulk (descending) so it drains back-to-front.
  void flush_staging() {
    if (staging_.empty()) return;
    FCC_DCHECK(sorted_run_.empty());
    sorted_run_.swap(staging_);
    if (sorted_run_.size() > 1) {
      std::sort(sorted_run_.begin(), sorted_run_.end(),
                [](const HeapEntry& a, const HeapEntry& b) {
                  return before(b, a);
                });
    }
  }

  /// Takes a pooled node off the free list (or grows the slab). The caller
  /// owns it until its entry is queued via push_entry.
  std::uint32_t alloc_node() {
    if (!free_.empty()) {
      const std::uint32_t idx = free_.back();
      free_.pop_back();
      return idx;
    }
    if (next_node_ >> kChunkShift == chunks_.size()) {
      chunks_.push_back(std::make_unique_for_overwrite<Node[]>(kChunkSize));
    }
    return static_cast<std::uint32_t>(next_node_++);
  }

  /// True iff entry `a` fires before entry `b` ((time, seq) total order).
  /// Branch-free: inside the sift loops this comparison is a data-dependent
  /// coin flip, and a mispredicted branch costs more than the arithmetic.
  static bool before(const HeapEntry& a, const HeapEntry& b) {
    return static_cast<int>(a.t < b.t) |
           (static_cast<int>(a.t == b.t) & static_cast<int>(a.seq < b.seq));
  }

  void sift_up(std::size_t i) {
    const HeapEntry e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kHeapArity;
      if (!before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  /// Removes the root with the bottom-up "hole" strategy (what libstdc++'s
  /// __adjust_heap does for std::priority_queue): walk the hole to a leaf
  /// choosing the min child at each level — no early-exit compare against
  /// the relocated tail — then drop the tail in and sift it up, which
  /// terminates almost immediately because the tail came from the bottom.
  void pop_root() {
    const std::size_t size = heap_.size() - 1;  // entries after the pop
    std::size_t hole = 0;
    std::size_t child = 1;
    while (child < size) {
      const std::size_t last =
          child + kHeapArity < size ? child + kHeapArity : size;
      std::size_t best = child;
      for (std::size_t c = child + 1; c < last; ++c) {
        best = before(heap_[c], heap_[best]) ? c : best;
      }
      heap_[hole] = heap_[best];
      hole = best;
      child = hole * kHeapArity + 1;
    }
    if (hole != size) {
      heap_[hole] = heap_[size];
      sift_up(hole);
    }
    heap_.pop_back();
  }

  enum class Source { kNone, kSorted, kHeap, kOpen };

  /// Tier holding the next event in (time, seq) order. Pre: staging flushed.
  /// A run's entry compares by its first unfired seq; see the file comment.
  Source next_source() const {
    Source src = Source::kNone;
    HeapEntry best{};
    if (!sorted_run_.empty()) {
      src = Source::kSorted;
      best = sorted_run_.back();
    }
    if (!heap_.empty() &&
        (src == Source::kNone || before(heap_.front(), best))) {
      src = Source::kHeap;
      best = heap_.front();
    }
    if (!open_empty() &&
        (src == Source::kNone || before({open_t_, open_seq_, 0}, best))) {
      src = Source::kOpen;
    }
    return src;
  }

  /// Fires the next event. Pre: not idle.
  void step() {
    flush_staging();
    const Source src = next_source();
    FCC_DCHECK(src != Source::kNone);
    TimeNs t;
    std::uintptr_t payload;
    if (src == Source::kSorted) {
      t = sorted_run_.back().t;
      payload = sorted_run_.back().payload;
      sorted_run_.pop_back();
    } else if (src == Source::kHeap) {
      const HeapEntry& root = heap_.front();
      t = root.t;
      if (!is_run(root.payload)) {
        payload = root.payload;
        pop_root();
      } else {
        // A run at the root stays there until drained: its remaining
        // events precede every other queued entry.
        const std::uint32_t r = run_index(root.payload);
        Run& run = runs_[r];
        payload = run.payloads[run.head++];
        if (run.head == run.payloads.size()) {
          run.payloads.clear();
          run.head = 0;
          free_runs_.push_back(r);
          pop_root();
        }
      }
    } else {
      t = open_t_;
      payload = open_.payloads[open_.head++];
      if (open_.head == open_.payloads.size()) {
        open_.payloads.clear();
        open_.head = 0;
      }
    }
    // A rewind entry (schedule_at_unchecked) legitimately moves now_
    // backwards from the window deadline run_until parked it at; run_until
    // restores the frontier after the loop.
    now_ = t;
    fire(payload);
  }

  void fire(std::uintptr_t payload) {
    if (is_resume(payload)) {
      std::coroutine_handle<>::from_address(
          reinterpret_cast<void*>(payload & ~std::uintptr_t{1}))
          .resume();
    } else {
      // The callback runs in place (nodes have stable addresses, and
      // anything it schedules takes other nodes); recycle afterwards.
      const std::uint32_t idx = node_index(payload);
      Node& n = node(idx);
      n.run_and_dispose(n.buf);
      free_.push_back(idx);
    }
  }

  std::vector<HeapEntry> staging_;     // unsorted bulk (engine was empty)
  std::vector<HeapEntry> sorted_run_;  // staged bulk, sorted descending
  std::vector<HeapEntry> heap_;        // d-ary heap of closed runs
  Run open_;                           // newest run, still growing
  TimeNs open_t_ = 0;                  // open_'s time
  std::uint64_t open_seq_ = 0;         // seq open_ opened with
  std::vector<Run> runs_;              // pooled closed runs of >= 2 events
  std::vector<std::uint32_t> free_runs_;  // recycled run indices
  std::vector<std::uint32_t> free_;    // recycled node indices
  std::vector<std::unique_ptr<Node[]>> chunks_;
  std::size_t next_node_ = 0;
  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 0;
  int live_tasks_ = 0;
  const char* run_forbidden_ = nullptr;  // see forbid_run()
};

}  // namespace fcc::sim
