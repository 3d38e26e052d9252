// Shared pieces of the fcc_perfbench workloads: options, the per-process
// report, host timers, and counter snapshots read from the simulator's
// public accessors (Device, Link, World, Machine::last_run_stats).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "fused/op_runtime.h"
#include "gpu/machine.h"
#include "shmem/world.h"
#include "tracer.h"

namespace perfbench {

namespace gpu = fcc::gpu;
namespace shmem = fcc::shmem;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = "perfbench/out";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

double median(std::vector<double> v);

/// Host-time samples of a run whose input may be split into segments that
/// are replayed separately and in rotation. The run's time is the sum over
/// segments of each segment's median, so every part of the input is sampled
/// across the whole measurement and a host slow-down that hits a few samples
/// moves no median. With one segment it is the plain median.
class Samples {
 public:
  void add(double v, std::size_t segment = 0) {
    if (segment >= by_segment_.size()) by_segment_.resize(segment + 1);
    by_segment_[segment].push_back(v);
  }
  double value() const {
    double sum = 0.0;
    for (const auto& s : by_segment_) sum += median(s);
    return sum;
  }
  std::size_t count() const {
    std::size_t n = 0;
    for (const auto& s : by_segment_) n += s.size();
    return n;
  }
  std::size_t segments() const { return by_segment_.size(); }
  const std::vector<std::vector<double>>& by_segment() const {
    return by_segment_;
  }

 private:
  std::vector<std::vector<double>> by_segment_;
};

/// Everything one workload process measures.
struct Report {
  // End-to-end samples (untraced runs only).
  std::vector<double> setup_s;  // one per set-up repetition
  Samples first_run_s;          // cold first runs on fresh set-ups
  Samples run_s;                // one per warm timed run
  Samples run_cpu_s;            // process CPU seconds per warm timed run
  Samples traced_run_s;         // warm runs with tracing on

  // Correctness accounting: every timed run and every check is one
  // attempted operation; a failed check or an exception is one failure.
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<std::string> notes;  // printed before the result line

  unsigned threads = 1;  // simulator worker threads used
  // Peak resident set read right after the timed runs, before any untimed
  // check that builds more machines; 0 means read it at exit.
  double peak_rss_mb = 0.0;

  /// Per-layer metrics (reported by the traced run).
  std::map<std::string, Metric> layer;
  /// Simulated values; they must repeat exactly across runs, trace modes
  /// and (for the flagship) engine shard counts.
  std::map<std::string, double> sim;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
  void set_layer(const std::string& name, double value, const char* unit) {
    layer[name] = Metric{value, unit};
  }
};

double wall_now_s();
double cpu_now_s();  // CPU time of the whole process (all threads)
double peak_rss_mb();

/// Runs `f` and appends its wall time in milliseconds to `out`.
template <typename F>
void time_ms(std::vector<double>& out, F&& f) {
  const double t0 = wall_now_s();
  f();
  out.push_back((wall_now_s() - t0) * 1e3);
}

/// Cumulative simulator counters; workloads difference two snapshots taken
/// around one run.
struct Counters {
  std::int64_t puts = 0;
  std::int64_t gpu_busy_ns = 0;
  std::int64_t gpu_hbm_bytes = 0;
  std::vector<std::int64_t> link_busy_ns;  // per link, enumeration order
  std::vector<double> link_bandwidth;      // bytes/ns, same order
};

Counters snapshot(gpu::Machine& machine, const shmem::World& world);

/// Simulated per-run values derived from two snapshots: shmem.puts,
/// gpu.busy_ns, gpu.hbm_bytes, hw.link_busy_ns (summed over links),
/// hw.link_bytes (each link's busy time x bandwidth, summed: bytes times
/// hops, since cut-through torus hops keep no byte counter) and
/// hw.hot_link_util (busiest link's busy time over `span_ns`).
std::map<std::string, double> counter_delta(const Counters& before,
                                            const Counters& after,
                                            std::int64_t span_ns);

/// Spawns `op` and drains the machine with `threads` workers (spans around
/// both calls); fills `stats` if given. False if the operator did not
/// complete (a deadlock: tasks left suspended).
bool drive(gpu::Machine& machine, fcc::fused::FusedOp& op, unsigned threads,
           Tracer& tracer, fcc::sim::ShardedEngine::RunStats* stats = nullptr);

/// Times `once` (one complete set-up) repeatedly, appending to `samples`:
/// at least 3 times, then until `budget_s` has passed or 200 samples are
/// taken. Set-up costs microseconds to a millisecond here and the host's
/// speed drifts over seconds, so workloads sample set-up before the first
/// run (kFirstSetupBudgetS) and again after every timed run
/// (kGapSetupBudgetS), and report the median of all samples.
void sample_setup(const std::function<void()>& once, double budget_s,
                  std::vector<double>& samples);
inline constexpr double kFirstSetupBudgetS = 0.2;
inline constexpr double kGapSetupBudgetS = 0.05;

/// Runs `once` back to back for `seconds` of wall time (at least `min_runs`
/// times; no run starts that would likely end past the budget), calling
/// `between` untimed and untraced after each run. In a traced process the runs
/// alternate between untraced and traced, so both medians see the same
/// host load. `once` records its own samples.
void timed_loop(const Options& opt, Tracer& tracer,
                const std::function<void()>& once,
                const std::function<void()>& between, int min_runs = 3);

using WorkloadFn = void (*)(const Options&, Tracer&, Report&);
void run_flagship_serial(const Options& opt, Tracer& tracer, Report& r);
void run_serve_planned(const Options& opt, Tracer& tracer, Report& r);

}  // namespace perfbench
