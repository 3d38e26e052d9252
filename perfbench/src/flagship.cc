// flagship_serial: the Fig. 15 scale-out operator (fused embedding +
// All-to-All on a 64-node 8x8 torus, one GPU per node), run warm back to
// back on one operator instance on the serial engine. Untimed, the same
// operator also runs on the sharded engine at 4 shards: its result must
// equal the serial one, and the traced run reports its window counters.
#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <thread>

#include "bench.h"
#include "fused/embedding_a2a.h"
#include "ops/embedding.h"
#include "shmem/sym_array.h"

namespace perfbench {
namespace {

namespace fused = fcc::fused;
namespace sim = fcc::sim;

constexpr int kNodes = 64;  // 8x8 torus, one GPU per node
constexpr int kShards = 4;  // the sharded engine check

gpu::Machine::Config torus_machine(int shards) {
  gpu::Machine::Config cfg;
  cfg.num_nodes = kNodes;
  cfg.gpus_per_node = 1;
  cfg.topology.kind = fcc::hw::TopologySpec::Kind::kTorus2D;
  cfg.topology.torus.dim_x = 8;
  cfg.topology.torus.dim_y = 8;
  cfg.num_shards = shards;
  return cfg;
}

/// The flagship shape: 8 tables/PE, batch 64/PE, dim 256, 32 vectors per
/// slice, timing-only.
fused::EmbeddingA2AConfig flagship_config(int num_pes) {
  fused::EmbeddingA2AConfig cfg;
  cfg.map.num_pes = num_pes;
  cfg.map.tables_per_pe = 8;
  cfg.map.global_batch = 64 * num_pes;
  cfg.map.dim = 256;
  cfg.map.vectors_per_slice = 32;
  cfg.functional = false;
  return cfg;
}

/// Reduced functional instance on the same torus: small enough to check
/// every output element against the host reference in well under a second.
fused::EmbeddingA2AConfig functional_config(int num_pes) {
  fused::EmbeddingA2AConfig cfg;
  cfg.map.num_pes = num_pes;
  cfg.map.tables_per_pe = 2;
  cfg.map.global_batch = 4 * num_pes;
  cfg.map.dim = 32;
  cfg.map.vectors_per_slice = 4;
  cfg.functional = true;
  return cfg;
}

/// Run-relative copy: warm runs start wherever the engine clock stopped
/// (window-aligned on sharded machines), so compare durations, not stamps.
fused::OperatorResult relative(fused::OperatorResult r) {
  for (auto& t : r.pe_end) t -= r.start;
  r.end -= r.start;
  r.start = 0;
  return r;
}

struct Flagship {
  std::unique_ptr<gpu::Machine> machine;
  std::unique_ptr<shmem::World> world;
  std::unique_ptr<fused::FusedEmbeddingAllToAll> op;

  /// Tears down in dependency order (the op and world refer to the machine).
  void clear() {
    op.reset();
    world.reset();
    machine.reset();
  }
};

struct BuildTimes {
  std::vector<double> machine_ms, world_ms, op_ms;
};

Flagship build(int shards, Tracer& tracer, BuildTimes& times) {
  Flagship f;
  time_ms(times.machine_ms, [&] {
    auto s = tracer.span("gpu", "Machine::Machine");
    f.machine = std::make_unique<gpu::Machine>(torus_machine(shards));
  });
  time_ms(times.world_ms, [&] {
    auto s = tracer.span("shmem", "World::World");
    f.world = std::make_unique<shmem::World>(*f.machine);
  });
  time_ms(times.op_ms, [&] {
    auto s = tracer.span("fused", "FusedEmbeddingAllToAll::FusedEmbeddingAllToAll");
    f.op = std::make_unique<fused::FusedEmbeddingAllToAll>(
        *f.world, flagship_config(kNodes), nullptr);
  });
  return f;
}

/// One run's simulated outcome: the run-relative result plus counter
/// deltas. Equal outcomes mean byte-identical simulation.
struct Outcome {
  bool completed = false;
  fused::OperatorResult result;
  fcc::sim::ShardedEngine::RunStats stats;
  std::map<std::string, double> sim;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

Outcome run_flagship(Flagship& f, unsigned threads, Tracer& tracer) {
  Outcome o;
  const Counters before = snapshot(*f.machine, *f.world);
  const double w0 = wall_now_s();
  const double c0 = cpu_now_s();
  o.completed = drive(*f.machine, *f.op, threads, tracer, &o.stats);
  o.cpu_s = cpu_now_s() - c0;
  o.wall_s = wall_now_s() - w0;
  auto s = tracer.span("bench", "read_counters");
  o.result = relative(f.op->result());
  o.sim = counter_delta(before, snapshot(*f.machine, *f.world),
                        o.result.duration());
  o.sim["fused.sim_ns"] = static_cast<double>(o.result.duration());
  o.sim["fused.skew"] = o.result.skew();
  s.count("puts", o.sim["shmem.puts"]);
  return o;
}

bool same(const Outcome& a, const Outcome& b) {
  return a.completed && b.completed && a.result == b.result && a.sim == b.sim;
}

using PeOutputs = std::vector<std::vector<float>>;  // [pe][elem]

/// Host-side expected outputs per destination PE (ops::pool_all_reference
/// on every source PE, scattered into the destination layout).
PeOutputs expected_outputs(
    const fused::EmbeddingA2AConfig& cfg, const fused::EmbeddingA2AData& data) {
  const auto& map = cfg.map;
  PeOutputs expect(
      static_cast<std::size_t>(map.num_pes),
      std::vector<float>(map.dest_elems(), 0.0f));
  const auto emb = cfg.emb_config();
  for (int src = 0; src < map.num_pes; ++src) {
    const auto all = fcc::ops::pool_all_reference(
        emb, data.tables[static_cast<std::size_t>(src)],
        data.batches[static_cast<std::size_t>(src)]);
    for (int b = 0; b < map.global_batch; ++b) {
      const int d = map.dest_of_sample(b);
      const int lb = b % map.local_batch();
      for (int t = 0; t < map.tables_per_pe; ++t) {
        const int gt = map.global_table(src, t);
        for (int c = 0; c < map.dim; ++c) {
          expect[static_cast<std::size_t>(d)][map.dest_offset(lb, gt, c)] =
              all[(static_cast<std::size_t>(b) * map.tables_per_pe +
                   static_cast<std::size_t>(t)) *
                      map.dim +
                  static_cast<std::size_t>(c)];
        }
      }
    }
  }
  return expect;
}

/// Largest |a - b| over every PE's output (infinity on a shape mismatch or
/// a NaN).
double max_abs_diff(const PeOutputs& a, const PeOutputs& b) {
  if (a.size() != b.size()) return INFINITY;
  double worst = 0.0;
  for (std::size_t pe = 0; pe < a.size(); ++pe) {
    if (a[pe].size() != b[pe].size()) return INFINITY;
    for (std::size_t i = 0; i < a[pe].size(); ++i) {
      const double d = std::fabs(static_cast<double>(a[pe][i]) - b[pe][i]);
      if (std::isnan(d)) return INFINITY;
      worst = std::max(worst, d);
    }
  }
  return worst;
}

/// Runs `Op` functionally on the reduced instance and returns its output.
template <typename Op>
PeOutputs functional_run(int shards, unsigned threads, std::uint64_t seed,
                         Tracer& tracer, Report& r, const char* what) {
  gpu::Machine machine(torus_machine(shards));
  shmem::World world(machine);
  const auto cfg = functional_config(kNodes);
  fcc::shmem::SymArray<float> out(kNodes, cfg.map.dest_elems());
  auto data = fused::EmbeddingA2AData::random(cfg, &out, seed);
  Op op(world, cfg, &data);
  r.check(drive(machine, op, threads, tracer), std::string(what) + " completed");
  PeOutputs got;
  for (int pe = 0; pe < kNodes; ++pe) {
    const auto span = out.pe(pe);
    got.emplace_back(span.begin(), span.end());
  }
  return got;
}

/// Correctness gate on the reduced functional instance: fused (on the
/// serial and on the sharded engine) == baseline == ops::pool_all_reference.
void functional_check(const Options& opt, unsigned sharded_threads,
                      Tracer& tracer, Report& r) {
  auto s = tracer.span("bench", "functional_check");
  constexpr double kTol = 1e-4;  // float pooling order differs per backend
  const auto fused_out = functional_run<fused::FusedEmbeddingAllToAll>(
      1, 1, opt.seed, tracer, r, "functional fused run");
  const auto sharded_out = functional_run<fused::FusedEmbeddingAllToAll>(
      kShards, sharded_threads, opt.seed, tracer, r,
      "functional sharded fused run");
  const auto base_out = functional_run<fused::BaselineEmbeddingAllToAll>(
      1, 1, opt.seed, tracer, r, "functional baseline run");

  // The same seed regenerates the inputs both runs consumed.
  const auto cfg = functional_config(kNodes);
  const auto data = fused::EmbeddingA2AData::random(cfg, nullptr, opt.seed);
  PeOutputs expect;
  {
    auto rs = tracer.span("ops", "pool_all_reference");
    expect = expected_outputs(cfg, data);
  }
  const double vs_ref = max_abs_diff(fused_out, expect);
  const double vs_base = max_abs_diff(fused_out, base_out);
  r.check(vs_ref <= kTol, "functional fused output equals pool_all_reference");
  r.check(vs_base <= kTol, "functional fused output equals baseline output");
  r.check(sharded_out == fused_out,
          "functional sharded fused output equals serial fused output");
  std::ostringstream line;
  line << "functional check (2 tables/PE, batch 4/PE, dim 32, seed "
       << opt.seed << "): max |fused-reference| " << vs_ref
       << ", max |fused-baseline| " << vs_base;
  r.notes.push_back(line.str());
}

/// The same operator on the sharded engine: its first run must equal the
/// serial first run. The traced process times kShardedRuns warm runs more
/// for the window counters.
void sharded_check(const Outcome& serial_first, double serial_run_s,
                   unsigned threads, Tracer& tracer, Report& r) {
  constexpr int kShardedRuns = 3;
  auto s = tracer.span("bench", "sharded_check");
  BuildTimes unused;
  Flagship f = build(kShards, tracer, unused);
  Outcome o = run_flagship(f, threads, tracer);
  r.check(same(o, serial_first), "sharded result equals serial result");
  if (!tracer.enabled()) return;
  std::vector<double> barrier_s, critical_s, attainable_wall_s;
  for (int k = 0; k < kShardedRuns; ++k) {
    o = run_flagship(f, threads, tracer);
    r.check(same(o, serial_first), "warm sharded run equals serial result");
    const double window = static_cast<double>(o.stats.window_wall_ns) * 1e-9;
    const double critical =
        static_cast<double>(o.stats.critical_wall_ns) * 1e-9;
    barrier_s.push_back(static_cast<double>(o.stats.barrier_wall_ns) * 1e-9);
    critical_s.push_back(critical);
    attainable_wall_s.push_back(std::max(0.0, o.wall_s - window) + critical);
  }
  r.set_layer("sim.windows", static_cast<double>(o.stats.windows), "count");
  r.set_layer("sim.barrier_s", median(barrier_s), "s");
  r.set_layer("sim.critical_s", median(critical_s), "s");
  const double att = median(attainable_wall_s);
  r.set_layer("sim.attainable_speedup", att > 0 ? serial_run_s / att : 0, "x");
}

}  // namespace

void run_flagship_serial(const Options& opt, Tracer& tracer, Report& r) {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const unsigned sharded_threads =
      std::min(static_cast<unsigned>(kShards), cores);
  r.threads = 1;
  tracer.set_enabled(opt.trace);

  // Set-up, repeated; the last instance is the one that runs.
  BuildTimes times;
  Flagship f;
  sample_setup(
      [&] {
        f.clear();
        auto s = tracer.span("bench", "setup");
        f = build(1, tracer, times);
      },
      kFirstSetupBudgetS, r.setup_s);
  const auto more_setups = [&] {
    sample_setup([&] { build(1, tracer, times); }, kGapSetupBudgetS,
                 r.setup_s);
  };
  Outcome first;
  {
    auto s = tracer.span("bench", "first_run");
    first = run_flagship(f, 1, tracer);
  }
  r.first_run_s.add(first.wall_s);
  r.check(first.completed, "cold first run completed");

  functional_check(opt, sharded_threads, tracer, r);

  // An untraced timed run starts from a fresh set-up: its cold run is a
  // first_run_s sample and the warm run after it a run_s sample, so both
  // are sampled across the whole measurement. A traced run is one warm run.
  Outcome last;
  timed_loop(opt, tracer, [&] {
    const bool traced = tracer.enabled();
    if (!traced) {
      f.clear();
      f = build(1, tracer, times);
      const Outcome cold = run_flagship(f, 1, tracer);
      r.first_run_s.add(cold.wall_s);
      r.check(same(cold, first), "cold run equals first run");
    }
    auto s = tracer.span("bench", "timed_run");
    last = run_flagship(f, 1, tracer);
    r.check(same(last, first), "warm run equals first run");
    if (traced) {
      r.traced_run_s.add(last.wall_s);
      return;
    }
    r.run_s.add(last.wall_s);
    r.run_cpu_s.add(last.cpu_s);
  }, more_setups);

  r.peak_rss_mb = peak_rss_mb();
  f.clear();
  const double run_s = r.run_s.value();
  tracer.set_enabled(opt.trace);
  tracer.end_runs();
  sharded_check(first, run_s, sharded_threads, tracer, r);

  r.set_layer("gpu.machine_build_ms", median(times.machine_ms), "ms");
  r.set_layer("shmem.world_build_ms", median(times.world_ms), "ms");
  r.set_layer("fused.op_build_ms", median(times.op_ms), "ms");
  r.sim = first.sim;
  r.set_layer("sim.events", static_cast<double>(last.stats.events), "count");
  r.set_layer("sim.events_per_s",
              run_s > 0 ? static_cast<double>(last.stats.events) / run_s : 0,
              "1/s");
  r.set_layer("shmem.puts_per_s",
              run_s > 0 ? first.sim.at("shmem.puts") / run_s : 0, "1/s");
  std::ostringstream line;
  line << "sharded check: " << kShards << " engine shards, " << sharded_threads
       << " worker threads, untimed";
  r.notes.push_back(line.str());
}

}  // namespace perfbench
