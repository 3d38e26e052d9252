// serve_planned: serve::Simulator on a 2-node x 4-GPU fully-connected
// machine with the default 3-class catalog, 2 lanes and the planner on
// (cold PlanCache), replaying one open-loop Poisson trace. The trace is
// replayed as consecutive segments in rotation, so a timed run is short and
// every segment is sampled throughout the measurement.
#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>

#include "bench.h"
#include "common/stats.h"
#include "framework/graph.h"
#include "framework/op_registry.h"
#include "framework/session.h"
#include "plan/plan_cache.h"
#include "plan/planner.h"
#include "serve/arrivals.h"
#include "serve/catalog.h"
#include "serve/simulator.h"

namespace perfbench {
namespace {

namespace fw = fcc::fw;
namespace plan = fcc::plan;
namespace serve = fcc::serve;

constexpr int kRequests = 2000;
// Fixed offered load: 0.8x the catalog's calibrated capacity on this
// machine (~30.2k req/s). Deliberately not re-calibrated per run, so the
// inputs stay put when the simulator's costs change.
constexpr double kOfferedRps = 24'000.0;
// The trace is replayed as kSegments consecutive slices of kRequests /
// kSegments arrivals, each rebased to start at 0.
// The whole trace keeps the work per seed steady (its simulated PUT count
// moves ~1% between seeds, a 250-request trace's ~9%), while a half-second
// timed run gives each process dozens of samples.
constexpr int kSegments = 8;
constexpr int kStageRuns = 5;

gpu::Machine::Config serve_machine() {
  gpu::Machine::Config cfg;
  cfg.num_nodes = 2;
  cfg.gpus_per_node = 4;
  return cfg;
}

serve::ServeConfig serve_config(plan::PlanCache* cache) {
  serve::ServeConfig cfg;
  cfg.lanes = 2;
  cfg.planner = true;
  cfg.plan_cache = cache;
  return cfg;
}

struct Server {
  std::unique_ptr<gpu::Machine> machine;
  std::unique_ptr<shmem::World> world;
  std::unique_ptr<plan::PlanCache> cache;
  std::unique_ptr<serve::Simulator> sim;

  /// Tears down in dependency order (simulator -> world -> machine).
  void clear() {
    sim.reset();
    cache.reset();
    world.reset();
    machine.reset();
  }
};

struct BuildTimes {
  std::vector<double> machine_ms, world_ms, simulator_ms;
};

Server build(Tracer& tracer, BuildTimes& times) {
  Server s;
  time_ms(times.machine_ms, [&] {
    auto span = tracer.span("gpu", "Machine::Machine");
    s.machine = std::make_unique<gpu::Machine>(serve_machine());
  });
  time_ms(times.world_ms, [&] {
    auto span = tracer.span("shmem", "World::World");
    s.world = std::make_unique<shmem::World>(*s.machine);
  });
  time_ms(times.simulator_ms, [&] {
    // Construction plans every class chain (cold cache) and builds one
    // operator per (lane, class, stage) through the OpRegistry.
    auto span = tracer.span("serve", "Simulator::Simulator");
    s.cache = std::make_unique<plan::PlanCache>();
    s.sim = std::make_unique<serve::Simulator>(
        *s.machine, *s.world, serve::default_catalog(s.machine->num_pes()),
        serve_config(s.cache.get()));
  });
  return s;
}

struct Outcome {
  serve::ServeReport report;
  fcc::sim::ShardedEngine::RunStats stats;
  std::map<std::string, double> sim;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

Outcome replay(Server& s, const std::vector<serve::Arrival>& trace,
               Tracer& tracer) {
  Outcome o;
  const Counters before = snapshot(*s.machine, *s.world);
  const double w0 = wall_now_s();
  const double c0 = cpu_now_s();
  {
    auto span = tracer.span("serve", "Simulator::run");
    o.report = s.sim->run(trace);
  }
  o.cpu_s = cpu_now_s() - c0;
  o.wall_s = wall_now_s() - w0;
  auto span = tracer.span("bench", "read_counters");
  o.stats = s.machine->last_run_stats();
  const auto& all = o.report.overall;
  o.sim = counter_delta(before, snapshot(*s.machine, *s.world),
                        o.report.last_end);
  o.sim["serve.completed"] = static_cast<double>(all.completed);
  o.sim["serve.rejected"] = static_cast<double>(all.rejected);
  o.sim["serve.shed"] = static_cast<double>(all.shed);
  o.sim["serve.timed_out"] = static_cast<double>(all.timeouts);
  span.count("events", static_cast<double>(o.stats.events));
  return o;
}

/// Every replay of a segment must reproduce its first replay.
bool same(const Outcome& a, const Outcome& b) {
  return a.report.records == b.report.records && a.sim == b.sim;
}

/// Every request ends in exactly one bucket.
bool accounted(const serve::ServeReport& rep, std::size_t sent) {
  const auto& all = rep.overall;
  return rep.records.size() == sent &&
         all.completed + all.rejected + all.shed + all.timeouts ==
             static_cast<std::int64_t>(sent);
}

/// Splits `trace` into kSegments consecutive slices, each rebased so its
/// first arrival is at 0.
std::vector<std::vector<serve::Arrival>> segments(
    const std::vector<serve::Arrival>& trace) {
  std::vector<std::vector<serve::Arrival>> out(kSegments);
  const std::size_t n = trace.size();
  for (std::size_t k = 0; k < out.size(); ++k) {
    const std::size_t lo = n * k / out.size(), hi = n * (k + 1) / out.size();
    for (std::size_t i = lo; i < hi; ++i) {
      out[k].push_back({trace[i].t - trace[lo].t, trace[i].cls});
    }
  }
  return out;
}

/// Simulated values of the whole trace from its segments' reference
/// replays: counts and busy times add up, the hot link is the hottest of
/// any segment, latency percentiles are taken over every completed request
/// (as ServeReport::overall counts them), and the hash covers every record.
std::map<std::string, double> whole_trace_sim(
    const std::vector<Outcome>& refs) {
  std::map<std::string, double> sim;
  fcc::PercentileSketch total;
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over every record field
  auto mix = [&h](std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const Outcome& o : refs) {
    for (const auto& [name, value] : o.sim) {
      sim[name] = name == "hw.hot_link_util" ? std::max(sim[name], value)
                                             : sim[name] + value;
    }
    for (const auto& rec : o.report.records) {
      for (const std::int64_t v :
           {std::int64_t{rec.id}, std::int64_t{rec.cls}, rec.arrival,
            rec.start, rec.end, std::int64_t{rec.batch_size},
            std::int64_t{rec.rejected}, std::int64_t{rec.attempts},
            std::int64_t{rec.timed_out}, std::int64_t{rec.shed}}) {
        mix(v);
      }
      if (!rec.rejected && !rec.shed && !rec.timed_out) {
        total.add(rec.total_ns());
      }
    }
  }
  const auto us = [&total](double p) {
    return static_cast<double>(total.percentile(p)) * 1e-3;
  };
  if (!total.empty()) {
    sim["serve.sim_p50_us"] = us(50.0);
    sim["serve.sim_p99_us"] = us(99.0);
    sim["serve.sim_p999_us"] = us(99.9);
  }
  // Truncated to 52 bits so it survives a round trip through a JSON double.
  sim["serve.records_hash"] = static_cast<double>(h & ((1ull << 52) - 1));
  return sim;
}

/// One class chain as the simulator plans it: a linear graph, stage i's
/// output feeding stage i+1 (mirrors serve::Simulator's planning input).
fw::Graph chain_graph(const serve::ServeClass& cls) {
  fw::Graph g;
  fw::TensorId prev{};
  for (std::size_t s = 0; s < cls.chain.size(); ++s) {
    auto out = g.tensor(cls.name + ".t" + std::to_string(s));
    std::vector<fw::TensorId> inputs;
    if (s > 0) inputs.push_back(prev);
    g.add(cls.chain[s], inputs, {out}, cls.name + "#" + std::to_string(s));
    prev = out;
  }
  return g;
}

/// Planner layer on its own: plans every chain cold, then again against
/// the warm cache; then runs each planned stage standalone through the
/// registry on its planned backend (framework layer).
void plan_and_stage_metrics(const serve::PlanSummary& simulator_plan,
                            Tracer& tracer, Report& r) {
  const auto mc = serve_machine();
  const auto catalog = serve::default_catalog(mc.num_nodes * mc.gpus_per_node);
  plan::PlanCache cache;
  plan::PlanOptions options;
  options.cache = &cache;
  const plan::Planner planner;

  std::vector<std::vector<std::pair<fw::OpSpec, fw::Backend>>> stages;
  double cold_ms = 0.0, warm_ms = 0.0;
  for (const bool warm : {false, true}) {
    for (const serve::ServeClass& cls : catalog) {
      const fw::Graph g = chain_graph(cls);
      const double t0 = wall_now_s();
      plan::Planned planned;
      {
        auto span = tracer.span("plan", "Planner::plan");
        planned = planner.plan(g, mc, options);
      }
      (warm ? warm_ms : cold_ms) += (wall_now_s() - t0) * 1e3;
      if (warm) continue;
      auto& chain = stages.emplace_back();
      for (int id = 0; id < planned.graph.num_nodes(); ++id) {
        const fw::GraphNode& node = planned.graph.node(id);
        if (node.fused_away) continue;
        chain.emplace_back(node.spec,
                           planned.plan.backends[static_cast<std::size_t>(id)]);
      }
    }
  }
  r.set_layer("plan.cold_plan_ms", cold_ms, "ms");
  r.set_layer("plan.warm_plan_ms", warm_ms, "ms");
  r.set_layer("plan.cache_hits", static_cast<double>(cache.stats().hits),
              "count");
  r.set_layer("plan.cache_misses", static_cast<double>(cache.stats().misses),
              "count");
  int fused = 0, baseline = 0;
  for (const auto& chain : stages) {
    for (const auto& stage : chain) {
      ++(stage.second == fw::Backend::kFused ? fused : baseline);
    }
  }
  r.check(fused == simulator_plan.fused_stages &&
              baseline == simulator_plan.baseline_stages,
          "standalone plan matches the simulator's plan");

  std::unique_ptr<fw::Session> session;
  {
    auto span = tracer.span("framework", "Session::Session");
    session = std::make_unique<fw::Session>(mc);
  }
  const fw::OpRegistry& registry = fw::OpRegistry::global();
  for (std::size_t c = 0; c < catalog.size(); ++c) {
    for (std::size_t i = 0; i < stages[c].size(); ++i) {
      const auto& [spec, backend] = stages[c][i];
      std::unique_ptr<fcc::fused::FusedOp> op;
      {
        auto span = tracer.span("framework", "OpRegistry::make");
        op = registry.at(spec.name).make(session->world(), spec, backend);
      }
      const std::string key = "framework.stage." + catalog[c].name + "." +
                              std::to_string(i);
      std::vector<double> run_ms;
      fcc::sim::ShardedEngine::RunStats stats;
      for (int k = 0; k <= kStageRuns; ++k) {  // k == 0 is the cold run
        const double t0 = wall_now_s();
        r.check(drive(session->machine(), *op, 1, tracer, &stats),
                key + " completed");
        if (k > 0) run_ms.push_back((wall_now_s() - t0) * 1e3);
      }
      r.set_layer(key + ".run_ms", median(run_ms), "ms");
      r.set_layer(key + ".events", static_cast<double>(stats.events), "count");
      r.notes.push_back("stage " + catalog[c].name + "." + std::to_string(i) +
                        ": " + spec.name + " on " +
                        (backend == fw::Backend::kFused ? "fused" : "baseline"));
    }
  }
}

}  // namespace

void run_serve_planned(const Options& opt, Tracer& tracer, Report& r) {
  r.threads = 1;
  tracer.set_enabled(opt.trace);

  BuildTimes times;
  Server s;
  sample_setup(
      [&] {
        s.clear();
        auto span = tracer.span("bench", "setup");
        s = build(tracer, times);
      },
      kFirstSetupBudgetS, r.setup_s);
  const auto more_setups = [&] {
    sample_setup([&] { build(tracer, times); }, kGapSetupBudgetS,
                 r.setup_s);
  };
  const serve::PlanSummary ps = s.sim->plan_summary();
  r.set_layer("plan.fused_stages", ps.fused_stages, "count");
  r.set_layer("plan.baseline_stages", ps.baseline_stages, "count");

  // Input: an open-loop Poisson trace drawn from the seed.
  const std::vector<serve::Arrival> trace = serve::poisson_trace(
      kOfferedRps, kRequests, opt.seed, serve::class_weights(s.sim->catalog()));
  const auto segs = segments(trace);

  if (opt.trace) plan_and_stage_metrics(ps, tracer, r);

  // A timed run replays one segment; untraced and traced runs each rotate
  // through the segments. An untraced run starts from a fresh simulator:
  // its cold replay is a first_run_s sample of the segment and the warm
  // replay after it a run_s sample. A traced run is one warm replay. The
  // first replay of a segment is the reference every later one must equal.
  std::vector<std::optional<Outcome>> refs(segs.size());
  const auto check = [&](const Outcome& o, std::size_t k, const char* what) {
    if (!refs[k]) refs[k] = o;
    r.check(same(o, *refs[k]), std::string(what) + " equals the first replay");
    r.check(accounted(o.report, segs[k].size()),
            std::string(what) +
                ": completed + rejected + shed + timed_out == sent");
  };
  std::size_t untraced_runs = 0, traced_runs = 0;
  timed_loop(opt, tracer, [&] {
    const bool traced = tracer.enabled();
    const std::size_t k =
        (traced ? traced_runs++ : untraced_runs++) % segs.size();
    if (!traced) {
      s.clear();
      s = build(tracer, times);
      const Outcome cold = replay(s, segs[k], tracer);
      r.first_run_s.add(cold.wall_s, k);
      check(cold, k, "cold replay");
    }
    auto span = tracer.span("bench", "timed_run");
    const Outcome warm = replay(s, segs[k], tracer);
    check(warm, k, "warm replay");
    if (traced) {
      r.traced_run_s.add(warm.wall_s, k);
    } else {
      r.run_s.add(warm.wall_s, k);
      r.run_cpu_s.add(warm.cpu_s, k);
    }
  }, more_setups, static_cast<int>(segs.size()) * (opt.trace ? 2 : 1));
  r.peak_rss_mb = peak_rss_mb();

  r.set_layer("gpu.machine_build_ms", median(times.machine_ms), "ms");
  r.set_layer("shmem.world_build_ms", median(times.world_ms), "ms");
  r.set_layer("serve.simulator_build_ms", median(times.simulator_ms), "ms");
  std::vector<Outcome> first;
  for (auto& ref : refs) first.push_back(std::move(*ref));
  r.sim = whole_trace_sim(first);
  // Per whole trace, like run_s: every segment's events, windows and PUTs.
  double trace_events = 0, trace_windows = 0;
  for (const Outcome& o : first) {
    trace_events += static_cast<double>(o.stats.events);
    trace_windows += static_cast<double>(o.stats.windows);
  }
  const double run_s = r.run_s.value();
  r.set_layer("sim.events", trace_events, "count");
  r.set_layer("sim.events_per_s", run_s > 0 ? trace_events / run_s : 0, "1/s");
  r.set_layer("sim.windows", trace_windows, "count");
  r.set_layer("shmem.puts_per_s",
              run_s > 0 ? r.sim.at("shmem.puts") / run_s : 0, "1/s");
  r.set_layer("serve.host_us_per_request",
              run_s * 1e6 / static_cast<double>(trace.size()), "us");
  std::ostringstream line;
  line << "trace: " << trace.size() << " requests in " << segs.size()
       << " segments, Poisson at " << kOfferedRps << " req/s, seed "
       << opt.seed << "; planned stages: fused " << ps.fused_stages
       << ", baseline " << ps.baseline_stages;
  r.notes.push_back(line.str());
}

}  // namespace perfbench
