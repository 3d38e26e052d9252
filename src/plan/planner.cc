#include "plan/planner.h"

#include <chrono>
#include <sstream>

#include "plan/cost_scorer.h"

namespace fcc::plan {

namespace {

std::string cache_key(const PlanReport& report, const PlanOptions& options) {
  std::ostringstream os;
  os << report.graph_key << "##" << report.topo_key << "##backend="
     << (options.default_backend == fw::Backend::kFused ? "fused" : "baseline")
     << ";passes=";
  bool first = true;
  for (const std::string& p : options.passes) {
    os << (first ? "" : ",") << p;
    first = false;
  }
  return os.str();
}

/// Replay a cached plan's decisions onto a fresh graph copy: collapse the
/// recorded pattern pairs and re-apply the collective-algorithm overrides.
/// No pattern matching, no scoring — zero passes run.
void replay(fw::Graph& graph, const Plan& plan) {
  apply_fused_rewrites(graph, plan.fused_rewrites);
  for (const AlgoChoice& choice : plan.allreduce_algos) {
    fw::OpSpec& spec = graph.mutable_spec(choice.node);
    const OpCostModel* model = ScorerRegistry::global().find(spec.name);
    if (model != nullptr && model->set_allreduce_algo != nullptr) {
      model->set_allreduce_algo(spec, choice.algo);
    }
  }
}

}  // namespace

std::string PlanReport::to_string() const {
  std::ostringstream os;
  os << "plan: " << (cache_hit ? "cache hit" : "planned")
     << (cacheable ? "" : " (uncacheable: inexact graph fingerprint)")
     << "\n";
  for (const auto& run : passes) {
    os << "  pass " << run.name << ": " << run.changes << " change"
       << (run.changes == 1 ? "" : "s") << "\n";
  }
  for (const PlanDecision& d : decisions) {
    os << "  [" << d.pass << "] node " << d.node << " '" << d.label << "' ("
       << d.op << "): " << (d.accepted ? "applied " : "kept ") << d.choice
       << " — predicted fused " << d.predicted_fused_ns << " ns vs baseline "
       << d.predicted_baseline_ns << " ns"
       << (d.calibrated ? " [calibrated]" : " [analytic]") << "; " << d.why
       << "\n";
  }
  return os.str();
}

Planner::Planner(const fw::OpRegistry& registry) : registry_(registry) {}

Planned Planner::plan(const fw::Graph& graph,
                      const gpu::Machine::Config& machine,
                      const PlanOptions& options) const {
  const auto t0 = std::chrono::steady_clock::now();
  Planned out{graph, {}, {}};
  PlanReport& report = out.report;

  // A node carrying the wrong config type trips its shape_key hook inside
  // graph_fingerprint, which rethrows SpecTypeError with the node's
  // identity attached — propagated as-is (still a std::bad_any_cast) so
  // callers guarding single-op dispatch keep working.
  const fw::GraphFingerprint gfp = graph_fingerprint(graph, registry_);
  report.graph_key = gfp.key;
  report.topo_key = fw::topology_fingerprint(machine);
  report.cacheable = gfp.exact;
  const std::string key = cache_key(report, options);

  if (options.cache != nullptr) {
    if (!gfp.exact) {
      options.cache->note_uncacheable();
    } else if (const PlanCache::Entry* hit = options.cache->find(key)) {
      out.plan = hit->plan;
      report.decisions = hit->decisions;
      report.cache_hit = true;
      replay(out.graph, out.plan);
      report.planning_host_ns = static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
      return out;
    }
  }

  out.plan.backends.assign(static_cast<std::size_t>(graph.num_nodes()),
                           options.default_backend);

  CostEnv env;
  env.machine = machine;
  const CostScorer scorer(env);
  PassContext ctx;
  ctx.registry = &registry_;
  ctx.machine = &machine;
  ctx.scorer = &scorer;
  ctx.plan = &out.plan;
  ctx.report = &report;

  const PassManager pm(options.passes);
  report.passes = pm.run(out.graph, ctx);

  // Every node the pipeline left live must be dispatchable — surface the
  // registry's unknown-op error (with the full registered-op list) as a
  // catchable PlanError naming the node, instead of letting the executor
  // abort mid-run later.
  for (int i = 0; i < out.graph.num_nodes(); ++i) {
    const fw::GraphNode& node = out.graph.node(i);
    if (node.fused_away) continue;
    try {
      (void)registry_.at(node.spec.name);
    } catch (const std::logic_error& e) {
      throw PlanError("planning graph node '" + node.label + "': " + e.what());
    }
  }

  if (options.cache != nullptr && gfp.exact) {
    options.cache->insert(key, PlanCache::Entry{out.plan, report.decisions});
  }
  report.planning_host_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return out;
}

}  // namespace fcc::plan
