#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>

#include "hw/fabric.h"
#include "hw/link.h"
#include "hw/nic.h"
#include "hw/topology.h"

namespace perfbench {

double wall_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

/// Every link the machine's topology exposes, in a fixed order: torus ring
/// links, then per-node fabric ports (egress, ingress), then node NICs.
template <typename F>
void for_each_link(gpu::Machine& machine, F&& f) {
  fcc::hw::Topology& topo = machine.topology();
  if (auto* torus = dynamic_cast<fcc::hw::TorusTopology*>(&topo)) {
    for (int node = 0; node < machine.num_nodes(); ++node) {
      for (int dir = 0; dir < 4; ++dir) f(torus->ring_link(node, dir));
    }
  }
  for (int node = 0; node < machine.num_nodes(); ++node) {
    if (const fcc::hw::Fabric* fab = topo.node_fabric(node)) {
      for (int p = 0; p < fab->num_ports(); ++p) {
        f(fab->egress(p));
        f(fab->ingress(p));
      }
    }
    if (const fcc::hw::Nic* nic = topo.node_nic(node)) f(nic->wire());
  }
}

}  // namespace

Counters snapshot(gpu::Machine& machine, const shmem::World& world) {
  Counters c;
  c.puts = world.puts_issued();
  for (int pe = 0; pe < machine.num_pes(); ++pe) {
    const fcc::gpu::Device& dev = machine.device(pe);
    c.gpu_busy_ns += dev.busy_ns();
    c.gpu_hbm_bytes += dev.total_hbm_bytes();
  }
  for_each_link(machine, [&c](const fcc::hw::Link& link) {
    c.link_busy_ns.push_back(link.busy_ns());
    c.link_bandwidth.push_back(link.bandwidth());
  });
  return c;
}

std::map<std::string, double> counter_delta(const Counters& before,
                                            const Counters& after,
                                            std::int64_t span_ns) {
  std::int64_t busy = 0, hottest = 0;
  double link_bytes = 0.0;
  for (std::size_t i = 0; i < after.link_busy_ns.size(); ++i) {
    const std::int64_t d = after.link_busy_ns[i] - before.link_busy_ns[i];
    busy += d;
    hottest = std::max(hottest, d);
    link_bytes += static_cast<double>(d) * after.link_bandwidth[i];
  }
  return {
      {"shmem.puts", static_cast<double>(after.puts - before.puts)},
      {"gpu.busy_ns",
       static_cast<double>(after.gpu_busy_ns - before.gpu_busy_ns)},
      {"gpu.hbm_bytes",
       static_cast<double>(after.gpu_hbm_bytes - before.gpu_hbm_bytes)},
      {"hw.link_bytes", std::round(link_bytes)},
      {"hw.link_busy_ns", static_cast<double>(busy)},
      {"hw.hot_link_util",
       span_ns > 0 ? static_cast<double>(hottest) / static_cast<double>(span_ns)
                   : 0.0},
  };
}

bool drive(gpu::Machine& machine, fcc::fused::FusedOp& op, unsigned threads,
           Tracer& tracer, fcc::sim::ShardedEngine::RunStats* stats) {
  fcc::sim::OneShot* done = nullptr;
  {
    auto s = tracer.span("fused", "FusedOp::spawn");
    done = &op.spawn();
  }
  {
    auto s = tracer.span("gpu", "Machine::run_all");
    const auto st = machine.run_all(threads);
    s.count("events", static_cast<double>(st.events));
    s.count("windows", static_cast<double>(st.windows));
    if (stats != nullptr) *stats = st;
  }
  return done->is_set() && machine.sharded().live_tasks() == 0;
}

void sample_setup(const std::function<void()>& once, double budget_s,
                  std::vector<double>& samples) {
  constexpr int kMinReps = 3, kMaxReps = 200;
  const double t0 = wall_now_s();
  for (int n = 0; n < kMinReps || (n < kMaxReps && wall_now_s() - t0 < budget_s);
       ++n) {
    const double s0 = wall_now_s();
    once();
    samples.push_back(wall_now_s() - s0);
  }
}

void timed_loop(const Options& opt, Tracer& tracer,
                const std::function<void()>& once,
                const std::function<void()>& between, int min_runs) {
  const double t0 = wall_now_s();
  double last = 0.0;
  int runs = 0;
  // Stop before a run that would likely end past the budget.
  while (runs < min_runs || wall_now_s() - t0 + last <= opt.seconds) {
    tracer.set_enabled(opt.trace && runs % 2 == 1);
    tracer.begin_run();
    const double r0 = wall_now_s();
    once();
    last = wall_now_s() - r0;
    ++runs;
    tracer.set_enabled(false);
    between();
  }
}

}  // namespace perfbench
