// fcc_perfbench: runs one benchmark workload in this process and prints its
// metrics; the last stdout line is the JSON result.
//
//   fcc_perfbench --workload flagship_serial --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics (host time and memory); --trace 1
// reports the per-layer metrics instead, from a run whose timed iterations
// alternate between untraced and traced, and writes the span file and the
// per-layer self-time table to --out. Exits 1 on any failed correctness
// check or exception, 2 on bad arguments.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  WorkloadFn fn;
};

constexpr Workload kWorkloads[] = {
    {"flagship_serial", run_flagship_serial},
    {"serve_planned", run_serve_planned},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "fcc_perfbench: " << why
            << "\nusage: fcc_perfbench --workload "
               "{flagship_serial|serve_planned} --seed N "
               "--seconds S --trace {0|1} [--out DIR]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("bad --seed " + value);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0)) usage("bad --seconds " + value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      opt.trace = value == "1";
    } else if (key == "--out") {
      opt.out_dir = value;
    } else {
      usage("unknown argument " + key);
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  return opt;
}

/// Simulated values that are also per-layer metrics, with their units.
/// (The rest of Report::sim, e.g. serve.records_hash, is only compared.)
constexpr std::pair<const char*, const char*> kSimMetrics[] = {
    {"fused.sim_ns", "ns"},        {"fused.skew", "ratio"},
    {"gpu.busy_ns", "ns"},         {"gpu.hbm_bytes", "B"},
    {"hw.link_bytes", "B"},        {"hw.link_busy_ns", "ns"},
    {"hw.hot_link_util", "ratio"}, {"shmem.puts", "count"},
    {"serve.sim_p50_us", "us"},    {"serve.sim_p99_us", "us"},
    {"serve.sim_p999_us", "us"},   {"serve.completed", "count"},
    {"serve.rejected", "count"},
};

/// Self-time table and span file for a traced run; self.<layer>_s metrics
/// are per traced timed run. Set-up, the first run and the checks all carry
/// run id 0; timed_loop numbers the timed runs from 1.
void finish_trace(const Options& opt, const Tracer& tracer, Report& r) {
  const auto all = tracer.self_times([](int) { return true; });
  const auto timed = tracer.self_times([](int run) { return run >= 1; });
  // Per whole traced run: a segmented run's samples cover one segment each.
  const double traced_runs =
      static_cast<double>(r.traced_run_s.count()) /
      static_cast<double>(std::max<std::size_t>(1, r.traced_run_s.segments()));
  for (const auto& [layer, secs] : timed) {
    r.set_layer("self." + layer + "_s",
                traced_runs > 0 ? secs / traced_runs : 0.0, "s");
  }
  const double untraced = r.run_s.value();
  const double traced = r.traced_run_s.value();
  r.set_layer("trace.run_s", traced, "s");
  r.set_layer("trace.overhead_s", traced - untraced, "s");
  r.set_layer("trace.spans", static_cast<double>(tracer.spans().size()), "count");

  std::filesystem::create_directories(opt.out_dir);
  const std::string stem = opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed);
  {
    std::ofstream os(stem + ".trace.json");
    tracer.write_chrome_json(os);
  }
  std::ostringstream table;
  char line[160];
  std::snprintf(line, sizeof line, "%-10s %14s %18s\n", "layer",
                "self s (all)", "self s / timed run");
  table << line;
  for (const auto& [layer, secs] : all) {
    const auto it = timed.find(layer);
    const double per_run =
        it != timed.end() && traced_runs > 0 ? it->second / traced_runs : 0.0;
    std::snprintf(line, sizeof line, "%-10s %14.6f %18.6f\n", layer.c_str(),
                  secs, per_run);
    table << line;
  }
  std::snprintf(line, sizeof line,
                "tracing overhead: %.6f s per run (traced %.6f s over %zu "
                "runs, untraced %.6f s over %zu runs)\n",
                traced - untraced, traced, r.traced_run_s.count(), untraced,
                r.run_s.count());
  table << line;
  std::ofstream(stem + ".layers.txt") << table.str();
  std::cout << table.str() << "spans: " << stem << ".trace.json\n";
}

void print_json_metric(std::ostream& os, bool& first, const std::string& name,
                       double value, const std::string& unit) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
     << ", \"unit\": \"" << unit << "\"}";
  first = false;
}

int run(const Options& opt) {
  WorkloadFn fn = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) fn = w.fn;
  }
  if (fn == nullptr) usage("unknown workload " + opt.workload);

  Report r;
  Tracer tracer;
  try {
    fn(opt, tracer, r);
  } catch (const std::exception& e) {
    r.check(false, std::string("exception: ") + e.what());
  }
  if (opt.trace && r.failed == 0) finish_trace(opt, tracer, r);

  std::cout << "workload " << opt.workload << ", seed " << opt.seed
            << ", trace " << opt.trace << "; host cores "
            << std::thread::hardware_concurrency() << ", simulator threads "
            << r.threads << "\n";
  for (const std::string& n : r.notes) std::cout << n << "\n";
  for (const std::string& f : r.failures) std::cout << "FAILED: " << f << "\n";

  // Simulated values: identical on every run, mode and shard count.
  std::cout << "sim";
  for (const auto& [name, value] : r.sim) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    std::cout << " " << name << "=" << buf;
  }
  std::cout << "\n";

  const double rss_mb = r.peak_rss_mb > 0 ? r.peak_rss_mb : peak_rss_mb();
  const double error_rate =
      r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 1.0;
  std::ostringstream json;
  json << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
       << ", \"metrics\": {";
  bool first = true;
  if (!opt.trace) {
    char line[320];
    std::snprintf(line, sizeof line,
                  "setup_s %.6f (median of %zu) | first_run_s %.6f (%zu "
                  "samples) | run_s %.6f (%zu samples) | run_cpu_s %.6f | "
                  "peak_rss_mb %.1f | error_rate %.4f (%lld/%lld)\n",
                  median(r.setup_s), r.setup_s.size(), r.first_run_s.value(),
                  r.first_run_s.count(), r.run_s.value(), r.run_s.count(),
                  r.run_cpu_s.value(),
                  rss_mb, error_rate, static_cast<long long>(r.failed),
                  static_cast<long long>(r.attempted));
    std::cout << line;
    const auto& segs = r.run_s.by_segment();
    for (std::size_t k = 0; k < segs.size(); ++k) {
      std::cout << "run_s samples";
      if (segs.size() > 1) std::cout << " (segment " << k << ")";
      std::cout << ":";
      for (const double v : segs[k]) std::cout << " " << v;
      std::cout << "\n";
    }
    print_json_metric(json, first, "setup_s", median(r.setup_s), "s");
    print_json_metric(json, first, "first_run_s", r.first_run_s.value(), "s");
    print_json_metric(json, first, "run_s", r.run_s.value(), "s");
    print_json_metric(json, first, "run_cpu_s", r.run_cpu_s.value(), "s");
    print_json_metric(json, first, "peak_rss_mb", rss_mb, "MB");
    print_json_metric(json, first, "success_rate", 1.0 - error_rate, "ratio");
  } else {
    for (const auto& [name, unit] : kSimMetrics) {
      const auto it = r.sim.find(name);
      if (it != r.sim.end()) r.set_layer(name, it->second, unit);
    }
    for (const auto& [name, m] : r.layer) {
      print_json_metric(json, first, name, m.value, m.unit);
    }
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return r.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse(argc, argv));
}
