// Transformer token-phase decode with row-parallel MLP layers, on the
// Graph API.
//
// Auto-regressive decode runs one token at a time, so each MLP layer's
// second GEMM is a GEMV whose partial outputs need an AllReduce (Fig. 3 /
// Megatron). Each decode stream is a pure dependency chain — token t's
// layer l waits on layer l-1 — which the Graph API times exactly like the
// old hand-chained Session::run loop (asserted below). The win appears
// when the server decodes several independent requests: their chains live
// in one Graph and the executor interleaves them, so request B's layers
// run during request A's AllReduce stalls.
//
// Run with no arguments for both paths, `--sequential` for the blocking
// loop only, `--framework` for the Graph-API path only (CI smoke).
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "common/table.h"
#include "framework/session.h"
#include "fused/gemv_allreduce.h"

namespace {

using namespace fcc;

constexpr int kLayers = 8;
constexpr int kTokens = 4;
constexpr int kRequests = 2;  // independent decode streams in one graph
constexpr int kDModel = 8192;
constexpr int kDff = 16384;  // row-parallel: each GPU holds d_ff/4 rows

gpu::Machine::Config machine_config() {
  gpu::Machine::Config machine;
  machine.num_nodes = 1;
  machine.gpus_per_node = 4;
  return machine;
}

fused::GemvAllReduceConfig layer_config() {
  fused::GemvAllReduceConfig layer;
  layer.m = kDModel;      // output dim (after the down-projection)
  layer.k_global = kDff;  // reduction dim, split across GPUs
  layer.functional = false;
  return layer;
}

/// The original blocking loop: one Session::run per layer per token.
TimeNs decode_sequential(fw::Backend backend) {
  fw::Session session(machine_config());
  const auto spec = fw::make_spec("fcc::gemv_allreduce", layer_config());
  TimeNs total = 0;
  for (int tok = 0; tok < kTokens; ++tok) {
    for (int l = 0; l < kLayers; ++l) {
      total += session.run(spec, backend).duration();
    }
  }
  return total;
}

/// Concatenates the parts' stream forms: cat("h", 3, ".", 7) == "h3.7".
template <typename... Parts>
std::string cat(const Parts&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  return os.str();
}

/// One decode stream as a chain Graph: hidden-state tensors thread token t
/// layer l to the next op, so every node depends on its predecessor.
fw::Graph decode_graph(int requests) {
  fw::Graph g;
  for (int r = 0; r < requests; ++r) {
    fw::TensorId hidden = g.tensor(cat("h", r));
    for (int tok = 0; tok < kTokens; ++tok) {
      for (int l = 0; l < kLayers; ++l) {
        // Each layer consumes and rewrites the stream's hidden state.
        fw::TensorId next = g.tensor(cat("h", r, ".", tok * kLayers + l));
        g.add("fcc::gemv_allreduce", layer_config(), {hidden}, {next},
              cat("r", r, ".t", tok, ".l", l));
        hidden = next;
      }
    }
  }
  return g;
}

TimeNs decode_graph_makespan(fw::Backend backend, int requests,
                             double* overlap = nullptr) {
  fw::Session session(machine_config());
  const auto res = session.run(decode_graph(requests), backend);
  if (overlap != nullptr) *overlap = res.overlap_fraction();
  return res.makespan();
}

int run(bool sequential_path, bool framework_path) {
  TimeNs seq_fused = 0, seq_base = 0;
  if (sequential_path) {
    seq_fused = decode_sequential(fw::Backend::kFused);
    seq_base = decode_sequential(fw::Backend::kBaseline);
  }
  TimeNs graph_fused = 0, graph_base = 0;
  double overlap = 0.0;
  if (framework_path) {
    graph_fused = decode_graph_makespan(fw::Backend::kFused, 1);
    graph_base = decode_graph_makespan(fw::Backend::kBaseline, 1);
  }

  const TimeNs fused_ns = framework_path ? graph_fused : seq_fused;
  const TimeNs base_ns = framework_path ? graph_base : seq_base;
  AsciiTable t({"path", "per-token (us)", "total (us)", "vs baseline"});
  t.add_row({"baseline", AsciiTable::fmt(ns_to_us(base_ns / kTokens), 1),
             AsciiTable::fmt(ns_to_us(base_ns), 1), "1.000"});
  t.add_row({"fused", AsciiTable::fmt(ns_to_us(fused_ns / kTokens), 1),
             AsciiTable::fmt(ns_to_us(fused_ns), 1),
             AsciiTable::fmt(static_cast<double>(fused_ns) / base_ns, 3)});
  std::printf("Transformer decode: %d layers x %d tokens, d_model=%d "
              "d_ff=%d, 4 GPUs row-parallel\n",
              kLayers, kTokens, kDModel, kDff);
  t.print(std::cout);
  std::printf("latency reduction: %.1f%%\n",
              100.0 * (1.0 - static_cast<double>(fused_ns) / base_ns));

  if (sequential_path && framework_path) {
    // A decode chain has no overlap to find: the Graph API must time it
    // exactly like the blocking loop.
    std::printf("graph chain == sequential loop: %s (%.1f us vs %.1f us)\n",
                graph_fused == seq_fused ? "OK" : "MISMATCH",
                ns_to_us(graph_fused), ns_to_us(seq_fused));
    if (graph_fused != seq_fused) return 1;
  }

  if (framework_path) {
    // Serving: independent decode streams in one graph overlap each other.
    const TimeNs batched =
        decode_graph_makespan(fw::Backend::kFused, kRequests, &overlap);
    std::printf("%d concurrent requests (fused): %.1f us vs %.1f us "
                "back-to-back (%.2fx, overlap %.3f)\n",
                kRequests, ns_to_us(batched),
                ns_to_us(graph_fused * kRequests),
                static_cast<double>(graph_fused * kRequests) /
                    static_cast<double>(batched),
                overlap);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool sequential_path = true, framework_path = true;
  if (argc > 1) {
    if (std::strcmp(argv[1], "--sequential") == 0) {
      framework_path = false;
    } else if (std::strcmp(argv[1], "--framework") == 0) {
      sequential_path = false;
    } else {
      std::fprintf(stderr, "usage: %s [--sequential|--framework]\n", argv[0]);
      return 2;
    }
  }
  return run(sequential_path, framework_path);
}
