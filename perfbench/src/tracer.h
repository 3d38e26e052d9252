// In-memory span recorder for the benchmark's traced runs.
//
// Spans wrap the benchmark's own calls into each simulator layer (Machine
// construction, FusedOp::spawn, Machine::run_all, Simulator::run, ...).
// Each span keeps its name, layer, start, end, parent span and the id of
// the run it belongs to, plus any counters snapshotted when it closes.
// Nothing is written until the run ends: write_chrome_json() dumps the
// spans, self_times() folds them into per-layer self time (a span's
// duration minus the part its direct children cover).
//
// A disabled tracer records nothing; span() then costs one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct SpanRecord {
    std::string layer;
    std::string name;
    std::int64_t start_ns = 0;  // since the tracer was constructed
    std::int64_t end_ns = 0;
    int parent = -1;  // index into spans(), -1 at top level
    int run = 0;      // shared by every span of one run
    std::vector<std::pair<std::string, double>> counters;
  };

  /// RAII span: opened by Tracer::span(), closed on destruction.
  class Span {
   public:
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    /// Attaches a counter value to this span (e.g. events after run_all).
    void count(std::string name, double value) {
      if (tracer_ != nullptr) {
        tracer_->spans_[static_cast<std::size_t>(index_)].counters.emplace_back(
            std::move(name), value);
      }
    }

   private:
    friend class Tracer;
    Span(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    Tracer* tracer_;
    int index_;
  };

  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Starts a new run id; spans opened from now on carry it.
  void begin_run() { ++run_; }
  /// Spans opened from now on carry run id 0, as set-up and checks do.
  void end_runs() { run_ = 0; }

  Span span(const char* layer, const char* name) {
    if (!enabled_) return Span(nullptr, -1);
    SpanRecord rec;
    rec.layer = layer;
    rec.name = name;
    rec.start_ns = now_ns();
    rec.parent = open_.empty() ? -1 : open_.back();
    rec.run = run_;
    spans_.push_back(std::move(rec));
    const int index = static_cast<int>(spans_.size()) - 1;
    open_.push_back(index);
    return Span(this, index);
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Per-layer self time in seconds over the spans whose run id passes
  /// `keep`: each span's duration minus the time its direct children cover.
  template <typename Pred>
  std::map<std::string, double> self_times(Pred keep) const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const SpanRecord& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (!keep(spans_[i].run)) continue;
      const std::int64_t d = spans_[i].end_ns - spans_[i].start_ns;
      self[spans_[i].layer] += static_cast<double>(d - child_ns[i]) * 1e-9;
    }
    return self;
  }

  /// Chrome trace-event JSON ("X" complete events; load in Perfetto or
  /// chrome://tracing). Span id, parent id, run id and counters go to args.
  void write_chrome_json(std::ostream& os) const {
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      os << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
         << "\",\"cat\":\"" << s.layer << "\",\"ph\":\"X\",\"pid\":1,"
         << "\"tid\":1,\"ts\":" << static_cast<double>(s.start_ns) * 1e-3
         << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
         << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
         << ",\"run\":" << s.run;
      for (const auto& [name, value] : s.counters) {
        os << ",\"" << name << "\":" << value;
      }
      os << "}}";
    }
    os << "\n]}\n";
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }
  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    // Spans close in LIFO order (RAII scopes).
    open_.pop_back();
  }

  std::chrono::steady_clock::time_point origin_;
  bool enabled_ = false;
  int run_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
