// Shared pieces of the repository benchmark: command-line arguments, the
// result record printed as the last stdout line, the span recorder used by
// traced runs, and small statistics helpers over the library's histograms.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "io/buffer_pool.hpp"
#include "io/io_stats.hpp"
#include "util/histogram.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and short phases: the benchmark's own smoke test.
  bool smoke = false;
  /// Scratch directory for generated inputs; removed when the run ends.
  std::filesystem::path work_dir;
};

/// What one run reports: correctness, operation counts and named metrics.
/// Metrics are kept in insertion order, which is the order they print in.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// Records a failed output check; the run is then not correct.
  void fail(const std::string& why);
  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  [[nodiscard]] bool correct() const { return failures_.empty(); }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] double error_ratio() const {
    return attempted_ > 0 ? static_cast<double>(failed_) /
                                static_cast<double>(attempted_)
                          : 0.0;
  }

  /// Human-readable "name value unit" lines, then any failed checks.
  void print_table() const;
  /// The single-line JSON result: {"correct", "attempted", "failed",
  /// "metrics": {name: {"value", "unit"}}}.
  void print_json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// In-memory span log for the traced run.  A span has a name, start and
/// end (steady-clock ns), the index of its parent (-1 for a root) and the
/// run id.  Disabled recorders ignore every call, so the untraced run pays
/// one branch per span site.
class SpanRecorder {
 public:
  SpanRecorder(bool enabled, std::uint64_t run_id)
      : enabled_(enabled), run_id_(run_id) {}

  /// Opens a span and returns its index (-1 when disabled).  Thread-safe.
  int open(const std::string& name, int parent = -1);
  void close(int id);

  /// RAII span.
  class Scope {
   public:
    Scope(SpanRecorder& rec, const std::string& name, int parent = -1)
        : rec_(rec), id_(rec.open(name, parent)) {}
    ~Scope() { rec_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] int id() const { return id_; }

   private:
    SpanRecorder& rec_;
    int id_;
  };

  /// Sum of self time per span name, in seconds: each span's duration
  /// minus the part of it that its children's intervals cover.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Writes every span as a JSON array (no-op when disabled).
  void write_json(const std::filesystem::path& path) const;

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };
  bool enabled_;
  std::uint64_t run_id_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Median of a sample (0 for an empty one).
[[nodiscard]] double median(std::vector<double> values);

/// Quantile of the samples recorded between two snapshots of one
/// cumulative histogram, interpolated inside the crossing bucket the way
/// util::LatencyHistogram does.  0 when nothing was recorded in between.
[[nodiscard]] double delta_quantile_ns(
    const clio::util::LatencyHistogram::Snapshot& before,
    const clio::util::LatencyHistogram::Snapshot& after, double q);

/// getrusage(RUSAGE_SELF) readings.
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double max_rss_mib = 0.0;
};
[[nodiscard]] Usage process_usage();

/// Per-layer metric values of one traced run, by name.  Every workload
/// reports the same names (see kLayerMetrics in common.cpp and LAYERS.md);
/// a layer that did no work on a workload reports 0.
using Layers = std::map<std::string, double>;

/// io.pool.*, io.readv/writev.pages_per_call and io.op.* over a window.
void add_io_layers(Layers& layers, const clio::io::PoolStats& before,
                   const clio::io::PoolStats& after,
                   const std::vector<clio::io::OpSnapshot>& ops_before,
                   const std::vector<clio::io::OpSnapshot>& ops_after);
/// Reads every op class of `stats` (the io.op.* inputs).
[[nodiscard]] std::vector<clio::io::OpSnapshot> op_snapshots(
    const clio::io::IoStats& stats);
/// cpu.user_s, cpu.sys_s and cpu.util over a window of `wall_s` seconds.
void add_cpu_layers(Layers& layers, const Usage& before, const Usage& after,
                    double wall_s);
/// span.<name>.self_s for every span name the recorder saw.
void add_span_layers(Layers& layers, const SpanRecorder& spans);
/// Adds every per-layer metric to the report, in table order, with its
/// unit; fails the run if `layers` holds a name the table lacks.
void emit_layers(Report& report, const Layers& layers);

/// The end-to-end numbers of one run.  setup_s, peak_rss_mb, rps, mb_s
/// and p50_ms are the gated end-to-end metrics of BENCHMARK.json.  p90_ms,
/// p99_ms and first_request_ms are printed, and reported from the traced
/// run, because on a shared 4-CPU VM they move between runs by more than
/// any usable bound on at least one workload (see LAYERS.md).
struct EndToEnd {
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  double rps = 0.0;
  double mb_s = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double first_request_ms = 0.0;

  /// Prints every end-to-end number under its name and unit, including
  /// error_ratio and, for the replay workload, replay_mb_s, op_p50_us and
  /// op_p99_us.
  void print(const Report& report, bool replay) const;
  /// The gated metrics, for the untraced run's result.
  void add_gated(Report& report) const;
  /// traced.<name> for every number, next to the per-layer metrics.
  void add_traced(Layers& layers) const;
};

/// Number of online CPUs.
[[nodiscard]] unsigned cpu_count();

/// Runs one workload; each fills `report` and returns nothing.
void run_serve(const Args& args, Report& report, SpanRecorder& spans);
void run_replay(const Args& args, Report& report, SpanRecorder& spans);

}  // namespace perfbench
