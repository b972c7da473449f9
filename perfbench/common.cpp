#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "util/stopwatch.hpp"

namespace perfbench {

namespace {

// Metric names and units are fixed identifiers chosen in this directory,
// so no JSON escaping is needed beyond what these characters allow.
std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back(Entry{name, value, unit});
}

void Report::fail(const std::string& why) { failures_.push_back(why); }

void Report::print_table() const {
  std::printf("reported metrics:\n");
  for (const auto& m : metrics_) {
    std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const auto& f : failures_) {
    std::printf("  CHECK FAILED: %s\n", f.c_str());
  }
}

void Report::print_json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& m = metrics_[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int SpanRecorder::open(const std::string& name, int parent) {
  if (!enabled_) return -1;
  const std::int64_t now = clio::util::Stopwatch::now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, now, 0, parent});
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::close(int id) {
  if (!enabled_ || id < 0) return;
  const std::int64_t now = clio::util::Stopwatch::now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = now;
}

std::map<std::string, double> SpanRecorder::self_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const auto& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Children may overlap (replay families run on parallel threads), so
    // subtract the union of their intervals clipped to the parent.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;
    for (const auto& [lo, hi] : kids) {
      const std::int64_t a = std::max(lo, cursor);
      const std::int64_t b = std::min(hi, s.end_ns);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e9;
  }
  return self;
}

void SpanRecorder::write_json(const std::filesystem::path& path) const {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"run_id\": " << run_id_ << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double delta_quantile_ns(const clio::util::LatencyHistogram::Snapshot& before,
                         const clio::util::LatencyHistogram::Snapshot& after,
                         double q) {
  struct Bucket {
    std::uint64_t hi = 0;
    std::int64_t count = 0;
  };
  std::map<std::uint64_t, Bucket> delta;
  for (const auto& b : after.buckets) {
    delta[b.lo_ns] = Bucket{b.hi_ns, static_cast<std::int64_t>(b.count)};
  }
  for (const auto& b : before.buckets) {
    delta[b.lo_ns].count -= static_cast<std::int64_t>(b.count);
  }
  std::int64_t total = 0;
  for (const auto& [lo, b] : delta) total += std::max<std::int64_t>(0, b.count);
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  double seen = 0.0;
  for (const auto& [lo, b] : delta) {
    if (b.count <= 0) continue;
    const double c = static_cast<double>(b.count);
    if (seen + c >= rank) {
      const double frac = c > 0 ? (rank - seen) / c : 0.0;
      return static_cast<double>(lo) +
             frac * static_cast<double>(b.hi - lo);
    }
    seen += c;
  }
  return static_cast<double>(delta.rbegin()->second.hi);
}

Usage process_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
  u.max_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

std::vector<clio::io::OpSnapshot> op_snapshots(const clio::io::IoStats& stats) {
  std::vector<clio::io::OpSnapshot> ops;
  for (std::size_t op = 0; op < clio::io::kIoOpCount; ++op) {
    ops.push_back(stats.op_snapshot(static_cast<clio::io::IoOp>(op)));
  }
  return ops;
}

void add_io_layers(Layers& layers, const clio::io::PoolStats& a,
                   const clio::io::PoolStats& b,
                   const std::vector<clio::io::OpSnapshot>& ops_a,
                   const std::vector<clio::io::OpSnapshot>& ops_b) {
  auto d = [](std::uint64_t before, std::uint64_t after) {
    return static_cast<double>(after - before);
  };
  const double hits = d(a.hits, b.hits);
  const double misses = d(a.misses, b.misses);
  layers["io.pool.hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;
  layers["io.pool.misses"] = misses;
  layers["io.pool.evictions"] = d(a.evictions, b.evictions);
  layers["io.pool.writebacks"] = d(a.writebacks, b.writebacks);
  layers["io.pool.prefetches"] = d(a.prefetches, b.prefetches);
  const double readv_calls = d(a.gather_read_calls, b.gather_read_calls);
  const double writev_calls = d(a.flush_write_calls, b.flush_write_calls);
  layers["io.readv.pages_per_call"] =
      readv_calls > 0 ? d(a.gather_read_pages, b.gather_read_pages) /
                            readv_calls
                      : 0.0;
  layers["io.writev.pages_per_call"] =
      writev_calls > 0 ? d(a.flush_write_pages, b.flush_write_pages) /
                             writev_calls
                       : 0.0;
  for (std::size_t op = 0; op < clio::io::kIoOpCount; ++op) {
    const auto& x = ops_a[op];
    const auto& y = ops_b[op];
    const double n = static_cast<double>(y.count - x.count);
    const double total_ms = y.mean_ms * static_cast<double>(y.count) -
                            x.mean_ms * static_cast<double>(x.count);
    const std::string name(
        clio::io::io_op_name(static_cast<clio::io::IoOp>(op)));
    layers["io.op." + name + "_us"] = n > 0 ? total_ms * 1e3 / n : 0.0;
    if (op < clio::io::kIoTraceOpCount) layers["io.op." + name + ".count"] = n;
  }
}

void add_cpu_layers(Layers& layers, const Usage& before, const Usage& after,
                    double wall_s) {
  const double user = after.user_s - before.user_s;
  const double sys = after.sys_s - before.sys_s;
  layers["cpu.user_s"] = user;
  layers["cpu.sys_s"] = sys;
  layers["cpu.util"] =
      wall_s > 0 ? (user + sys) / (wall_s * cpu_count()) : 0.0;
}

void add_span_layers(Layers& layers, const SpanRecorder& spans) {
  for (const auto& [name, self] : spans.self_seconds()) {
    layers["span." + name + ".self_s"] = self;
  }
}

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in the order BENCHMARK.json lists them.  The
// traced.* entries are the traced run's own end-to-end numbers.
constexpr LayerMetric kLayerMetrics[] = {
    {"net.parse_us.p50", "us"},
    {"net.queue_wait_us.p50", "us"},
    {"net.queue_wait_us.p99", "us"},
    {"net.handler_us.p50", "us"},
    {"net.send_us.p50", "us"},
    {"net.send_us.p99", "us"},
    {"net.tier.gather", "ratio"},
    {"net.tier.sendfile", "ratio"},
    {"net.tier.cache", "ratio"},
    {"net.tier.buffered", "ratio"},
    {"net.accepts", "count"},
    {"net.reconnects", "count"},
    {"net.rejected_503", "count"},
    {"net.timeouts", "count"},
    {"net.request_errors", "count"},
    {"io.storage_op_us.p50", "us"},
    {"io.storage_op_us.p99", "us"},
    {"io.pool.hit_ratio", "ratio"},
    {"io.pool.misses", "count"},
    {"io.pool.evictions", "count"},
    {"io.pool.writebacks", "count"},
    {"io.pool.prefetches", "count"},
    {"io.readv.pages_per_call", "pages/call"},
    {"io.writev.pages_per_call", "pages/call"},
    {"io.op.readv_us", "us"},
    {"io.op.writev_us", "us"},
    {"io.op.open_us", "us"},
    {"io.op.open.count", "count"},
    {"io.op.close_us", "us"},
    {"io.op.close.count", "count"},
    {"io.op.read_us", "us"},
    {"io.op.read.count", "count"},
    {"io.op.write_us", "us"},
    {"io.op.write.count", "count"},
    {"io.op.seek_us", "us"},
    {"io.op.seek.count", "count"},
    {"vm.insns_per_request", "insns/req"},
    {"vm.self_us", "us"},
    {"vm.jit.compilations", "count"},
    {"vm.jit.compile_ms", "ms"},
    {"vm.jit.interpreted_calls", "count"},
    {"trace.op_us.open.p50", "us"},
    {"trace.op_us.open.p99", "us"},
    {"trace.op_us.read.p50", "us"},
    {"trace.op_us.read.p99", "us"},
    {"trace.op_us.write.p50", "us"},
    {"trace.op_us.write.p99", "us"},
    {"trace.op_us.seek.p50", "us"},
    {"trace.op_us.seek.p99", "us"},
    {"trace.op_us.close.p50", "us"},
    {"trace.op_us.close.p99", "us"},
    {"trace.family_s.scan", "s"},
    {"trace.family_s.panel", "s"},
    {"trace.family_s.tile", "s"},
    {"trace.family_s.irregular", "s"},
    {"trace.family_s.write", "s"},
    {"cpu.user_s", "s"},
    {"cpu.sys_s", "s"},
    {"cpu.util", "ratio"},
    {"span.closed_loop.self_s", "s"},
    {"span.closed_chunk.self_s", "s"},
    {"span.open_loop.self_s", "s"},
    {"span.open_window.self_s", "s"},
    {"span.cold_cycle.self_s", "s"},
    {"span.make_cold.self_s", "s"},
    {"span.first_get.self_s", "s"},
    {"span.replay_pass.self_s", "s"},
    {"span.drop_caches.self_s", "s"},
    {"span.replay_family.self_s", "s"},
    {"span.cold_read.self_s", "s"},
    {"span.first_read.self_s", "s"},
    {"traced.setup_s", "s"},
    {"traced.peak_rss_mb", "MiB"},
    {"traced.rps", "req/s"},
    {"traced.mb_s", "MB/s"},
    {"traced.p50_ms", "ms"},
    {"traced.p90_ms", "ms"},
    {"traced.p99_ms", "ms"},
    {"traced.first_request_ms", "ms"},
};

}  // namespace

void emit_layers(Report& report, const Layers& layers) {
  for (const auto& m : kLayerMetrics) {
    const auto it = layers.find(m.name);
    report.add(m.name, it != layers.end() ? it->second : 0.0, m.unit);
  }
  for (const auto& [name, value] : layers) {
    const bool known = std::any_of(
        std::begin(kLayerMetrics), std::end(kLayerMetrics),
        [&name = name](const LayerMetric& m) { return name == m.name; });
    if (!known) report.fail("per-layer metric " + name + " is not declared");
  }
}

void EndToEnd::print(const Report& report, bool replay) const {
  std::printf("end to end:\n");
  auto line = [](const char* name, double value, const char* unit) {
    std::printf("  %-18s %16.6f %s\n", name, value, unit);
  };
  line("setup_s", setup_s, "s");
  line("peak_rss_mb", peak_rss_mb, "MiB");
  line("error_ratio", report.error_ratio(), "ratio");
  line("rps", rps, "req/s");
  line(replay ? "replay_mb_s" : "mb_s", mb_s, "MB/s");
  line("p50_ms", p50_ms, "ms");
  line("p90_ms", p90_ms, "ms");
  line("p99_ms", p99_ms, "ms");
  line("first_request_ms", first_request_ms, "ms");
  if (replay) {
    line("op_p50_us", p50_ms * 1e3, "us");
    line("op_p99_us", p99_ms * 1e3, "us");
  }
  std::printf("  (failed %llu of %llu attempted)\n",
              static_cast<unsigned long long>(report.failed()),
              static_cast<unsigned long long>(report.attempted()));
}

void EndToEnd::add_gated(Report& report) const {
  report.add("setup_s", setup_s, "s");
  report.add("peak_rss_mb", peak_rss_mb, "MiB");
  report.add("rps", rps, "req/s");
  report.add("mb_s", mb_s, "MB/s");
  report.add("p50_ms", p50_ms, "ms");
}

void EndToEnd::add_traced(Layers& layers) const {
  layers["traced.setup_s"] = setup_s;
  layers["traced.peak_rss_mb"] = peak_rss_mb;
  layers["traced.rps"] = rps;
  layers["traced.mb_s"] = mb_s;
  layers["traced.p50_ms"] = p50_ms;
  layers["traced.p90_ms"] = p90_ms;
  layers["traced.p99_ms"] = p99_ms;
  layers["traced.first_request_ms"] = first_request_ms;
}

unsigned cpu_count() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1U;
}

}  // namespace perfbench
