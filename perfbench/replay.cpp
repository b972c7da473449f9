// replay_ooc: out-of-core trace replay with no network and no VM.  Four
// threads each replay one seeded trace/synthetic access-pattern family
// against a 64 MiB sample file through a default ManagedFileSystem (16 MiB
// pool); the panel thread also replays a sequential write to a second
// file.  The managed cache is dropped before every pass, as in the
// paper's cold replay.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "io/file_store.hpp"
#include "io/managed_file.hpp"
#include "trace/replayer.hpp"
#include "trace/synthetic.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace perfbench {

namespace {

using clio::trace::TraceFile;
using clio::util::Stopwatch;

constexpr char kSampleFile[] = "sample.bin";
constexpr char kWrittenFile[] = "written.bin";
constexpr std::size_t kThreads = 4;
constexpr std::size_t kSetupRepeats = 5;
constexpr std::uint64_t kKiB = 1024;
constexpr std::uint64_t kMiB = 1024 * kKiB;

struct Family {
  const char* name;
  std::size_t thread;  ///< replaying thread
  TraceFile trace;
};

/// The five seeded families.  Sizes scale with the sample file, so the
/// smoke run keeps the same shapes at a fraction of the bytes.
std::vector<Family> make_families(std::uint64_t seed, std::uint64_t sample) {
  using namespace clio::trace;
  SyntheticOptions on_sample;
  on_sample.sample_file = kSampleFile;
  SyntheticOptions on_written;
  on_written.sample_file = kWrittenFile;
  clio::util::Rng rng(clio::util::SplitMix64(seed ^ 0x7ace).next());

  std::vector<Family> f;
  // Dmine/Pgrep: one sequential scan in 64 KiB reads.
  f.push_back({"scan", 0, sequential_read(sample, 64 * kKiB, on_sample)});
  // LU: a column panel, 64 KiB blocks every 256 KiB from a seeded start.
  const std::uint64_t panel_start = rng.uniform_u64(64) * 4 * kKiB;
  f.push_back({"panel", 1,
               strided_read(panel_start, 64 * kKiB, 256 * kKiB,
                            static_cast<std::size_t>(sample / (256 * kKiB)) - 1,
                            on_sample)});
  // Titan: random 4 KiB tiles.
  f.push_back({"tile", 2,
               random_read(sample, 4 * kKiB,
                           static_cast<std::size_t>(sample / (16 * kKiB)),
                           rng.next_u64(), on_sample)});
  // Cholesky: irregular seek+read pairs of 1-16 KiB at seeded offsets.
  std::vector<Request> requests(static_cast<std::size_t>(sample / (32 * kKiB)));
  for (auto& r : requests) {
    r.length = 1 * kKiB + rng.uniform_u64(15 * kKiB);
    r.offset = rng.uniform_u64(sample - r.length);
  }
  f.push_back({"irregular", 3, seek_read_sequence(requests, on_sample)});
  // A sequential write to its own file, so the reads stay verifiable.
  f.push_back(
      {"write", 1, sequential_write(sample / 8, 64 * kKiB, on_written)});
  return f;
}

std::uint64_t record_count(const TraceFile& t) {
  std::uint64_t n = 0;
  for (const auto& r : t.records) n += r.count;
  return n;
}

struct Instance {
  std::filesystem::path dir;
  std::unique_ptr<clio::io::ManagedFileSystem> fs;
  std::vector<Family> families;

  ~Instance() {
    fs.reset();
    std::error_code ec;
    if (!dir.empty()) std::filesystem::remove_all(dir, ec);
  }
};

struct PassResult {
  double wall_s = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t records = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<double> family_s;  ///< per family, in make_families order
  std::vector<clio::trace::ReplayResult> results;
};

/// One cold pass: drop the managed cache, then replay every family, one
/// thread per family group, all against the same file system.
PassResult run_pass(Instance& inst, std::uint64_t seed, SpanRecorder& spans,
                    bool verify) {
  PassResult out;
  SpanRecorder::Scope pass(spans, "replay_pass");
  {
    SpanRecorder::Scope s(spans, "drop_caches", pass.id());
    inst.fs->drop_caches();
  }
  const std::size_t n = inst.families.size();
  out.family_s.assign(n, 0.0);
  out.results.resize(n);
  std::vector<std::string> errors(n);
  std::vector<char> threw(n, 0);
  clio::trace::ReplayOptions options;
  options.sample_seed = seed;
  options.verify_content = verify;
  Stopwatch wall;
  {
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t i = 0; i < n; ++i) {
          if (inst.families[i].thread != t) continue;
          SpanRecorder::Scope s(spans, "replay_family", pass.id());
          Stopwatch w;
          try {
            clio::trace::TraceReplayer replayer(*inst.fs, options);
            out.results[i] = replayer.replay(inst.families[i].trace);
          } catch (const std::exception& e) {
            threw[i] = 1;
            errors[i] = std::string(inst.families[i].name) + ": " + e.what();
          }
          out.family_s[i] = w.elapsed_sec();
        }
      });
    }
  }
  out.wall_s = wall.elapsed_sec();
  for (std::size_t i = 0; i < n; ++i) {
    out.attempted += record_count(inst.families[i].trace);
    if (threw[i] != 0) {
      // The replayer stops at the operation that threw.
      ++out.failed;
      out.errors.push_back(errors[i]);
      continue;
    }
    const auto& r = out.results[i];
    out.bytes += r.bytes_read + r.bytes_written;
    out.records += r.rows.size();
  }
  return out;
}

std::unique_ptr<Instance> set_up(const Args& args, std::size_t index,
                                 std::uint64_t sample) {
  auto inst = std::make_unique<Instance>();
  inst->dir = args.work_dir / ("replay-" + std::to_string(index));
  std::filesystem::create_directories(inst->dir);
  clio::util::create_sample_file(inst->dir / kSampleFile, sample, args.seed);
  inst->fs = std::make_unique<clio::io::ManagedFileSystem>(
      std::make_unique<clio::io::RealFileStore>(inst->dir),
      clio::io::ManagedFsOptions{});
  inst->families = make_families(args.seed, sample);
  // Warm-up pass: creates the written file and settles the process.
  SpanRecorder untraced(false, 0);
  const PassResult warm = run_pass(*inst, args.seed, untraced, false);
  if (warm.failed > 0) throw std::runtime_error("warm-up pass failed");
  return inst;
}

/// Byte-exact checks: one replay of every family with content
/// verification on (every read compared with the sample pattern), then the
/// written file read back through the managed file system.
void verify(Instance& inst, std::uint64_t seed, Report& report) {
  SpanRecorder untraced(false, 0);
  const PassResult checked = run_pass(inst, seed, untraced, true);
  for (const auto& e : checked.errors) report.fail("verified replay: " + e);

  const Family& write = inst.families.back();
  std::uint64_t expected_size = 0;
  for (const auto& r : write.trace.records) {
    if (r.op == clio::trace::TraceOp::kWrite) {
      expected_size = std::max(expected_size, r.offset + r.length);
    }
  }
  auto file = inst.fs->open(kWrittenFile, clio::io::OpenMode::kRead);
  if (file.size() != expected_size) {
    report.fail("written file has " + std::to_string(file.size()) +
                " bytes, expected " + std::to_string(expected_size));
    return;
  }
  std::vector<std::byte> got(kMiB);
  std::vector<std::byte> want(kMiB);
  for (std::uint64_t off = 0; off < expected_size; off += kMiB) {
    const auto len = static_cast<std::size_t>(
        std::min<std::uint64_t>(kMiB, expected_size - off));
    file.seek(off);
    file.read_exact(std::span(got).first(len));
    clio::util::expected_sample_bytes(off, std::span(want).first(len), seed);
    if (std::memcmp(got.data(), want.data(), len) != 0) {
      report.fail("written file differs at offset " + std::to_string(off));
      break;
    }
  }
  file.close();
}

}  // namespace

void run_replay(const Args& args, Report& report, SpanRecorder& spans) {
  const std::uint64_t sample = args.smoke ? 4 * kMiB : 64 * kMiB;
  std::printf(
      "config: {\"workload\": \"replay_ooc\", \"sample_bytes\": %llu, "
      "\"threads\": %zu, \"pool_bytes\": %llu}\n",
      static_cast<unsigned long long>(sample), kThreads,
      static_cast<unsigned long long>(clio::io::ManagedFsOptions{}.pool_pages *
                                      clio::io::ManagedFsOptions{}.page_size));
  EndToEnd e2e;
  std::vector<double> setup_times;
  std::unique_ptr<Instance> inst;
  const std::size_t repeats = args.smoke ? 1 : kSetupRepeats;
  for (std::size_t k = 0; k < repeats; ++k) {
    inst.reset();
    Stopwatch w;
    inst = set_up(args, k, sample);
    setup_times.push_back(w.elapsed_sec());
  }
  e2e.setup_s = median(setup_times);

  const auto pool_before = inst->fs->pool().stats();
  const auto ops_before = op_snapshots(inst->fs->stats());
  const Usage usage_before = process_usage();
  Stopwatch window;

  // Timed cold passes until most of the run's seconds are spent.
  std::vector<double> pass_mbs;
  std::vector<double> pass_rps;
  // Per-record latency (ns) in the library's log2 histograms: constant
  // memory however many passes run, so peak_rss_mb is the program's.
  clio::util::LatencyHistogram all_ns;
  const std::size_t n = inst->families.size();
  std::vector<std::vector<double>> family_s(n);
  std::vector<clio::util::LatencyHistogram> op_ns(clio::io::kIoTraceOpCount);
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const double budget = args.seconds * 0.85;
  Stopwatch timed;
  while (pass_mbs.size() < 3 || timed.elapsed_sec() < budget) {
    const PassResult p = run_pass(*inst, args.seed, spans, false);
    attempted += p.attempted;
    failed += p.failed;
    for (const auto& e : p.errors) std::printf("replay error: %s\n", e.c_str());
    pass_mbs.push_back(static_cast<double>(p.bytes) / 1e6 / p.wall_s);
    pass_rps.push_back(static_cast<double>(p.records) / p.wall_s);
    for (std::size_t i = 0; i < n; ++i) {
      family_s[i].push_back(p.family_s[i]);
      for (const auto& row : p.results[i].rows) {
        const auto ns = static_cast<std::uint64_t>(row.ms * 1e6);
        all_ns.push(ns);
        op_ns[static_cast<std::size_t>(row.op)].push(ns);
      }
    }
  }
  e2e.mb_s = median(pass_mbs);
  e2e.rps = median(pass_rps);
  e2e.p50_ms = static_cast<double>(all_ns.quantile_ns(0.5)) / 1e6;
  e2e.p90_ms = static_cast<double>(all_ns.quantile_ns(0.9)) / 1e6;
  e2e.p99_ms = static_cast<double>(all_ns.quantile_ns(0.99)) / 1e6;
  std::printf("replay: %zu cold passes, %zu records, %.2f s\n",
              pass_mbs.size(), static_cast<std::size_t>(all_ns.count()),
              timed.elapsed_sec());

  // Cold first request: drop the managed cache, then one 1 MiB read at a
  // seeded offset; the read record's latency.
  {
    std::vector<double> firsts;
    const std::size_t cycles = args.smoke ? 3 : 40;
    clio::trace::SyntheticOptions on_sample;
    on_sample.sample_file = kSampleFile;
    clio::trace::ReplayOptions options;
    options.sample_seed = args.seed;
    for (std::size_t k = 0; k < cycles; ++k) {
      const TraceFile t = clio::trace::random_read(
          sample, kMiB, 1, args.seed * 131 + k, on_sample);
      SpanRecorder::Scope cycle(spans, "cold_read");
      {
        SpanRecorder::Scope s(spans, "drop_caches", cycle.id());
        inst->fs->drop_caches();
      }
      SpanRecorder::Scope s(spans, "first_read", cycle.id());
      attempted += record_count(t);
      try {
        const auto r = clio::trace::TraceReplayer(*inst->fs, options).replay(t);
        for (const auto& row : r.rows) {
          if (row.op == clio::trace::TraceOp::kRead) firsts.push_back(row.ms);
        }
      } catch (const std::exception& e) {
        ++failed;
        std::printf("replay error: first read: %s\n", e.what());
      }
    }
    e2e.first_request_ms = median(firsts);
  }

  const double window_s = window.elapsed_sec();
  const auto pool_after = inst->fs->pool().stats();
  const auto ops_after = op_snapshots(inst->fs->stats());
  const Usage usage_after = process_usage();
  report.count(attempted, failed);
  e2e.peak_rss_mb = usage_after.max_rss_mib;

  verify(*inst, args.seed, report);

  e2e.print(report, true);
  if (!args.trace) {
    e2e.add_gated(report);
    return;
  }
  Layers layers;
  add_io_layers(layers, pool_before, pool_after, ops_before, ops_after);
  for (std::size_t op = 0; op < clio::io::kIoTraceOpCount; ++op) {
    const std::string name(
        clio::io::io_op_name(static_cast<clio::io::IoOp>(op)));
    layers["trace.op_us." + name + ".p50"] =
        static_cast<double>(op_ns[op].quantile_ns(0.5)) / 1e3;
    layers["trace.op_us." + name + ".p99"] =
        static_cast<double>(op_ns[op].quantile_ns(0.99)) / 1e3;
  }
  for (std::size_t i = 0; i < n; ++i) {
    layers[std::string("trace.family_s.") + inst->families[i].name] =
        median(family_s[i]);
  }
  add_cpu_layers(layers, usage_before, usage_after, window_s);
  add_span_layers(layers, spans);
  e2e.add_traced(layers);
  emit_layers(report, layers);
}

}  // namespace perfbench
