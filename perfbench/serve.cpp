// The three serving workloads: an in-process MiniWebServer over a
// ManagedFileSystem/RealFileStore docroot, loaded by net::LoadGenerator
// from the same process.  Every ServerOptions and ManagedFsOptions field
// stays at its default except vm_dispatch.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "io/file_store.hpp"
#include "io/managed_file.hpp"
#include "net/client.hpp"
#include "net/load_gen.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace perfbench {

namespace {

using clio::util::Stopwatch;

struct ServeSpec {
  const char* name;
  bool vm_dispatch;
  /// Docroot: `objects` files whose sizes spread log-uniformly over
  /// [min_bytes, max_bytes]; 0 objects means the paper's three image files.
  std::size_t objects;
  std::uint64_t min_bytes;
  std::uint64_t max_bytes;
  double zipf;
  double post_fraction;
  std::size_t post_bytes;
  /// Fixed open-loop rate, chosen from the closed-loop capacity measured
  /// on a 4-CPU host (LAYERS.md).  A constant, so a parent and a change see
  /// the same offered load.
  double offered_rps;
  /// The load is fixed per workload, so every commit measures the same
  /// requests: closed_chunks chunks of closed_chunk requests (tens of
  /// milliseconds of work each), spread evenly over the closed-loop phase
  /// so that their median samples the host over the whole phase, then
  /// open_windows back-to-back windows of open_window requests (half a
  /// second each).  serve_managed's numbers are small because each
  /// managed request leaks memory, and one run must stay well inside the
  /// host's RAM.
  std::size_t closed_chunk;
  std::size_t closed_chunks;
  std::size_t open_window;
  std::size_t open_windows;
  std::size_t cold_cycles;
};

// Why these mixes: LAYERS.md.
constexpr ServeSpec kSpecs[] = {
    {"serve_small", false, 64, 256, 16 * 1024, 1.0, 0.0, 0, 24000.0, 2000, 160,
     12000, 16, 200},
    {"serve_large_rw", false, 240, 32 * 1024, 1024 * 1024, 0.8, 0.2,
     64 * 1024, 2300.0, 200, 160, 1152, 16, 100},
    {"serve_managed", true, 0, 0, 0, 1.0, 0.2, 14063, 300.0, 68, 24, 136, 8,
     40},
};

// In popularity order: the Table 6 image is the most requested.
constexpr std::uint64_t kImageSizes[] = {14063, 7501, 50607};
constexpr std::size_t kConnections = 4;
constexpr int kRecvTimeoutMs = 5000;
constexpr std::size_t kSetupRepeats = 5;

const ServeSpec& find_spec(const std::string& name) {
  for (const auto& s : kSpecs) {
    if (name == s.name) return s;
  }
  throw std::invalid_argument("unknown serve workload " + name);
}

struct Docroot {
  std::vector<std::string> files;  ///< popularity order: rank 0 first
  std::vector<std::uint64_t> sizes;
  std::vector<std::uint64_t> seeds;  ///< content seed per file
  std::size_t first_request_index = 0;
};

/// Seeded docroot.  Sizes are stratified: rank i draws from its own
/// stratum of the log-size range (strata interleaved over ranks), so the
/// seed moves every size and all content while the size mix the Zipf head
/// sees stays comparable across seeds.
Docroot make_docroot(const ServeSpec& spec, std::uint64_t seed,
                     std::size_t objects) {
  Docroot d;
  clio::util::Rng rng(clio::util::SplitMix64(seed).next());
  if (spec.objects == 0) {
    for (std::size_t i = 0; i < std::size(kImageSizes); ++i) {
      d.files.push_back("img_" + std::to_string(kImageSizes[i]) + ".bin");
      d.sizes.push_back(kImageSizes[i]);
      d.seeds.push_back(rng.next_u64());
      if (kImageSizes[i] == 14063) d.first_request_index = i;
    }
    return d;
  }
  const double span = std::log(static_cast<double>(spec.max_bytes) /
                               static_cast<double>(spec.min_bytes));
  for (std::size_t i = 0; i < objects; ++i) {
    const std::size_t stratum = (i * 37 + objects / 2) % objects;
    const double u =
        (static_cast<double>(stratum) + rng.uniform_double()) /
        static_cast<double>(objects);
    char name[32];
    std::snprintf(name, sizeof(name), "obj_%03zu.bin", i);
    d.files.push_back(name);
    d.sizes.push_back(static_cast<std::uint64_t>(
        static_cast<double>(spec.min_bytes) * std::exp(u * span)));
    d.seeds.push_back(rng.next_u64());
  }
  return d;
}

/// One set-up instance: docroot on disk, file system, running server.
struct Instance {
  std::filesystem::path dir;
  Docroot docroot;
  std::unique_ptr<clio::io::ManagedFileSystem> fs;
  std::unique_ptr<clio::net::MiniWebServer> server;
  // Over the server's life (start() zeroes its counters), for the
  // served-byte oracle and the POST read-back.
  std::uint64_t bytes_received = 0;  ///< GET body bytes clients received
  std::uint64_t posts_ok = 0;        ///< acknowledged POSTs

  ~Instance() {
    if (server) server->stop();
    server.reset();
    fs.reset();
    std::error_code ec;
    if (!dir.empty()) std::filesystem::remove_all(dir, ec);
  }
};

clio::net::LoadGenOptions load_options(const ServeSpec& spec,
                                       const Docroot& d, std::uint64_t seed) {
  clio::net::LoadGenOptions o;
  o.connections = kConnections;
  o.keep_alive = true;
  o.post_fraction = spec.post_fraction;
  o.post_bytes = spec.post_bytes > 0 ? spec.post_bytes : 1024;
  o.zipf_exponent = spec.zipf;
  o.seed = seed;
  o.files = d.files;
  o.recv_timeout_ms = kRecvTimeoutMs;
  return o;
}

/// Everything the run attempted through LoadGenerator, for the failure
/// count and the served-byte oracle.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t posts_ok = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t rejected_503 = 0;
  std::uint64_t timeouts = 0;

  void add(const clio::net::LoadReport& r, std::size_t post_bytes) {
    attempted += r.requests_sent;
    // LoadGenerator does not count a 503 as an error; the benchmark does.
    // Censored timeouts are already inside r.errors.
    failed += r.errors + r.rejected_503;
    bytes_received += r.bytes_received;
    if (post_bytes > 0) posts_ok += r.bytes_posted / post_bytes;
    reconnects += r.reconnects;
    rejected_503 += r.rejected_503;
    timeouts += r.failures.timeouts;
  }
};

std::unique_ptr<Instance> set_up(const ServeSpec& spec, const Args& args,
                                 std::size_t index, std::size_t objects) {
  auto inst = std::make_unique<Instance>();
  inst->dir = args.work_dir / ("docroot-" + std::to_string(index));
  std::filesystem::create_directories(inst->dir);
  inst->docroot = make_docroot(spec, args.seed, objects);
  const Docroot& d = inst->docroot;
  for (std::size_t i = 0; i < d.files.size(); ++i) {
    clio::util::create_sample_file(inst->dir / d.files[i], d.sizes[i],
                                   d.seeds[i]);
  }
  inst->fs = std::make_unique<clio::io::ManagedFileSystem>(
      std::make_unique<clio::io::RealFileStore>(inst->dir),
      clio::io::ManagedFsOptions{});
  clio::net::ServerOptions options;
  options.vm_dispatch = spec.vm_dispatch;
  inst->server =
      std::make_unique<clio::net::MiniWebServer>(*inst->fs, options);
  inst->server->start();

  // Warm-up: every file once, then one closed-loop chunk of the mix.
  clio::net::HttpClient client(inst->server->port(), /*keep_alive=*/true);
  for (const auto& f : d.files) {
    const auto r = client.get("/" + f);
    if (r.status != 200) {
      throw std::runtime_error("warm-up GET /" + f + " answered " +
                               std::to_string(r.status));
    }
    inst->bytes_received += r.body.size();
  }
  client.disconnect();
  auto o = load_options(spec, d, args.seed ^ 0x5eedULL);
  o.requests_per_connection = spec.closed_chunk / kConnections;
  const auto r = clio::net::LoadGenerator(o).run(inst->server->port());
  if (r.errors + r.rejected_503 > 0) {
    throw std::runtime_error("warm-up load failed");
  }
  inst->bytes_received += r.bytes_received;
  if (spec.post_bytes > 0) inst->posts_ok += r.bytes_posted / spec.post_bytes;
  return inst;
}

struct Counters {
  clio::net::ServerStats server;
  clio::obs::MetricsSnapshot metrics;
  clio::io::PoolStats pool;
  std::vector<clio::io::OpSnapshot> ops;
  std::uint64_t insns = 0;
  clio::vm::JitStats jit;
  Usage usage;
  std::int64_t wall_ns = 0;
};

Counters read_counters(Instance& inst) {
  Counters c;
  c.server = inst.server->stats();
  c.metrics = inst.server->metrics().snapshot();
  c.pool = inst.fs->pool().stats();
  c.ops = op_snapshots(inst.fs->stats());
  if (const auto* engine = inst.server->engine()) {
    c.insns = engine->instructions_executed();
    c.jit = engine->jit_stats();
  }
  c.usage = process_usage();
  c.wall_ns = Stopwatch::now_ns();
  return c;
}

/// Sleeps until `w` reads `at_s` seconds.
void pace(const Stopwatch& w, double at_s) {
  std::this_thread::sleep_for(
      std::chrono::duration<double>(std::max(0.0, at_s - w.elapsed_sec())));
}

/// One of the server's cumulative request-stage timers.
clio::util::LatencyHistogram::Snapshot stage_of(
    const clio::obs::MetricsSnapshot& m, const char* name) {
  const auto* d =
      m.distribution(std::string("clio_request_stage_") + name + "_ns");
  return d != nullptr ? d->hist : clio::util::LatencyHistogram::Snapshot{};
}


/// Per-layer metrics for one serve window (see LAYERS.md).
void add_layer_metrics(Layers& m, const ServeSpec& spec, const Counters& a,
                       const Counters& b, const Tally& tally) {
  auto us = [&](const char* name, double q) {
    return delta_quantile_ns(stage_of(a.metrics, name),
                             stage_of(b.metrics, name), q) /
           1e3;
  };
  auto delta = [](std::uint64_t before, std::uint64_t after) {
    return static_cast<double>(after - before);
  };
  m["net.parse_us.p50"] = us("parse", 0.5);
  m["net.queue_wait_us.p50"] = us("queue_wait", 0.5);
  m["net.queue_wait_us.p99"] = us("queue_wait", 0.99);
  m["net.handler_us.p50"] = us("handler", 0.5);
  m["net.send_us.p50"] = us("send", 0.5);
  m["net.send_us.p99"] = us("send", 0.99);

  const double responses = delta(a.server.responses_ok, b.server.responses_ok);
  const double posts =
      spec.post_bytes > 0
          ? delta(a.server.post_body_bytes, b.server.post_body_bytes) /
                static_cast<double>(spec.post_bytes)
          : 0.0;
  const double gets = std::max(0.0, responses - posts);
  auto share = [&](std::uint64_t before, std::uint64_t after) {
    return gets > 0 ? delta(before, after) / gets : 0.0;
  };
  const double gather =
      share(a.server.gather_responses, b.server.gather_responses);
  const double sendfile =
      share(a.server.sendfile_responses, b.server.sendfile_responses);
  const double cache = share(a.server.cache_responses, b.server.cache_responses);
  m["net.tier.gather"] = gather;
  m["net.tier.sendfile"] = sendfile;
  m["net.tier.cache"] = cache;
  m["net.tier.buffered"] =
      gets > 0 ? std::max(0.0, 1.0 - gather - sendfile - cache) : 0.0;
  m["net.accepts"] = delta(a.server.accepted, b.server.accepted);
  m["net.reconnects"] = static_cast<double>(tally.reconnects);
  m["net.rejected_503"] = static_cast<double>(tally.rejected_503);
  m["net.timeouts"] = static_cast<double>(tally.timeouts);
  m["net.request_errors"] =
      delta(a.server.request_errors, b.server.request_errors);

  m["io.storage_op_us.p50"] = us("storage_op", 0.5);
  m["io.storage_op_us.p99"] = us("storage_op", 0.99);
  add_io_layers(m, a.pool, b.pool, a.ops, b.ops);

  if (!spec.vm_dispatch) return;
  // vm: instructions per request, and the handler's storage-op time not
  // spent inside the managed I/O calls themselves, per request.
  if (responses > 0) {
    m["vm.insns_per_request"] = delta(a.insns, b.insns) / responses;
    const double storage_us =
        delta(stage_of(a.metrics, "storage_op").total_ns,
              stage_of(b.metrics, "storage_op").total_ns) /
        1e3;
    double io_us = 0.0;
    for (std::size_t op = 0; op < clio::io::kIoTraceOpCount; ++op) {
      io_us += (b.ops[op].mean_ms * static_cast<double>(b.ops[op].count) -
                a.ops[op].mean_ms * static_cast<double>(a.ops[op].count)) *
               1e3;
    }
    m["vm.self_us"] = (storage_us - io_us) / responses;
  }
  m["vm.jit.compilations"] = delta(a.jit.compilations, b.jit.compilations);
  m["vm.jit.compile_ms"] = b.jit.total_compile_ms - a.jit.total_compile_ms;
  m["vm.jit.interpreted_calls"] =
      delta(a.jit.interpreted_calls, b.jit.interpreted_calls);
}

/// Byte-exact checks after the timed window; each mismatch fails the run.
void verify(const ServeSpec& spec, Instance& inst, std::uint64_t seed,
            Report& report) {
  // Served-byte oracle over the server's life.  The server counts a body
  // after its send returns, which can trail the client's read by a
  // moment: poll briefly.
  std::uint64_t served = 0;
  for (int i = 0; i < 200; ++i) {
    served = inst.server->stats().get_body_bytes_sent;
    if (served == inst.bytes_received) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (served != inst.bytes_received) {
    report.fail("served-byte oracle: server sent " + std::to_string(served) +
                " body bytes, clients received " +
                std::to_string(inst.bytes_received));
  }

  // A seeded sample of GET bodies against the generator's pattern.
  const Docroot& d = inst.docroot;
  std::vector<std::size_t> picks(d.files.size());
  for (std::size_t i = 0; i < picks.size(); ++i) picks[i] = i;
  clio::util::Rng rng(clio::util::SplitMix64(seed ^ 0xb0d1e5ULL).next());
  rng.shuffle(picks);
  picks.resize(std::min<std::size_t>(picks.size(), 16));
  clio::net::HttpClient client(inst.server->port(), /*keep_alive=*/true);
  for (const std::size_t i : picks) {
    const auto r = client.get("/" + d.files[i]);
    std::vector<std::byte> want(d.sizes[i]);
    clio::util::expected_sample_bytes(0, want, d.seeds[i]);
    if (r.status != 200 || r.body.size() != want.size() ||
        std::memcmp(r.body.data(), want.data(), want.size()) != 0) {
      report.fail("GET /" + d.files[i] + " body differs from its content");
    }
  }
  client.disconnect();

  // POSTed files, read back through the managed file system.
  if (spec.post_bytes == 0) return;
  std::vector<std::string> posted;
  for (const auto& e : std::filesystem::directory_iterator(inst.dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("post_", 0) == 0) posted.push_back(name);
  }
  if (posted.size() != inst.posts_ok) {
    report.fail("POST count: " + std::to_string(posted.size()) +
                " files for " + std::to_string(inst.posts_ok) +
                " acknowledged POSTs");
  }
  std::sort(posted.begin(), posted.end());  // directory order is unspecified
  rng.shuffle(posted);
  posted.resize(std::min<std::size_t>(posted.size(), 32));
  std::vector<std::byte> buf(spec.post_bytes);
  for (const auto& name : posted) {
    auto file = inst.fs->open(name, clio::io::OpenMode::kRead);
    bool ok = file.size() == spec.post_bytes;
    if (ok) {
      file.read_exact(buf);
      const std::byte first = buf[0];
      ok = first >= std::byte{'a'} && first <= std::byte{'z'} &&
           std::all_of(buf.begin(), buf.end(),
                       [first](std::byte b) { return b == first; });
    }
    file.close();
    if (!ok) report.fail("POSTed file " + name + " reads back wrong");
  }
}

}  // namespace

void run_serve(const Args& args, Report& report, SpanRecorder& spans) {
  const ServeSpec& spec = find_spec(args.workload);
  const std::size_t objects =
      args.smoke ? std::min<std::size_t>(spec.objects, 16) : spec.objects;
  std::printf(
      "config: {\"workload\": \"%s\", \"vm_dispatch\": %s, \"objects\": %zu, "
      "\"zipf\": %g, \"post_fraction\": %g, \"post_bytes\": %zu, "
      "\"connections\": %zu, \"offered_rps\": %g}\n",
      spec.name, spec.vm_dispatch ? "true" : "false",
      spec.objects == 0 ? std::size(kImageSizes) : objects, spec.zipf,
      spec.post_fraction, spec.post_bytes, kConnections, spec.offered_rps);

  EndToEnd e2e;

  // Set-up, several times; the last instance is the one measured.
  std::vector<double> setup_times;
  std::unique_ptr<Instance> inst;
  const std::size_t repeats = args.smoke ? 1 : kSetupRepeats;
  for (std::size_t k = 0; k < repeats; ++k) {
    inst.reset();
    Stopwatch w;
    inst = set_up(spec, args, k, objects);
    setup_times.push_back(w.elapsed_sec());
  }
  e2e.setup_s = median(setup_times);
  const std::uint16_t port = inst->server->port();
  const Docroot& d = inst->docroot;

  const Counters before = read_counters(*inst);
  Tally tally;

  // Closed loop: 4 keep-alive connections; rps and MB/s are the medians
  // over the chunks, so a host stall costs the chunks it lands in, not the
  // run.
  const double closed_s = args.seconds * 0.55;
  {
    SpanRecorder::Scope phase(spans, "closed_loop");
    std::vector<double> chunk_rps;
    std::vector<double> chunk_mbs;
    const std::size_t chunks =
        args.smoke ? std::min<std::size_t>(spec.closed_chunks, 4)
                   : spec.closed_chunks;
    Stopwatch w;
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
      pace(w, closed_s * static_cast<double>(chunk) /
                  static_cast<double>(chunks));
      auto o = load_options(spec, d, args.seed * 1000003ULL + chunk);
      o.requests_per_connection = spec.closed_chunk / kConnections;
      clio::net::LoadReport r;
      {
        SpanRecorder::Scope s(spans, "closed_chunk", phase.id());
        r = clio::net::LoadGenerator(o).run(port);
      }
      tally.add(r, spec.post_bytes);
      chunk_rps.push_back(r.requests_per_sec());
      chunk_mbs.push_back(
          static_cast<double>(r.bytes_received + r.bytes_posted) / 1e6 /
          r.elapsed_s);
    }
    e2e.rps = median(chunk_rps);
    e2e.mb_s = median(chunk_mbs);
    std::printf("closed loop: %zu chunks of %zu requests, %.2f s\n", chunks,
                spec.closed_chunk, w.elapsed_sec());
  }

  // Open loop at the workload's fixed rate; latency counts from each
  // request's scheduled send instant.  p50, p90 and p99 come from all
  // windows together (at least 1000 samples, so 10 beyond p99).
  {
    SpanRecorder::Scope phase(spans, "open_loop");
    const std::size_t window =
        args.smoke ? std::min<std::size_t>(spec.open_window, 200)
                   : spec.open_window;
    clio::util::LatencyHistogram all;
    Stopwatch w;
    for (std::size_t k = 0; k < spec.open_windows; ++k) {
      auto o = load_options(spec, d, args.seed * 7919ULL + k);
      o.offered_rps = spec.offered_rps;
      o.requests_per_connection = window / kConnections;
      clio::net::LoadReport r;
      {
        SpanRecorder::Scope s(spans, "open_window", phase.id());
        r = clio::net::LoadGenerator(o).run(port);
      }
      tally.add(r, spec.post_bytes);
      all.merge(r.latency);
    }
    e2e.p50_ms = static_cast<double>(all.quantile_ns(0.5)) / 1e6;
    e2e.p90_ms = static_cast<double>(all.quantile_ns(0.9)) / 1e6;
    e2e.p99_ms = static_cast<double>(all.quantile_ns(0.99)) / 1e6;
    std::printf(
        "open loop: offered %.0f req/s, %zu windows of %zu requests, "
        "%llu samples, %.2f s\n",
        spec.offered_rps, spec.open_windows, window,
        static_cast<unsigned long long>(all.count()), w.elapsed_sec());
    if (!args.smoke && all.count() < 1000) {
      report.fail("open loop: fewer than 10 samples beyond p99");
    }
  }

  // Cold cycles (Table 6, trial 1): make_cold(), then one GET on an open
  // keep-alive connection.  As in the paper's Table 6, the time is taken
  // at the server: that request's handler stage (routing, storage, VM,
  // send), read as the delta of the server's handler timer.
  {
    std::vector<double> firsts;
    const std::size_t cycles = args.smoke ? 3 : spec.cold_cycles;
    const std::string path = "/" + d.files[d.first_request_index];
    const std::uint64_t size = d.sizes[d.first_request_index];
    auto handler = [&] {
      return stage_of(inst->server->metrics().snapshot(), "handler");
    };
    clio::net::HttpClient client(port, /*keep_alive=*/true);
    for (std::size_t k = 0; k < cycles; ++k) {
      SpanRecorder::Scope cycle(spans, "cold_cycle");
      {
        SpanRecorder::Scope s(spans, "make_cold", cycle.id());
        inst->server->make_cold();
      }
      const auto h0 = handler();
      ++tally.attempted;
      try {
        SpanRecorder::Scope s(spans, "first_get", cycle.id());
        const auto r = client.get(path);
        tally.bytes_received += r.status == 200 ? r.body.size() : 0;
        if (r.status != 200 || r.body.size() != size) {
          ++tally.failed;
          continue;
        }
      } catch (const std::exception&) {
        ++tally.failed;
        continue;
      }
      // The handler span closes after the response is sent: wait for it.
      auto h1 = handler();
      for (int i = 0; i < 1000 && h1.count == h0.count; ++i) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        h1 = handler();
      }
      if (h1.count == h0.count + 1) {
        firsts.push_back(static_cast<double>(h1.total_ns - h0.total_ns) / 1e6);
      }
    }
    client.disconnect();
    e2e.first_request_ms = median(firsts);
    if (!args.smoke && firsts.size() < cycles / 2) {
      report.fail("cold cycles: too few first requests were timed");
    }
  }

  const Counters after = read_counters(*inst);
  inst->bytes_received += tally.bytes_received;
  inst->posts_ok += tally.posts_ok;
  report.count(tally.attempted, tally.failed);
  e2e.peak_rss_mb = process_usage().max_rss_mib;

  verify(spec, *inst, args.seed, report);

  e2e.print(report, false);
  if (!args.trace) {
    e2e.add_gated(report);
    return;
  }
  Layers layers;
  add_layer_metrics(layers, spec, before, after, tally);
  add_cpu_layers(layers, before.usage, after.usage,
                 static_cast<double>(after.wall_ns - before.wall_ns) / 1e9);
  add_span_layers(layers, spans);
  e2e.add_traced(layers);
  emit_layers(report, layers);
}

}  // namespace perfbench
