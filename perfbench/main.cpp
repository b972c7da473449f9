// Repository benchmark: one command, four workloads (serve_small,
// serve_large_rw, serve_managed, replay_ooc) driven through the library's
// public serving, storage and trace-replay APIs.  See LAYERS.md for what
// each workload measures and why.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--smoke]
//
// --trace 0 prints the end-to-end metrics; --trace 1 repeats the run with
// the span recorder on and prints the per-layer metrics plus the traced
// run's own end-to-end numbers ("traced.*"), whose distance from the
// untraced ones is the tracing overhead.  The last stdout line is the JSON
// result; the process exits 1 when any output check failed.
#include <sys/utsname.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "io/uring_store.hpp"

#ifndef CLIO_PERFBENCH_BUILD_TYPE
#define CLIO_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Args;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--smoke]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (args.work_dir.empty()) usage("--work-dir is required");
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  return args;
}

void print_host(const Args& args) {
  utsname u{};
  const char* kernel = ::uname(&u) == 0 ? u.release : "unknown";
  std::printf(
      "host: {\"nproc\": %u, \"kernel\": \"%s\", \"uring_supported\": %s, "
      "\"build_type\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d}\n",
      perfbench::cpu_count(), kernel,
      clio::io::UringStore::supported() ? "true" : "false",
      CLIO_PERFBENCH_BUILD_TYPE, args.workload.c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const bool serve = args.workload.rfind("serve_", 0) == 0;
  if (!serve && args.workload != "replay_ooc") {
    usage(("unknown workload " + args.workload).c_str());
  }
  print_host(args);

  perfbench::Report report;
  perfbench::SpanRecorder spans(args.trace, args.seed);
  std::filesystem::remove_all(args.work_dir);
  std::filesystem::create_directories(args.work_dir);
  try {
    if (serve) {
      perfbench::run_serve(args, report, spans);
    } else {
      perfbench::run_replay(args, report, spans);
    }
  } catch (const std::exception& e) {
    report.fail(std::string("run aborted: ") + e.what());
  }
  if (args.trace) {
    const auto path = args.work_dir.parent_path() /
                      ("spans-" + args.workload + "-" +
                       std::to_string(args.seed) + ".json");
    spans.write_json(path);
    std::printf("spans: %s\n", path.string().c_str());
  }
  std::error_code ec;
  std::filesystem::remove_all(args.work_dir, ec);

  report.print_table();
  report.print_json();
  return report.correct() ? 0 : 1;
}
