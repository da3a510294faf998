// Measured-clock benchmark driver.
//
//   perfbench --workload <paper_matvec|serve_closed>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//   perfbench --self-test
//
// Prints one "metric <name> <value> <unit>" line per metric, then, as
// the last line of standard output, the run's result as one JSON
// object: {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, and the spans are written to
// <out-dir>/trace_<workload>_<seed>.json.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "common.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

void add_end_to_end(Outcome& out, double setup_s,
                    const std::vector<double>& op_seconds, double ops_per_s,
                    double peak_rss_mb) {
  out.add("setup_s", setup_s, "s");
  out.add("ops_per_s", ops_per_s, "ops/s");
  out.add("op_p50_ms", 1e3 * quantile(op_seconds, 0.50), "ms");
  out.add("op_p90_ms", 1e3 * quantile(op_seconds, 0.90), "ms");
  out.add("peak_rss_mb", peak_rss_mb, "MB");
}

void count_reconciliation(bool reconciled, Outcome& out) {
  ++out.attempted;
  if (!reconciled) ++out.failed;
}

}  // namespace perfbench

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload <paper_matvec|serve_closed>"
               " --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n"
               "       perfbench --self-test\n";
  std::exit(2);
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void print_outcome(const Outcome& out) {
  for (const Metric& m : out.metrics) {
    std::cout << "metric " << m.name << " " << json_number(m.value) << " " << m.unit
              << "\n";
  }
  std::cout << "{\"correct\": " << (out.correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::cout << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
              << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  args.process_start = Clock::now();
  bool self_test = false;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        have_seconds = args.seconds > 0.0 && std::isfinite(args.seconds);
        if (!have_seconds) usage("--seconds must be a positive number");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
        have_trace = true;
      } else if (flag == "--out-dir") {
        args.out_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (self_test) return run_self_test();
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }

  Outcome (*run)(const Args&) = nullptr;
  if (args.workload == "paper_matvec") {
    run = run_paper_matvec;
  } else if (args.workload == "serve_closed") {
    run = run_serve_closed;
  } else {
    usage("unknown workload " + args.workload);
  }

  if (args.trace) Tracer::get().enable(args.process_start);
  Outcome out;
  try {
    out = run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " aborted: " << e.what() << "\n";
    return 1;
  }
  if (args.trace) {
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string path = args.out_dir + "/trace_" + args.workload + "_" +
                             std::to_string(args.seed) + ".json";
    if (ec || !Tracer::get().write(path)) {
      std::cerr << "perfbench: cannot write " << path << "\n";
      return 1;
    }
    std::cerr << "perfbench: " << Tracer::get().spans().size() << " spans -> "
              << path << "\n";
  }
  print_outcome(out);
  return 0;
}
