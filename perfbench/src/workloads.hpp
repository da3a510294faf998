// The benchmark's workloads.  Each runs one workload end to end:
// set-up, a timed phase of whole ops for Args::seconds, and checks of
// every op's output.  With Args::trace off the outcome carries the
// end-to-end metrics; with it on, the per-layer metrics (LayerReport)
// and a span file.
#pragma once

#include "common.hpp"
#include "layers.hpp"

namespace perfbench {

Outcome run_paper_matvec(const Args& args);
Outcome run_serve_closed(const Args& args);

/// Layer values a workload's traced run cannot observe itself.  The
/// inverse probe runs one checked sensor-placement design; the serve
/// probe runs 512 checked serve_closed requests.  Each adds its ops to
/// `out.attempted`, and those whose checks fail to `out.failed`.
void probe_inverse_layer(std::uint64_t seed, LayerReport& report, Outcome& out);
void probe_serve_layer(std::uint64_t seed, LayerReport& report, Outcome& out);

/// Count the traced run's reconciliation (probe_pipeline's verdict)
/// as one checked op of `out`.
void count_reconciliation(bool reconciled, Outcome& out);

/// Feed each check a broken output and expect a rejection; returns
/// the process exit code (0 when every check rejects its fault and
/// accepts the unbroken output).
int run_self_test();

/// End-to-end metrics shared by the sequential workloads.
/// `op_seconds` holds each op's latency and `ops_per_s` the run's
/// median round rate (median_round_rate / median_window_rate).
void add_end_to_end(Outcome& out, double setup_s,
                    const std::vector<double>& op_seconds, double ops_per_s,
                    double peak_rss_mb);

}  // namespace perfbench
