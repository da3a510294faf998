// serve_closed: the serving layer under a closed loop.  One thread
// keeps a fixed window of requests outstanding against an
// AsyncScheduler with its default two lanes; one op is one request,
// timed from submit() until its future is ready.  The shapes and the
// sharded placement are the serve benches' own (bench/serve_faults,
// bench/serve_slo): three tenants share {96, 6, 48} and two share
// {128, 4, 64} (so batches group across tenants), and {96, 8, 48} is
// sharded over two ranks.  The proportions of the mix are synthetic:
// uniform draws of tenant, direction and config (ddddd, dssdd,
// sssss), and a quarter of the requests through StreamSessions.  At
// these shapes queueing, batching and dispatch are a large share of
// each request's time.  The loop is closed because scientific clients
// wait for each result before sending the next.
#include <algorithm>
#include <array>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "core/block_toeplitz.hpp"
#include "core/dense_reference.hpp"
#include "core/matvec_plan.hpp"
#include "core/synthetic.hpp"
#include "device/device_spec.hpp"
#include "serve/scheduler.hpp"
#include "serve/session.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace fftmv;

namespace {

using core::ApplyDirection;

struct TenantSpec {
  core::ProblemDims dims;
  int rank_group;
};

constexpr std::array<TenantSpec, 6> kTenants{{
    {{96, 6, 48}, 1},
    {{96, 6, 48}, 1},
    {{96, 6, 48}, 1},
    {{128, 4, 64}, 1},
    {{128, 4, 64}, 1},
    {{96, 8, 48}, 2},
}};
constexpr std::array<const char*, 3> kConfigs{"ddddd", "dssdd", "sssss"};
/// Requests kept outstanding by the closed loop.
constexpr int kWindow = 32;
/// Distinct inputs per (tenant, direction); requests draw from them.
constexpr int kInputs = 4;
/// Share of requests sent through a StreamSession.
constexpr double kSessionShare = 0.25;
/// Longest the loop sleeps on its oldest request before it looks at
/// every slot again: the most by which a request that completes out of
/// order can be stamped late.
constexpr auto kPoll = std::chrono::microseconds(20);
/// Closed-loop requests run as part of set-up, before the timed phase.
constexpr std::int64_t kWarmupRequests = 2000;

struct SessionSpec {
  int tenant;
  ApplyDirection direction;
  int config;
};
constexpr std::array<SessionSpec, 2> kSessions{{
    {0, ApplyDirection::kForward, 1},
    {3, ApplyDirection::kAdjoint, 0},
}};

/// One request of the mix: which tenant, direction, config and input.
struct RequestSpec {
  int tenant = 0;
  ApplyDirection direction = ApplyDirection::kForward;
  int config = 0;
  int input = 0;
  int session = -1;  ///< index into kSessions, -1 = one-shot submit

  auto key() const {
    return std::make_tuple(tenant, static_cast<int>(direction), config, input);
  }
};

RequestSpec draw_request(util::Rng& rng) {
  RequestSpec r;
  if (rng.next_double() < kSessionShare) {
    r.session = static_cast<int>(rng.next_u64() % kSessions.size());
    const SessionSpec& s = kSessions[static_cast<std::size_t>(r.session)];
    r.tenant = s.tenant;
    r.direction = s.direction;
    r.config = s.config;
  } else {
    r.tenant = static_cast<int>(rng.next_u64() % kTenants.size());
    r.direction = rng.next_u64() % 2 == 0 ? ApplyDirection::kForward
                                          : ApplyDirection::kAdjoint;
    r.config = static_cast<int>(rng.next_u64() % kConfigs.size());
  }
  r.input = static_cast<int>(rng.next_u64() % kInputs);
  return r;
}

/// What the loop keeps of each completed request.
struct Record {
  RequestSpec spec;
  bool ok = false;
  std::uint64_t digest = 0;
  double latency_s = 0.0;
  double done_s = 0.0;  ///< completion, seconds after the loop started
  double queue_s = 0.0;
  double exec_s = 0.0;
  double sim_s = 0.0;
};

struct LoopStats {
  std::vector<Record> records;
  std::vector<double> submit_us;
  double wall_s = 0.0;  ///< first submit -> last completion
};

class ServeSystem {
 public:
  ServeSystem(std::uint64_t seed, LayerReport* layers)
      : sched_(std::make_unique<serve::AsyncScheduler>(device::make_mi300x())),
        rng_(derive_seed(seed, 5)),
        seed_(seed) {
    for (std::size_t t = 0; t < kTenants.size(); ++t) {
      const auto dims = core::LocalDims::single_rank(kTenants[t].dims);
      cols_.push_back(core::make_first_block_col(dims, derive_seed(seed, 100 + t)));
      const auto t0 = Clock::now();
      {
        Scope s("serve.add_tenant");
        ids_.push_back(sched_->add_tenant(kTenants[t].dims, cols_.back(),
                                          kTenants[t].rank_group));
      }
      add_tenant_s_ += seconds_since(t0);
      for (int dir = 0; dir < 2; ++dir) {
        const index_t width = dir == 0 ? dims.n_m_local : dims.n_d_local;
        for (int k = 0; k < kInputs; ++k) {
          inputs_[{static_cast<int>(t), dir, k}] = core::make_input_vector(
              dims.n_t() * width, derive_seed(seed, 1000 + 100 * t + 10 * dir + k));
        }
      }
    }
    for (const SessionSpec& s : kSessions) {
      sessions_.push_back(sched_->open_stream(
          ids_[static_cast<std::size_t>(s.tenant)], s.direction,
          precision::PrecisionConfig::parse(kConfigs[static_cast<std::size_t>(s.config)])));
    }
    // Warm-up: every (tenant, direction, config) class once, then the
    // closed loop itself for kWarmupRequests, so plans are built and
    // batch buffers have grown as the timed loop will need them.
    std::vector<std::future<serve::MatvecResult>> first;
    for (int t = 0; t < static_cast<int>(kTenants.size()); ++t) {
      for (int dir = 0; dir < 2; ++dir) {
        for (int c = 0; c < static_cast<int>(kConfigs.size()); ++c) {
          RequestSpec r;
          r.tenant = t;
          r.direction = dir == 0 ? ApplyDirection::kForward : ApplyDirection::kAdjoint;
          r.config = c;
          first.push_back(submit(r, prepare(r)));
        }
      }
    }
    for (auto& f : first) {
      if (!f.get().ok()) throw std::runtime_error("serve warm-up request failed");
    }
    for (const Record& r : run(Clock::time_point::max(), kWarmupRequests).records) {
      if (!r.ok) throw std::runtime_error("serve warm-up request failed");
    }
    sched_->drain();
    if (layers != nullptr) layers->serve_add_tenant_s = add_tenant_s_;
  }

  ~ServeSystem() { stop(); }

  /// Close the sessions and shut the scheduler down, so the checks and
  /// probes that follow do not share the machine with its lanes.
  void stop() {
    for (auto& s : sessions_) {
      if (s.open()) s.close();
    }
    sched_->shutdown();
  }

  serve::AsyncScheduler& scheduler() { return *sched_; }

  /// Run the closed loop until `deadline` passes (or `max_requests`
  /// have been sent, when positive); waits for every outstanding
  /// request before returning.
  LoopStats run(Clock::time_point deadline, std::int64_t max_requests) {
    LoopStats stats;
    struct Slot {
      std::future<serve::MatvecResult> future;
      RequestSpec spec;
      Clock::time_point submitted;
      std::int64_t id = -1;
    };
    std::vector<Slot> slots(kWindow);
    std::int64_t sent = 0;  // this run's requests; ids stay unique across runs
    const auto more = [&] {
      return Clock::now() < deadline && (max_requests <= 0 || sent < max_requests);
    };
    const auto launch = [&](Slot& slot) {
      slot.spec = draw_request(rng_);
      slot.id = next_id_++;
      ++sent;
      serve::Request req = prepare(slot.spec);
      const auto t0 = Clock::now();
      slot.future = submit(slot.spec, std::move(req), slot.id);
      const auto t1 = Clock::now();
      stats.submit_us.push_back(1e6 * seconds_between(t0, t1));
      slot.submitted = t0;
    };
    const auto start = Clock::now();
    auto last = start;
    for (Slot& slot : slots) launch(slot);
    std::size_t active = slots.size();
    std::vector<std::pair<Slot*, Clock::time_point>> ready;
    ready.reserve(slots.size());
    while (active > 0) {
      // Stamp every ready slot in one pass first, so no completion time
      // waits on the hashing or resubmission of another request.
      ready.clear();
      Slot* oldest = nullptr;
      for (Slot& slot : slots) {
        if (slot.id < 0) continue;
        if (slot.future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
          ready.emplace_back(&slot, Clock::now());
        } else if (oldest == nullptr || slot.id < oldest->id) {
          oldest = &slot;
        }
      }
      if (ready.empty()) {
        oldest->future.wait_for(kPoll);
        continue;
      }
      for (auto& [slot_ptr, done] : ready) {
        Slot& slot = *slot_ptr;
        const serve::MatvecResult result = slot.future.get();
        Tracer::get().record("op", slot.id, slot.submitted, done);
        Record rec;
        rec.spec = slot.spec;
        rec.ok = result.ok();
        rec.digest = checks::hash_bits(result.output);
        rec.latency_s = seconds_between(slot.submitted, done);
        rec.done_s = seconds_between(start, done);
        rec.queue_s = result.queue_seconds;
        rec.exec_s = result.exec_seconds;
        rec.sim_s = result.sim_seconds;
        stats.records.push_back(rec);
        last = std::max(last, done);
        if (more()) {
          launch(slot);
        } else {
          slot.id = -1;
          --active;
        }
      }
    }
    stats.wall_s = seconds_between(start, last);
    return stats;
  }

  /// Failed ops among `records`: a result code other than kOk, an
  /// output not bit-identical to the benchmark's own single-RHS apply
  /// of the same request, or (ddddd) a reference outside the error
  /// bound of the dense sum.
  std::int64_t check(const std::vector<Record>& records) const {
    device::Device dev(device::make_mi300x());
    device::Stream stream(dev);
    std::vector<std::unique_ptr<core::BlockToeplitzOperator>> ops;
    std::vector<std::unique_ptr<core::FftMatvecPlan>> plans;
    for (std::size_t t = 0; t < kTenants.size(); ++t) {
      const auto dims = core::LocalDims::single_rank(kTenants[t].dims);
      ops.push_back(std::make_unique<core::BlockToeplitzOperator>(dev, stream, dims,
                                                                  cols_[t]));
      plans.push_back(std::make_unique<core::FftMatvecPlan>(dev, stream, dims));
    }
    std::map<std::tuple<int, int, int, int>, std::pair<std::uint64_t, bool>> expected;
    const auto reference = [&](const RequestSpec& r) {
      const auto [it, inserted] = expected.try_emplace(r.key());
      if (!inserted) return it->second;
      const auto t = static_cast<std::size_t>(r.tenant);
      const core::LocalDims& dims = ops[t]->dims();
      const bool adjoint = r.direction == ApplyDirection::kAdjoint;
      const auto& in = inputs_.at({r.tenant, adjoint ? 1 : 0, r.input});
      std::vector<double> out(static_cast<std::size_t>(
          dims.n_t() * (adjoint ? dims.n_m_local : dims.n_d_local)));
      const auto config =
          precision::PrecisionConfig::parse(kConfigs[static_cast<std::size_t>(r.config)]);
      if (adjoint) {
        plans[t]->adjoint(*ops[t], in, out, config);
      } else {
        plans[t]->forward(*ops[t], in, out, config);
      }
      bool ok = true;
      if (config == precision::PrecisionConfig{}) {
        std::vector<double> dense(out.size());
        if (adjoint) {
          core::dense_adjoint(dims, cols_[t], in, dense);
        } else {
          core::dense_forward(dims, cols_[t], in, dense);
        }
        for (std::size_t i = 0; i < out.size(); ++i) dense[i] -= out[i];
        ok = checks::norm2(dense) <=
             checks::apply_error_bound(*ops[t], config, adjoint, in, out) *
                 checks::norm2(out);
      }
      it->second = {checks::hash_bits(out), ok};
      return it->second;
    };
    std::vector<std::uint64_t> observed, wanted;
    std::int64_t failed = 0;
    for (const Record& rec : records) {
      const auto [digest, ref_ok] = reference(rec.spec);
      if (!rec.ok || !ref_ok) {
        ++failed;
        continue;
      }
      observed.push_back(rec.digest);
      wanted.push_back(digest);
    }
    failed += checks::digest_mismatches(observed, wanted);
    return failed;
  }

  /// Core and device probes at tenant 0's shape in dssdd: operator
  /// set-up, the float spectrum, the isolated pipeline and the pool
  /// speed-up.  Returns probe_pipeline's reconciliation verdict.
  bool probe_core(LayerReport& layers) const {
    device::Device dev(device::make_mi300x());
    device::Stream stream(dev);
    const auto dims = core::LocalDims::single_rank(kTenants[0].dims);
    auto t0 = Clock::now();
    const core::BlockToeplitzOperator op(dev, stream, dims, cols_[0]);
    layers.core_op_setup_s = seconds_since(t0);
    t0 = Clock::now();
    op.spectrum_f(stream);
    layers.core_spectrum_f_s = seconds_since(t0);
    const auto config = precision::PrecisionConfig::parse("dssdd");
    const bool reconciled = probe_pipeline(dev, op, config, 51, seed_, layers);
    layers.device_pool_speedup = probe_pool_speedup(dev.spec(), op, config, 51, seed_);
    return reconciled;
  }

 private:
  /// The request for `r`, input copied in: the client's own work,
  /// done before the request's clock starts.
  serve::Request prepare(const RequestSpec& r) const {
    const bool adjoint = r.direction == ApplyDirection::kAdjoint;
    serve::Request req;
    req.tenant = ids_[static_cast<std::size_t>(r.tenant)];
    req.direction = r.direction;
    req.config =
        precision::PrecisionConfig::parse(kConfigs[static_cast<std::size_t>(r.config)]);
    req.input = inputs_.at({r.tenant, adjoint ? 1 : 0, r.input});
    return req;
  }

  std::future<serve::MatvecResult> submit(const RequestSpec& r, serve::Request req,
                                          std::int64_t op = -1) {
    Scope s("serve.submit", op);
    if (r.session >= 0) {
      return sessions_[static_cast<std::size_t>(r.session)].submit(std::move(req.input));
    }
    return sched_->submit(std::move(req));
  }

  std::unique_ptr<serve::AsyncScheduler> sched_;
  util::Rng rng_;
  std::uint64_t seed_;
  std::vector<std::vector<double>> cols_;
  std::vector<serve::TenantId> ids_;
  std::vector<serve::StreamSession> sessions_;
  std::map<std::tuple<int, int, int>, std::vector<double>> inputs_;
  double add_tenant_s_ = 0.0;
  std::int64_t next_id_ = 0;
};

/// Serve-layer metrics over one loop: medians of submit time and of
/// the results' queue/exec seconds, batches and cache hits from the
/// scheduler's metrics deltas, modelled collective time per sharded
/// batch.
void fill_serve_layer(const LoopStats& stats, const serve::MetricsSnapshot& before,
                      const serve::MetricsSnapshot& after, LayerReport& report) {
  std::vector<double> queue_ms, exec_ms;
  for (const Record& r : stats.records) {
    queue_ms.push_back(1e3 * r.queue_s);
    exec_ms.push_back(1e3 * r.exec_s);
  }
  report.serve_submit_us = median(stats.submit_us);
  report.serve_queue_ms = median(queue_ms);
  report.serve_exec_ms = median(exec_ms);
  const double batches = static_cast<double>(after.batches - before.batches);
  const double requests = static_cast<double>(after.completed - before.completed);
  report.serve_mean_batch = requests / std::max(1.0, batches);
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double misses = static_cast<double>(after.cache_misses - before.cache_misses);
  report.serve_plan_cache_hit_rate = hits / std::max(1.0, hits + misses);
  const double sharded =
      static_cast<double>(after.sharded_batches - before.sharded_batches);
  report.comm_model_ms_per_batch =
      1e3 * (after.comm_sim_seconds - before.comm_sim_seconds) / std::max(1.0, sharded);
}

}  // namespace

Outcome run_serve_closed(const Args& args) {
  LayerReport layers;
  if (args.trace) layers.device_copy_gbps = probe_copy_gbps();
  ServeSystem sys(args.seed, &layers);
  const double setup_s = seconds_since(args.process_start);

  if (args.trace) sys.scheduler().device().set_fault_plan(counting_fault_plan());
  const auto before = sys.scheduler().metrics();
  const auto deadline = deadline_after(args.seconds);
  const LoopStats stats = sys.run(deadline, 0);
  const double peak_rss = peak_rss_mb();
  sys.scheduler().drain();
  const auto after = sys.scheduler().metrics();
  const auto ops = static_cast<std::int64_t>(stats.records.size());

  const auto snapshot_stats = args.trace ? sys.scheduler().device().fault_plan()->stats()
                                         : device::FaultStats{};
  sys.stop();
  Outcome out;
  out.attempted = ops;
  out.failed = sys.check(stats.records);
  out.correct = out.failed == 0;
  std::vector<double> latencies, done;
  double model_s = 0.0;
  for (const Record& r : stats.records) {
    latencies.push_back(r.latency_s);
    done.push_back(r.done_s);
    model_s += r.sim_s;
  }
  if (!args.trace) {
    add_end_to_end(out, setup_s, latencies, median_window_rate(done, stats.wall_s),
                   peak_rss);
    return out;
  }
  record_device_counts(snapshot_stats, ops, layers);
  fill_serve_layer(stats, before, after, layers);
  layers.device_model_ms_per_op = 1e3 * model_s / static_cast<double>(ops);
  layers.trace_op_p50_ms = 1e3 * median(latencies);
  layers.device_launch_us = probe_launch_us();
  layers.util_parallel_for_us = probe_parallel_for_us();
  count_reconciliation(sys.probe_core(layers), out);
  probe_inverse_layer(args.seed, layers, out);
  out.correct = out.failed == 0;
  layers.emit(out);
  return out;
}

void probe_serve_layer(std::uint64_t seed, LayerReport& report, Outcome& out) {
  ServeSystem sys(seed, &report);
  const auto before = sys.scheduler().metrics();
  const LoopStats stats = sys.run(Clock::time_point::max(), 512);
  sys.scheduler().drain();
  fill_serve_layer(stats, before, sys.scheduler().metrics(), report);
  sys.stop();
  out.attempted += static_cast<std::int64_t>(stats.records.size());
  out.failed += sys.check(stats.records);
}

}  // namespace perfbench
