// Reconstruction workloads: mlfma_serial, cbs_auto (serial DbimStepper)
// and mlfma_2x2 (dbim_reconstruct_parallel on an in-proc VCluster).
//
// A run synthesises its inputs from the seed, then repeats rounds of
// "set up, reconstruct to the residual target, check" until --seconds
// are used, and reports medians over the rounds. With --trace 1 it runs
// one untraced and one traced round and reports the traced round's
// layer split, plus traced / untraced time as the tracing overhead.
#include <cmath>
#include <memory>
#include <optional>

#include "dbim/dbim.hpp"
#include "dbim/parallel_driver.hpp"
#include "greens/transceivers.hpp"
#include "grid/quadtree.hpp"
#include "metrics.hpp"
#include "mlfma/engine.hpp"
#include "parallel/parallel_for.hpp"
#include "phantom/phantom.hpp"
#include "reference.hpp"
#include "service/table_cache.hpp"
#include "vcluster/comm.hpp"
#include "vcluster/transport.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ffw;

constexpr int kNumTx = 16, kNumRx = 32;
constexpr double kMaxContrast = 0.02;  // paper Fig. 13
constexpr double kNoise = 1e-4;        // relative measurement noise

struct ReconConfig {
  int nx;
  BackendKind backend;
  int max_iterations;
  double residual_tol;
  int illum_groups = 0;  // > 0: 2-D parallel driver
  int tree_ranks = 0;
};

/// The README quickstart's accelerated fp64 configuration. The near-field
/// preconditioner only acts on MLFMA solves, so the CBS-routed workload
/// leaves it off (its factorisation would be pure overhead there).
DbimOptions dbim_options(const ReconConfig& c) {
  DbimOptions o;
  o.max_iterations = c.max_iterations;
  o.residual_tol = c.residual_tol;
  o.near_precondition = c.backend == BackendKind::kMlfma;
  o.adaptive_forcing = true;
  o.recycle_depth = 2;
  o.backend = c.backend;
  return o;
}

BicgstabOptions forward_options() {
  BicgstabOptions f;
  f.tol = 1e-6;
  return f;
}

struct Inputs {
  explicit Inputs(const ReconConfig& c, std::uint64_t seed)
      : grid(c.nx), geo(ring_geometry(grid, kNumTx, kNumRx)) {
    const cvec eps = seeded_shepp_logan(grid, kMaxContrast, seed);
    truth = contrast_from_permittivity(grid, eps);
    measured = synthesize(grid, geo, eps, kNoise, seed);
  }
  Grid grid;
  Geometry geo;
  cvec truth;  // O = k0^2 delta_eps
  CMatrix measured;
};

/// Set-up timings of one round (seconds).
struct SetupTimes {
  double engine = 0, transceivers = 0, cbs_tables = 0, total = 0;
};

/// One reconstruction's outcome and its checks' inputs.
struct Outcome {
  double seconds = 0.0;
  DbimResult result;
  double rmse = 0.0;
  bool reached = false;
};

/// Serial runtime: private MLFMA engine, transceivers, (for kAuto) the
/// CBS tables through a table cache, and the stepper. Members are
/// declared so that the stepper is destroyed first.
struct SerialRuntime {
  std::unique_ptr<OperatorTableCache> cache;
  std::unique_ptr<QuadTree> tree;
  std::unique_ptr<MlfmaEngine> engine;
  std::unique_ptr<Transceivers> trx;
  std::unique_ptr<DbimStepper> stepper;
  SetupTimes times;

  SerialRuntime(const ReconConfig& c, const Inputs& in) {
    const Clock total;
    {
      const Clock t;
      tree = std::make_unique<QuadTree>(in.grid);
      engine = std::make_unique<MlfmaEngine>(*tree);
      times.engine = t.seconds();
    }
    {
      const Clock t;
      trx = std::make_unique<Transceivers>(in.grid, in.geo.tx, in.geo.rx);
      times.transceivers = t.seconds();
    }
    DbimOptions opts = dbim_options(c);
    if (c.backend != BackendKind::kMlfma) {
      const Clock t;
      cache = std::make_unique<OperatorTableCache>();
      cache->cbs_tables(in.grid, opts.cbs.precision);
      times.cbs_tables = t.seconds();
      opts.table_cache = cache.get();
    }
    stepper = std::make_unique<DbimStepper>(*engine, *trx, in.measured, opts,
                                            forward_options());
    times.total = total.seconds();
  }

  Outcome reconstruct(const ReconConfig& c, const Inputs& in) {
    Outcome o;
    const Clock t;
    while (stepper->step()) {
    }
    o.seconds = t.seconds();
    o.result = stepper->result();
    o.rmse = image_rmse(o.result.contrast, in.truth);
    o.reached = !o.result.history.relative_residual.empty() &&
                o.result.history.relative_residual.back() < c.residual_tol;
    return o;
  }
};

/// 2-D parallel runtime: in-proc VCluster, tree, transceivers and the
/// MLFMA tables pre-built in a cache the parallel driver's PartitionedMlfma
/// shares.
struct ParallelRuntime {
  std::unique_ptr<OperatorTableCache> cache;
  std::unique_ptr<QuadTree> tree;
  std::unique_ptr<Transceivers> trx;
  std::unique_ptr<VCluster> vc;
  ParallelDbimConfig cfg;
  SetupTimes times;
  std::vector<double> iteration_ends;  // progress-callback timestamps

  ParallelRuntime(const ReconConfig& c, const Inputs& in) {
    const Clock total;
    const int nranks = c.illum_groups * c.tree_ranks;
    vc = std::make_unique<VCluster>(nranks, make_transport("inproc", nranks));
    {
      const Clock t;
      tree = std::make_unique<QuadTree>(in.grid);
      cache = std::make_unique<OperatorTableCache>();
      cache->mlfma_tables(in.grid, tree->leaf_pixel_side(), cfg.mlfma);
      times.engine = t.seconds();
    }
    {
      const Clock t;
      trx = std::make_unique<Transceivers>(in.grid, in.geo.tx, in.geo.rx);
      times.transceivers = t.seconds();
    }
    cfg.illum_groups = c.illum_groups;
    cfg.tree_ranks = c.tree_ranks;
    cfg.dbim = dbim_options(c);
    cfg.forward = forward_options();
    cfg.table_cache = cache.get();
    times.total = total.seconds();
  }

  Outcome reconstruct(const ReconConfig& c, const Inputs& in) {
    Outcome o;
    const Clock t;
    iteration_ends.clear();
    cfg.dbim.progress = [this, &t](int, double) {
      iteration_ends.push_back(t.seconds());
    };
    o.result = dbim_reconstruct_parallel(*vc, *tree, *trx, in.measured, cfg);
    o.seconds = t.seconds();
    cfg.dbim.progress = nullptr;  // it captured `t`
    o.rmse = image_rmse(o.result.contrast, in.truth);
    o.reached = !o.result.history.relative_residual.empty() &&
                o.result.history.relative_residual.back() < c.residual_tol;
    return o;
  }
};

/// Output checks of every reconstruction: target met within the cap, and
/// no slower convergence or worse image than the seed commit recorded
/// (reference.hpp).
void check_against_reference(Result& r, const ReconReference& ref,
                             const Outcome& o) {
  const auto& h = o.result.history.relative_residual;
  r.check(o.reached, "residual target not reached within the cap");
  r.check(o.rmse <= (1.0 + ref.rmse_rtol) * ref.rmse,
          "image_rmse " + json_number(o.rmse) + " above recorded " +
              json_number(ref.rmse));
  r.check(static_cast<int>(h.size()) <= ref.max_iterations,
          "took " + std::to_string(h.size()) + " iterations");
  for (std::size_t i = 0; i < h.size() && i < ref.residuals.size(); ++i) {
    r.check(h[i] <= (1.0 + ref.residual_rtol) * ref.residuals[i],
            "residual at iteration " + std::to_string(i) + " = " +
                json_number(h[i]) + " above the recorded trajectory");
  }
}

std::string json_array(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    s += (i ? "," : "") + json_number(v[i]);
  }
  return s + "]";
}

/// Per-layer split of a traced serial round.
Layers serial_layers(SerialRuntime& rt, const SpanLedger& led) {
  Layers l;
  DbimWorkspace& ws = rt.stepper->workspace();
  const ForwardStats& mf = ws.solver().stats();
  l.dbim_iteration_s = led.median_duration("dbim.iteration");
  l.dbim_residual_pass_s = led.self("dbim.residual_pass");
  l.dbim_gradient_pass_s = led.self("dbim.gradient_pass");
  l.dbim_step_pass_s = led.self("dbim.step_pass");
  l.forward_bicgstab_iters = counter_sum(obs::Counter::kBicgstabTotalIters);
  l.forward_solves = static_cast<double>(mf.solves);
  l.forward_operator_applications =
      static_cast<double>(mf.operator_applications);
  if (CbsEngine* cbs = ws.cbs()) {
    l.forward_solves += static_cast<double>(cbs->stats().solves);
    l.forward_operator_applications +=
        static_cast<double>(cbs->stats().operator_applications);
  }
  l.forward_precond_setup_s = counter_seconds(obs::Counter::kPrecondSetupNs);
  l.forward_precond_apply_s = counter_seconds(obs::Counter::kPrecondApplyNs);
  l.forward_krylov_other_s =
      l.dbim_residual_pass_s + l.dbim_gradient_pass_s + l.dbim_step_pass_s;
  l.forward_cbs_iters = counter_sum(obs::Counter::kCbsIterations);
  l.forward_cbs_solve_s = led.total("cbs.solve");
  l.fft_time_s = counter_seconds(obs::Counter::kFftNs);
  l.fft_plan_hits = counter_sum(obs::Counter::kFftPlanHits);
  l.fft_plan_misses = counter_sum(obs::Counter::kFftPlanMisses);
  const PhaseTimes& pt = rt.engine->phase_times();
  const auto phase = [&](MlfmaPhase p) {
    return pt.seconds[static_cast<std::size_t>(p)];
  };
  l.mlfma_expand_s = phase(MlfmaPhase::kExpansion);
  l.mlfma_aggregate_s = phase(MlfmaPhase::kAggregation);
  l.mlfma_translate_s = phase(MlfmaPhase::kTranslation);
  l.mlfma_disaggregate_s = phase(MlfmaPhase::kDisaggregation);
  l.mlfma_local_expand_s = phase(MlfmaPhase::kLocalExpansion);
  l.mlfma_nearfield_s = phase(MlfmaPhase::kNearField);
  l.mlfma_applications = static_cast<double>(pt.applications);
  l.mlfma_table_bytes = static_cast<double>(rt.engine->tables()->bytes());
  const double iter_total = led.total("dbim.iteration");
  if (iter_total > 0.0) {
    l.trace_coverage = (iter_total - led.self("dbim.iteration") -
                        l.forward_krylov_other_s) /
                       iter_total;
  }
  return l;
}

/// Per-layer split of a traced 2-D parallel round. Span and counter
/// seconds are summed over the ranks and divided by the rank count.
Layers parallel_layers(ParallelRuntime& rt, const ReconConfig& c,
                       const SpanLedger& led) {
  Layers l;
  const TrafficStats traffic = rt.vc->traffic();
  const double nranks = c.illum_groups * c.tree_ranks;
  const double tree_ranks = c.tree_ranks;
  std::vector<double> iter_s;
  for (std::size_t i = 1; i < rt.iteration_ends.size(); ++i) {
    iter_s.push_back(rt.iteration_ends[i] - rt.iteration_ends[i - 1]);
  }
  l.dbim_iteration_s = median(iter_s);
  // Every rank of a tree group runs the same Krylov solve and counts its
  // iterations and applies, so the per-group totals are rank sums over
  // tree_ranks. The parallel driver's DbimHistory solve/iteration fields are
  // not measurements (they are unset or derived from the cap).
  l.forward_bicgstab_iters =
      counter_sum(obs::Counter::kBicgstabTotalIters) / tree_ranks;
  l.mlfma_applications =
      counter_sum(obs::Counter::kMlfmaApplications) / tree_ranks;
  l.forward_operator_applications = l.mlfma_applications;
  l.forward_precond_setup_s =
      counter_seconds(obs::Counter::kPrecondSetupNs) / nranks;
  l.forward_precond_apply_s =
      counter_seconds(obs::Counter::kPrecondApplyNs) / nranks;
  l.mlfma_aggregate_s = led.self("dist.upward") / nranks;
  l.mlfma_translate_s = led.self("dist.translate") / nranks;
  l.mlfma_disaggregate_s = led.self("dist.downward") / nranks;
  l.mlfma_nearfield_s = led.self("dist.near") / nranks;
  l.mlfma_table_bytes = static_cast<double>(rt.cache->stats().bytes);
  l.vcluster_wire_bytes = static_cast<double>(traffic.total_bytes());
  l.vcluster_messages = static_cast<double>(traffic.total_messages());
  l.vcluster_halo_wait_s = counter_seconds(obs::Counter::kHaloWaitNs) / nranks;
  l.vcluster_compute_s = counter_seconds(obs::Counter::kComputeNs) / nranks;
  // Covered rank time: the self times of every span on the rank threads
  // add up to the time inside some span.
  double covered = 0.0;
  for (const auto& [name, e] : led.by_name) covered += e.self_s;
  covered /= nranks;
  const double wall = rt.iteration_ends.empty() ? 0.0
                                                : rt.iteration_ends.back();
  if (wall > 0.0) {
    l.trace_coverage = covered / wall;
    l.forward_krylov_other_s = std::max(0.0, wall - covered);
  }
  return l;
}

Result run_recon(const ReconConfig& c, const ReconReference& ref,
                 const Args& args) {
  Result r;
  const bool parallel = c.illum_groups > 0;
  const int threads = parallel ? 1 : thread_budget();
  set_num_threads(threads);
  r.note("threads",
         "{\"ranks\":" + std::to_string(parallel ? c.illum_groups * c.tree_ranks
                                                 : 1) +
             ",\"threads_per_rank\":" + std::to_string(threads) + "}");
  r.note("config", "{\"nx\":" + std::to_string(c.nx) + ",\"tx\":" +
                       std::to_string(kNumTx) + ",\"rx\":" +
                       std::to_string(kNumRx) + ",\"backend\":" +
                       json_string(backend_name(c.backend)) +
                       ",\"residual_tol\":" + json_number(c.residual_tol) +
                       ",\"max_iterations\":" +
                       std::to_string(c.max_iterations) + "}");

  const Inputs in(c, args.seed);

  // 2x2 output check: the serial driver on the same inputs and options.
  std::optional<DbimResult> serial_ref;
  if (parallel) {
    set_num_threads(thread_budget());
    SerialRuntime rt(c, in);
    serial_ref = rt.reconstruct(c, in).result;
    set_num_threads(threads);
  }
  double parallel_diff = 0.0;
  const auto check_parallel = [&](const Outcome& o) {
    if (!serial_ref) return;
    const double diff = image_rmse(o.result.contrast, serial_ref->contrast);
    parallel_diff = std::max(parallel_diff, diff);
    r.check(diff <= ref.parallel_rmse_tol,
            "2x2 image differs from the serial driver by relative RMSE " +
                json_number(diff));
  };

  std::vector<double> times, rmses, setups, engine_s, trx_s, cbs_s;
  std::vector<double> first_trajectory;
  Layers layers;
  const auto record = [&](const SetupTimes& st) {
    setups.push_back(st.total);
    engine_s.push_back(st.engine);
    trx_s.push_back(st.transceivers);
    cbs_s.push_back(st.cbs_tables);
  };
  const auto finish = [&](const Outcome& o) {
    ++r.attempted;
    if (!o.reached) ++r.failed;
    check_against_reference(r, ref, o);
    check_parallel(o);
    times.push_back(o.seconds);
    rmses.push_back(o.rmse);
    if (first_trajectory.empty()) {
      first_trajectory = o.result.history.relative_residual;
    }
  };
  // One round: set up, reconstruct, check. `traced` records the layer
  // split of this round; tracing starts before set-up so that set-up
  // counters (FFT plans, table builds) land in it.
  const auto measure = [&](auto& rt, bool traced, auto&& split) {
    record(rt.times);
    const Outcome o = rt.reconstruct(c, in);
    if (traced) {
      stop_trace();
      const SpanLedger led = SpanLedger::collect();
      r.check(led.dropped == 0, "trace ring dropped events");
      layers = split(rt, led);
      layers.dbim_iterations =
          static_cast<double>(o.result.history.relative_residual.size());
    }
    finish(o);
  };
  const auto round = [&](bool traced) {
    if (traced) start_trace();
    if (parallel) {
      ParallelRuntime rt(c, in);
      measure(rt, traced, [&](ParallelRuntime& p, const SpanLedger& led) {
        return parallel_layers(p, c, led);
      });
    } else {
      SerialRuntime rt(c, in);
      measure(rt, traced, serial_layers);
    }
  };

  const Clock window;
  if (args.trace) {
    round(false);
    round(true);
  } else {
    // Rounds until the window is used: start another only if it is
    // expected to end no later than half a round past the window.
    do {
      round(false);
    } while (window.seconds() + 0.5 * median(times) <= args.seconds);
  }
  // At least kSetupSamples set-up samples per run, for a steady median.
  while (setups.size() < kSetupSamples) {
    record(parallel ? ParallelRuntime(c, in).times
                    : SerialRuntime(c, in).times);
  }

  if (parallel) {
    r.note("parallel_vs_serial_rmse", json_number(parallel_diff));
  }
  r.note("time_to_target_samples_s", json_array(times));
  r.note("setup_samples_s", json_array(setups));
  r.note("residuals", json_array(first_trajectory));
  r.note("image_rmse_samples", json_array(rmses));
  if (args.trace) {
    layers.setup_engine_s = median(engine_s);
    layers.setup_transceivers_s = median(trx_s);
    layers.setup_cbs_tables_s = median(cbs_s);
    layers.trace_overhead = times[1] / times[0];
    layers.failed_frac =
        static_cast<double>(r.failed) / static_cast<double>(r.attempted);
    emit(r, layers);
  } else {
    EndToEnd e;
    e.time_to_target_s = median(times);
    e.time_to_target_p90_s = percentile(times, 0.9);
    e.image_rmse = median(rmses);
    e.setup_s = median(setups);
    e.peak_rss_mib = peak_rss_mib();
    emit(r, e);
  }
  return r;
}

}  // namespace

Result run_mlfma_serial(const Args& args) {
  const ReconConfig c{128, BackendKind::kMlfma,
                      kMlfmaSerialRef.cap, kMlfmaSerialRef.target};
  return run_recon(c, kMlfmaSerialRef, args);
}

Result run_cbs_auto(const Args& args) {
  const ReconConfig c{256, BackendKind::kAuto, kCbsAutoRef.cap,
                      kCbsAutoRef.target};
  return run_recon(c, kCbsAutoRef, args);
}

Result run_mlfma_2x2(const Args& args) {
  ReconConfig c{128, BackendKind::kMlfma, kMlfma2x2Ref.cap,
                kMlfma2x2Ref.target};
  c.illum_groups = 2;
  c.tree_ranks = 2;
  return run_recon(c, kMlfma2x2Ref, args);
}

}  // namespace perfbench
