// The benchmark's metric catalogue: one struct per metric family, one
// emitter each, so every workload prints exactly the same names and
// units (BENCHMARK.json lists the same set). A layer a workload does not
// exercise reports 0.
#pragma once

#include "common.hpp"

namespace perfbench {

/// End-to-end metrics, measured with tracing off.
struct EndToEnd {
  /// Median over the run's reconstructions of the wall time from the
  /// first DBIM step to the iterate that met the residual target; for
  /// the service, median job latency from due time to observed terminal.
  double time_to_target_s = 0.0;
  /// Nearest-rank 90th percentile of the same samples.
  double time_to_target_p90_s = 0.0;
  /// Median relative image RMSE against the truth at the stopping iterate.
  double image_rmse = 0.0;
  /// Median set-up time (engine, tables, transceivers, stepper / service /
  /// VCluster construction); input synthesis excluded.
  double setup_s = 0.0;
  double peak_rss_mib = 0.0;
};

inline void emit(Result& r, const EndToEnd& e) {
  r.metric("time_to_target_s", e.time_to_target_s, "s");
  r.metric("time_to_target_p90_s", e.time_to_target_p90_s, "s");
  r.metric("image_rmse", e.image_rmse, "ratio");
  r.metric("setup_s", e.setup_s, "s");
  r.metric("peak_rss_mib", e.peak_rss_mib, "MiB");
}

/// Per-layer metrics of one traced reconstruction (or, for the service,
/// one traced open-loop window). Seconds of multi-rank workloads are
/// rank-seconds divided by the rank count.
struct Layers {
  double dbim_iterations = 0, dbim_iteration_s = 0;
  double dbim_residual_pass_s = 0, dbim_gradient_pass_s = 0,
         dbim_step_pass_s = 0;
  double forward_bicgstab_iters = 0, forward_solves = 0,
         forward_operator_applications = 0;
  double forward_precond_setup_s = 0, forward_precond_apply_s = 0,
         forward_krylov_other_s = 0;
  double forward_cbs_iters = 0, forward_cbs_solve_s = 0;
  double fft_time_s = 0, fft_plan_hits = 0, fft_plan_misses = 0;
  double mlfma_expand_s = 0, mlfma_aggregate_s = 0, mlfma_translate_s = 0,
         mlfma_disaggregate_s = 0, mlfma_local_expand_s = 0,
         mlfma_nearfield_s = 0, mlfma_applications = 0,
         mlfma_table_bytes = 0;
  double vcluster_wire_bytes = 0, vcluster_messages = 0,
         vcluster_halo_wait_s = 0, vcluster_compute_s = 0;
  double service_queue_wait_p50_s = 0, service_queue_wait_p90_s = 0,
         service_compute_p50_s = 0, service_build_s = 0, service_steps = 0,
         service_cache_hit_rate = 0, service_cache_build_s = 0,
         service_cache_evictions = 0, service_generator_lag_s = 0;
  double setup_engine_s = 0, setup_transceivers_s = 0,
         setup_cbs_tables_s = 0;
  double trace_coverage = 0, trace_overhead = 0;
  double failed_frac = 0;
};

inline void emit(Result& r, const Layers& l) {
  r.metric("dbim.iterations", l.dbim_iterations, "count");
  r.metric("dbim.iteration_s", l.dbim_iteration_s, "s");
  r.metric("dbim.residual_pass_s", l.dbim_residual_pass_s, "s");
  r.metric("dbim.gradient_pass_s", l.dbim_gradient_pass_s, "s");
  r.metric("dbim.step_pass_s", l.dbim_step_pass_s, "s");
  r.metric("forward.bicgstab_iters", l.forward_bicgstab_iters, "count");
  r.metric("forward.solves", l.forward_solves, "count");
  r.metric("forward.operator_applications", l.forward_operator_applications,
           "count");
  r.metric("forward.precond_setup_s", l.forward_precond_setup_s, "s");
  r.metric("forward.precond_apply_s", l.forward_precond_apply_s, "s");
  r.metric("forward.krylov_other_s", l.forward_krylov_other_s, "s");
  r.metric("forward.cbs_iters", l.forward_cbs_iters, "count");
  r.metric("forward.cbs_solve_s", l.forward_cbs_solve_s, "s");
  r.metric("fft.time_s", l.fft_time_s, "s");
  r.metric("fft.plan_hits", l.fft_plan_hits, "count");
  r.metric("fft.plan_misses", l.fft_plan_misses, "count");
  r.metric("mlfma.expand_s", l.mlfma_expand_s, "s");
  r.metric("mlfma.aggregate_s", l.mlfma_aggregate_s, "s");
  r.metric("mlfma.translate_s", l.mlfma_translate_s, "s");
  r.metric("mlfma.disaggregate_s", l.mlfma_disaggregate_s, "s");
  r.metric("mlfma.local_expand_s", l.mlfma_local_expand_s, "s");
  r.metric("mlfma.nearfield_s", l.mlfma_nearfield_s, "s");
  r.metric("mlfma.applications", l.mlfma_applications, "count");
  r.metric("mlfma.table_bytes", l.mlfma_table_bytes, "bytes");
  r.metric("vcluster.wire_bytes", l.vcluster_wire_bytes, "bytes");
  r.metric("vcluster.messages", l.vcluster_messages, "count");
  r.metric("vcluster.halo_wait_s", l.vcluster_halo_wait_s, "s");
  r.metric("vcluster.compute_s", l.vcluster_compute_s, "s");
  r.metric("service.queue_wait_p50_s", l.service_queue_wait_p50_s, "s");
  r.metric("service.queue_wait_p90_s", l.service_queue_wait_p90_s, "s");
  r.metric("service.compute_p50_s", l.service_compute_p50_s, "s");
  r.metric("service.build_s", l.service_build_s, "s");
  r.metric("service.steps", l.service_steps, "count");
  r.metric("service.cache_hit_rate", l.service_cache_hit_rate, "ratio");
  r.metric("service.cache_build_s", l.service_cache_build_s, "s");
  r.metric("service.cache_evictions", l.service_cache_evictions, "count");
  r.metric("service.generator_lag_s", l.service_generator_lag_s, "s");
  r.metric("setup.engine_s", l.setup_engine_s, "s");
  r.metric("setup.transceivers_s", l.setup_transceivers_s, "s");
  r.metric("setup.cbs_tables_s", l.setup_cbs_tables_s, "s");
  r.metric("trace.coverage", l.trace_coverage, "ratio");
  r.metric("trace.overhead", l.trace_overhead, "ratio");
  r.metric("failed_frac", l.failed_frac, "ratio");
}

}  // namespace perfbench
