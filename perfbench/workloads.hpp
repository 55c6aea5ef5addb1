// The four workloads. Each runs as one process and fills one Result:
// end-to-end metrics with tracing off, per-layer metrics with --trace 1.
#pragma once

#include "common.hpp"

namespace perfbench {

struct Workload {
  const char* name;
  /// Why the workload exists: the layer it stresses and the change it
  /// guards (also printed in the run's info line).
  const char* why;
  Result (*run)(const Args&);
};

Result run_mlfma_serial(const Args& args);
Result run_cbs_auto(const Args& args);
Result run_mlfma_2x2(const Args& args);
Result run_service_mix(const Args& args);

inline constexpr Workload kWorkloads[] = {
    {"mlfma_serial",
     "the paper's algorithm as the README quickstart runs it: MLFMA, "
     "Krylov and the preconditioner carry the time",
     run_mlfma_serial},
    {"cbs_auto",
     "weak contrast routed by kAuto to the FFT Born series: FFT carries "
     "the time, MLFMA applies nothing; the control for MLFMA changes",
     run_cbs_auto},
    {"mlfma_2x2",
     "the paper's 2-D decomposition on 2 illumination groups x 2 sub-tree "
     "ranks: the only workload with halo exchange and allreduces",
     run_mlfma_2x2},
    {"service_mix",
     "open-loop tenants on the reconstruction service: admission, "
     "fair-share stepping and the table cache carry the latency",
     run_service_mix},
};

}  // namespace perfbench
