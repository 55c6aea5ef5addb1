// Recorded references for the reconstruction output checks, measured on
// the commit that introduced the benchmark (seeds 1-5; the largest
// deviation from these medians was 4.3 % per iterate and 0.4 % in image
// RMSE). The checks are one-sided: a run fails when it converges more
// slowly, needs more iterations or yields a worse image than recorded,
// not when it does better.
#pragma once

#include <vector>

namespace perfbench {

struct ReconReference {
  int cap;          // DbimOptions::max_iterations
  double target;    // DbimOptions::residual_tol
  double rmse;      // median image RMSE vs truth at the stopping iterate
  double rmse_rtol;
  int max_iterations;             // residual evaluations, at most
  std::vector<double> residuals;  // median relative residual per iterate
  double residual_rtol;
  double parallel_rmse_tol = 0.0;  // 2x2 vs serial image, relative RMSE
};

// Each target sits in a wide gap of the trajectory (iterates 5 and 6 are
// ~40 % on either side of it), reached at two thirds of the cap.
inline const ReconReference kMlfmaSerialRef{
    9,    0.025, 0.56330, 0.03, 7,
    {1.0, 0.302502, 0.136649, 0.0627927, 0.0416653, 0.0173472},
    0.15};

inline const ReconReference kCbsAutoRef{
    9,    0.02, 0.68810, 0.03, 7,
    {1.0, 0.334378, 0.149851, 0.0686397, 0.0337765, 0.010764},
    0.15};

/// Same inputs and options as mlfma_serial; the image must also equal the
/// serial driver's to 1e-10 (the repository's serial == parallel
/// invariant).
inline const ReconReference kMlfma2x2Ref{
    9,    0.025, 0.56330, 0.03, 7,
    {1.0, 0.302502, 0.136649, 0.0627927, 0.0416653, 0.0173472},
    0.15, 1e-10};

}  // namespace perfbench
