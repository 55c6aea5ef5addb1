// Shared pieces of perfbench: command line, the result
// record every workload fills, seeded input synthesis, and the span
// ledger that turns the obs trace into per-layer self times.
//
// perfbench measures the library from outside: it times its own calls
// into each layer's public entry points and reads the counters and
// spans the layers already record. Input synthesis (phantom, geometry,
// the forward solve that produces the measured panel) happens before
// any timed region and is never part of a metric.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "grid/grid.hpp"
#include "linalg/cmatrix.hpp"
#include "obs/obs.hpp"

namespace perfbench {

using ffw::cvec;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Set-ups timed per run; setup_s is their median.
inline constexpr std::size_t kSetupSamples = 5;

/// Hardware threads of the machine.
int nproc();
/// Worker threads the benchmark may occupy in total: min(nproc, 4).
int thread_budget();

/// Everything one run reports. `metrics` holds name -> (value, unit) in
/// print order; `info` is free-form context (configuration, checks,
/// environment) printed on the line before the result.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::string>> info;  // raw JSON values
  std::vector<std::string> check_failures;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void note(const std::string& key, const std::string& json_value) {
    info.push_back({key, json_value});
  }
  /// Records a failed output check (the run then reports correct=false).
  void check(bool ok, const std::string& what);
};

std::string json_number(double v);
std::string json_string(const std::string& s);

// ---- statistics ----

double median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 1].
double percentile(std::vector<double> v, double p);

/// Peak resident set size of this process so far, MiB.
double peak_rss_mib();

class Clock {
 public:
  Clock() : t0_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

// ---- seeded inputs ----

/// Shepp-Logan head phantom (paper Fig. 13) with every ellipse's value,
/// centre and semi-axes jittered by a few percent from `seed` and the
/// whole head rotated by a seeded angle: one phantom family, a distinct
/// member per seed. Returns the relative permittivity contrast, peak
/// |value| normalised to `max_contrast`.
cvec seeded_shepp_logan(const ffw::Grid& grid, double max_contrast,
                        std::uint64_t seed);

/// Transmitter and receiver rings of radius = domain side, optionally
/// rotated by `angle` radians.
struct Geometry {
  std::vector<ffw::Vec2> tx, rx;
};
Geometry ring_geometry(const ffw::Grid& grid, int num_tx, int num_rx,
                       double angle = 0.0);

/// Measured scattered field (R x T) of `delta_eps` on `grid`: a forward
/// solve on the truth with a private engine at a tighter tolerance than
/// any reconstruction uses, plus seeded complex Gaussian noise of
/// relative level `noise`.
ffw::CMatrix synthesize(const ffw::Grid& grid, const Geometry& geo,
                        const cvec& delta_eps, double noise,
                        std::uint64_t noise_seed);

// ---- trace analysis ----

/// Per-span-name totals over a set of obs thread snapshots. Self time is
/// a span's duration minus the durations of its direct children (spans
/// one nesting level deeper on the same thread inside its interval).
struct SpanLedger {
  struct Entry {
    double total_s = 0.0;
    double self_s = 0.0;
    std::uint64_t count = 0;
    std::vector<double> durations_s;
  };
  std::map<std::string, Entry> by_name;
  std::uint64_t dropped = 0;

  /// Builds the ledger from every thread's recorded spans.
  static SpanLedger collect();

  double total(const std::string& name) const;
  double self(const std::string& name) const;
  /// Median duration of the spans called `name` (0 when none).
  double median_duration(const std::string& name) const;
};

/// Sum of one obs counter over every recorded thread.
double counter_sum(ffw::obs::Counter c);
/// The same for a nanosecond counter, in seconds.
inline double counter_seconds(ffw::obs::Counter c) {
  return 1e-9 * counter_sum(c);
}

/// Clears the obs buffers and turns recording on (ring capacity raised
/// so one whole reconstruction fits without drops).
void start_trace();
void stop_trace();

}  // namespace perfbench
