// service_mix: an open loop of independent tenants on the
// ReconstructionService.
//
// Jobs arrive as a seeded Poisson process at one fixed rate and are
// submitted when due no matter how far behind the service is. The rate
// keeps the 2-rank pool about a quarter busy: at half load the p90
// latency moved from seed to seed by more than the benchmark's bound on
// a shared 4-core host, because fair-share sharing starts right at the
// tail. Jobs are small (2-3 DBIM iterations), so per-job build and
// admission are a visible share of the latency. Latency runs from a
// job's due time to the first poll that sees it terminal (JobStatus
// carries no timestamps, so the benchmark polls every millisecond). The
// mix:
//   * mlfma32 — MLFMA-accelerated jobs on a shared 32^2 configuration
//     (table-cache reads);
//   * auto64  — weak-contrast kAuto jobs on a shared 64^2 configuration;
//   * newgeo  — mlfma32 jobs whose rings are rotated by a fresh angle, so
//     the cache builds a transceiver artifact beside the reads;
//   * ladder  — two-band 32 -> 64 frequency ladders (JobSpec::bands).
// The shared configurations' tables are built at set-up, the way an
// operator warms a service before opening it.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <thread>

#include "common/rng.hpp"
#include "dbim/continuation.hpp"
#include "grid/quadtree.hpp"
#include "metrics.hpp"
#include "mlfma/engine.hpp"
#include "parallel/parallel_for.hpp"
#include "phantom/phantom.hpp"
#include "service/service.hpp"
#include "vcluster/transport.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ffw;

constexpr int kRanks = 2;
/// Mean arrivals per second. With ~0.065 s of pool compute per job this
/// is ~0.26 of the 2-rank pool's capacity; over a 20 s window it gives
/// 160 jobs, so the p90 has 16 samples beyond it.
constexpr double kArrivalRate = 8.0;
constexpr int kPhantomsPerClass = 8;
constexpr int kRx = 16;
constexpr double kNoise = 1e-4;
/// Completed jobs re-run solo per window for the bit-identity check.
constexpr int kSoloChecks = 3;

struct JobClass {
  const char* name;
  double share;         // fraction of arrivals
  int nx;               // final grid (ladders: 32 then nx)
  BackendKind backend;
  bool ladder;
  bool new_geometry;
  int num_tx;
  int cap;              // DbimOptions::max_iterations (per band)
  double target;        // DbimOptions::residual_tol
};

constexpr JobClass kClasses[] = {
    {"mlfma32", 0.45, 32, BackendKind::kMlfma, false, false, 4, 5, 0.15},
    {"auto64", 0.35, 64, BackendKind::kAuto, false, false, 8, 5, 0.15},
    {"newgeo", 0.10, 32, BackendKind::kMlfma, false, true, 4, 5, 0.15},
    {"ladder", 0.10, 64, BackendKind::kAuto, true, false, 8, 4, 0.12},
};

/// (nx, transmitters) of the configurations tenants share: mlfma32,
/// auto64 and the ladders' two bands. Their tables are built at set-up.
constexpr std::pair<int, int> kSharedConfigs[] = {{32, 4}, {64, 8}, {32, 8}};
constexpr double kMaxContrast = 0.02;  // paper Fig. 13

DbimOptions job_options(const JobClass& c) {
  DbimOptions o;
  o.max_iterations = c.cap;
  o.residual_tol = c.target;
  o.backend = c.backend;
  if (c.backend == BackendKind::kMlfma) {
    o.near_precondition = true;
    o.adaptive_forcing = true;
    o.recycle_depth = 2;
  }
  return o;
}

BicgstabOptions job_forward() {
  BicgstabOptions f;
  f.tol = 1e-6;
  return f;
}

/// One arrival: when it is due, its spec, and its truth for the RMSE.
struct Arrival {
  double due = 0.0;
  int cls = 0;
  JobSpec spec;
  cvec truth;  // contrast O on the final grid
};

JobBand make_band(int nx, const Geometry& geo, const cvec& eps,
                  std::uint64_t seed) {
  JobBand b;
  b.nx = nx;
  b.transmitters = geo.tx;
  b.receivers = geo.rx;
  b.measured = synthesize(Grid(nx), geo, eps, kNoise, seed);
  return b;
}

/// The window's arrivals, synthesised before any timing.
std::vector<Arrival> make_plan(std::uint64_t seed, double seconds) {
  Rng rng(mix_seed(seed, 0xa77u));
  // Shared measured panels: kPhantomsPerClass phantoms per grid, reused
  // across arrivals (each tenant brings its own data, drawn from a pool
  // so synthesis stays small).
  struct Pooled {
    JobBand band;
    cvec truth;
  };
  std::map<std::pair<int, int>, std::vector<Pooled>> pool;
  for (const auto& [nx, tx] : kSharedConfigs) {
    const Grid g(nx);
    const Geometry geo = ring_geometry(g, tx, kRx);
    for (int p = 0; p < kPhantomsPerClass; ++p) {
      const std::uint64_t ps = mix_seed(seed, 100 + p);
      const cvec eps = seeded_shepp_logan(g, kMaxContrast, ps);
      pool[{nx, tx}].push_back(
          {make_band(nx, geo, eps, ps), contrast_from_permittivity(g, eps)});
    }
  }

  // A Poisson process conditioned on its count: N = rate * seconds
  // arrivals at sorted uniform times, and a shuffled deck with each
  // class's exact share, so seeds differ in timing and data but not in
  // offered load.
  const auto n = static_cast<std::size_t>(std::lround(kArrivalRate * seconds));
  std::vector<double> due(n);
  for (double& d : due) d = rng.uniform(0.0, seconds);
  std::sort(due.begin(), due.end());
  std::vector<int> deck;
  for (int c = 0; c < static_cast<int>(std::size(kClasses)); ++c) {
    const auto k = static_cast<std::size_t>(
        std::lround(kClasses[c].share * static_cast<double>(n)));
    for (std::size_t i = 0; i < k && deck.size() < n; ++i) deck.push_back(c);
  }
  while (deck.size() < n) deck.push_back(0);
  for (std::size_t i = deck.size(); i > 1; --i) {
    std::swap(deck[i - 1], deck[static_cast<std::size_t>(
                               rng.uniform() * static_cast<double>(i))]);
  }

  std::vector<Arrival> plan;
  for (std::size_t index = 0; index < n; ++index) {
    const int cls = deck[index];
    const double t = due[index];
    const JobClass& c = kClasses[cls];
    const int p = static_cast<int>(rng.uniform() * kPhantomsPerClass);
    Arrival a;
    a.due = t;
    a.cls = cls;
    JobSpec& s = a.spec;
    s.name = std::string(c.name) + "-" + std::to_string(index);
    s.dbim = job_options(c);
    s.forward = job_forward();
    if (c.ladder) {
      const Pooled& coarse = pool[{32, c.num_tx}][static_cast<std::size_t>(p)];
      const Pooled& fine = pool[{c.nx, c.num_tx}][static_cast<std::size_t>(p)];
      s.bands = {coarse.band, fine.band};
      s.bands[0].max_iterations = 1;
      s.nx = 64;
      a.truth = fine.truth;
    } else if (c.new_geometry) {
      // A fresh rotation: same object family, a geometry the cache has
      // never seen.
      const Grid g(c.nx);
      const Geometry geo = ring_geometry(
          g, c.num_tx, kRx, rng.uniform(0.01, 0.99) * 2.0 * pi / c.num_tx);
      const std::uint64_t ps = mix_seed(seed, 100 + p);
      const cvec eps = seeded_shepp_logan(g, kMaxContrast, ps);
      const JobBand b = make_band(c.nx, geo, eps, ps);
      s.nx = c.nx;
      s.transmitters = b.transmitters;
      s.receivers = b.receivers;
      s.measured = b.measured;
      a.truth = contrast_from_permittivity(g, eps);
    } else {
      const Pooled& src = pool[{c.nx, c.num_tx}][static_cast<std::size_t>(p)];
      s.nx = c.nx;
      s.transmitters = src.band.transmitters;
      s.receivers = src.band.receivers;
      s.measured = src.band.measured;
      a.truth = src.truth;
    }
    plan.push_back(std::move(a));
  }
  return plan;
}

/// Service runtime: table cache warmed with the shared configurations,
/// the service and its rank pool. Set-up timings in seconds.
struct ServiceRuntime {
  std::unique_ptr<OperatorTableCache> cache;
  std::unique_ptr<ReconstructionService> service;
  std::unique_ptr<VCluster> vc;
  double engine_s = 0, transceivers_s = 0, cbs_tables_s = 0, total_s = 0;
  OperatorTableCache::Stats after_setup;

  ServiceRuntime() {
    const Clock total;
    cache = std::make_unique<OperatorTableCache>();
    for (const auto& [nx, tx] : kSharedConfigs) {
      const Grid g(nx);
      {
        const Clock t;
        cache->mlfma_tables(g, QuadTree::kDefaultLeafPixelSide, MlfmaParams{});
        engine_s += t.seconds();
      }
      {
        const Clock t;
        const Geometry geo = ring_geometry(g, tx, kRx);
        cache->transceiver_tables(g, geo.tx, geo.rx);
        transceivers_s += t.seconds();
      }
      const Clock t;
      cache->cbs_tables(g);
      cbs_tables_s += t.seconds();
    }
    service = std::make_unique<ReconstructionService>(*cache);
    vc = std::make_unique<VCluster>(kRanks, make_transport("inproc", kRanks));
    total_s = total.seconds();
    after_setup = cache->stats();
  }
};

/// What the open loop observed per job.
struct Observed {
  int id = -1;
  double submitted = -1.0;
  double first_running = -1.0;
  double terminal = -1.0;
  JobStatus status;
};

struct Window {
  std::vector<Observed> jobs;
  double generator_lag_max = 0.0;
  ServiceStats stats;
  OperatorTableCache::Stats cache;
};

Window open_loop(ServiceRuntime& rt, const std::vector<Arrival>& plan) {
  ReconstructionService& service = *rt.service;
  // The service drains and returns as soon as every submitted job is
  // terminal; the runner re-enters it whenever new work is pending, and
  // exits once stop is requested and nothing is pending.
  std::jthread runner([&](std::stop_token stop) {
    for (;;) {
      const ServiceStats st = service.stats();
      if (st.completed + st.cancelled + st.failed < st.submitted) {
        service.run(*rt.vc);
      } else if (stop.stop_requested()) {
        return;
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
  });

  Window w;
  w.jobs.resize(plan.size());
  std::size_t next = 0, terminal = 0;
  const Clock clock;
  while (terminal < plan.size()) {
    double now = clock.seconds();
    while (next < plan.size() && plan[next].due <= now) {
      Observed& o = w.jobs[next];
      o.id = service.submit(plan[next].spec);
      o.submitted = clock.seconds();
      w.generator_lag_max = std::max(w.generator_lag_max,
                                     o.submitted - plan[next].due);
      ++next;
    }
    now = clock.seconds();
    for (std::size_t j = 0; j < next; ++j) {
      Observed& o = w.jobs[j];
      if (o.terminal >= 0.0) continue;
      o.status = service.status(o.id);
      if (o.status.state != JobState::kQueued && o.first_running < 0.0) {
        o.first_running = now;
      }
      if (o.status.state != JobState::kQueued &&
          o.status.state != JobState::kRunning) {
        o.terminal = now;
        ++terminal;
      }
    }
    double wake = clock.seconds() + 1e-3;
    if (next < plan.size()) {
      wake = std::min(wake, plan[next].due);
    }
    const double sleep = wake - clock.seconds();
    if (sleep > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(sleep));
    }
  }
  runner.request_stop();
  runner.join();
  w.stats = service.stats();
  w.cache = rt.cache->stats();
  return w;
}

/// The job re-run alone: fresh cache, one DbimStepper per band, the
/// service's own warm-start hand-off between bands.
DbimResult solo(const JobSpec& spec) {
  OperatorTableCache cache;
  std::vector<JobBand> bands = spec.bands;
  if (bands.empty()) {
    JobBand b;
    b.nx = spec.nx;
    b.transmitters = spec.transmitters;
    b.receivers = spec.receivers;
    b.measured = spec.measured;
    bands.push_back(std::move(b));
  }
  DbimResult res;
  cvec warm = spec.initial_contrast;
  for (std::size_t b = 0; b < bands.size(); ++b) {
    const Grid grid(bands[b].nx);
    const auto tables =
        cache.mlfma_tables(grid, spec.leaf_pixel_side, spec.mlfma);
    MlfmaEngine engine(tables);
    const auto tt = cache.transceiver_tables(grid, bands[b].transmitters,
                                             bands[b].receivers);
    DbimOptions opts = spec.dbim;
    if (bands[b].max_iterations > 0) {
      opts.max_iterations = bands[b].max_iterations;
    }
    opts.incident_panel = tt->incident();
    opts.table_cache = &cache;
    DbimStepper stepper(engine, tt->trx, bands[b].measured, opts,
                        spec.forward, warm);
    while (stepper.step()) {
    }
    res = stepper.result();
    if (b + 1 < bands.size()) {
      const Grid next(bands[b + 1].nx);
      warm = continuation_warm_start(res.contrast, bands[b].nx,
                                     bands[b + 1].nx, grid.k0() * grid.k0(),
                                     next.k0() * next.k0());
    }
  }
  return res;
}

bool bit_identical(const DbimResult& a, const DbimResult& b) {
  return a.contrast.size() == b.contrast.size() &&
         std::memcmp(a.contrast.data(), b.contrast.data(),
                     a.contrast.size() * sizeof(cplx)) == 0 &&
         a.history.relative_residual == b.history.relative_residual;
}

/// Per-layer split of a traced window. Span and counter seconds are pool
/// totals divided by the rank count.
Layers service_layers(const ServiceRuntime& rt, const Window& w,
                      const SpanLedger& led, const std::vector<double>& queue,
                      const std::vector<double>& compute) {
  const double n = kRanks;
  const auto secs = [n](obs::Counter c) { return counter_seconds(c) / n; };
  Layers l;
  for (const Observed& o : w.jobs) l.dbim_iterations += o.status.iterations;
  l.dbim_iteration_s = led.median_duration("dbim.iteration");
  l.dbim_residual_pass_s = led.self("dbim.residual_pass") / n;
  l.dbim_gradient_pass_s = led.self("dbim.gradient_pass") / n;
  l.dbim_step_pass_s = led.self("dbim.step_pass") / n;
  l.forward_bicgstab_iters = counter_sum(obs::Counter::kBicgstabTotalIters);
  l.forward_operator_applications =
      counter_sum(obs::Counter::kMlfmaApplications);
  l.forward_precond_setup_s = secs(obs::Counter::kPrecondSetupNs);
  l.forward_precond_apply_s = secs(obs::Counter::kPrecondApplyNs);
  l.forward_krylov_other_s =
      l.dbim_residual_pass_s + l.dbim_gradient_pass_s + l.dbim_step_pass_s;
  l.forward_cbs_iters = counter_sum(obs::Counter::kCbsIterations);
  l.forward_cbs_solve_s = led.total("cbs.solve") / n;
  l.fft_time_s = secs(obs::Counter::kFftNs);
  l.fft_plan_hits = counter_sum(obs::Counter::kFftPlanHits);
  l.fft_plan_misses = counter_sum(obs::Counter::kFftPlanMisses);
  l.mlfma_expand_s = led.total("mlfma.expand") / n;
  l.mlfma_aggregate_s = led.total("mlfma.aggregate") / n;
  l.mlfma_translate_s = led.total("mlfma.translate") / n;
  l.mlfma_disaggregate_s = led.total("mlfma.disaggregate") / n;
  l.mlfma_local_expand_s = led.total("mlfma.local_expand") / n;
  l.mlfma_nearfield_s = led.total("mlfma.nearfield") / n;
  l.mlfma_applications = l.forward_operator_applications;
  l.mlfma_table_bytes = static_cast<double>(w.cache.bytes);
  const TrafficStats traffic = rt.vc->traffic();
  l.vcluster_wire_bytes = static_cast<double>(traffic.total_bytes());
  l.vcluster_messages = static_cast<double>(traffic.total_messages());
  l.vcluster_halo_wait_s = secs(obs::Counter::kHaloWaitNs);
  l.vcluster_compute_s = secs(obs::Counter::kComputeNs);
  l.service_queue_wait_p50_s = median(queue);
  l.service_queue_wait_p90_s = percentile(queue, 0.9);
  l.service_compute_p50_s = median(compute);
  l.service_build_s = led.total("service.build") / n;
  l.service_steps = static_cast<double>(w.stats.steps);
  // Cache traffic of the window alone: set-up's warm builds excluded.
  const auto hits = static_cast<double>(w.cache.hits - rt.after_setup.hits);
  const auto misses =
      static_cast<double>(w.cache.misses - rt.after_setup.misses);
  if (hits + misses > 0) l.service_cache_hit_rate = hits / (hits + misses);
  l.service_cache_build_s =
      w.cache.build_seconds - rt.after_setup.build_seconds;
  l.service_cache_evictions = static_cast<double>(w.cache.evictions);
  l.service_generator_lag_s = w.generator_lag_max;
  l.setup_engine_s = rt.engine_s;
  l.setup_transceivers_s = rt.transceivers_s;
  l.setup_cbs_tables_s = rt.cbs_tables_s;
  const double iter_total = led.total("dbim.iteration");
  if (iter_total > 0.0) {
    l.trace_coverage = (iter_total - led.self("dbim.iteration") -
                        n * l.forward_krylov_other_s) /
                       iter_total;
  }
  return l;
}

}  // namespace

Result run_service_mix(const Args& args) {
  Result r;
  const int threads = std::max(1, thread_budget() / kRanks);
  set_num_threads(threads);
  r.note("threads", "{\"ranks\":" + std::to_string(kRanks) +
                        ",\"threads_per_rank\":" + std::to_string(threads) +
                        "}");
  r.note("arrival_rate_per_s", json_number(kArrivalRate));

  const std::vector<Arrival> plan = make_plan(args.seed, args.seconds);
  Rng pick(mix_seed(args.seed, 0x501u));

  std::vector<double> setups, latencies, rmses, p50_by_window;
  Layers layers;
  std::map<std::string, std::vector<double>> class_iters, class_compute;
  std::vector<std::string> failures;
  double utilization = 0.0;
  const auto window = [&](bool traced) {
    std::unique_ptr<ServiceRuntime> rt;
    for (std::size_t i = 0; i < kSetupSamples; ++i) {
      rt.reset();
      rt = std::make_unique<ServiceRuntime>();
      setups.push_back(rt->total_s);
    }
    if (traced) start_trace();
    const Window w = open_loop(*rt, plan);
    if (traced) stop_trace();

    std::vector<double> lat, queue, compute;
    for (std::size_t j = 0; j < w.jobs.size(); ++j) {
      const Observed& o = w.jobs[j];
      const Arrival& a = plan[j];
      const JobClass& c = kClasses[a.cls];
      ++r.attempted;
      const bool ok = o.status.state == JobState::kCompleted &&
                      o.status.last_residual < c.target;
      if (!ok) {
        ++r.failed;
        if (failures.size() < 5) {
          failures.push_back(
              "{\"job\":" + json_string(a.spec.name) + ",\"state\":" +
              std::to_string(static_cast<int>(o.status.state)) +
              ",\"iterations\":" + std::to_string(o.status.iterations) +
              ",\"residual\":" + json_number(o.status.last_residual) +
              ",\"error\":" + json_string(o.status.error) + "}");
        }
        continue;
      }
      lat.push_back(o.terminal - a.due);
      queue.push_back(o.first_running - a.due);
      compute.push_back(o.status.compute_seconds);
      rmses.push_back(image_rmse(rt->service->result(o.id).contrast, a.truth));
      class_iters[c.name].push_back(o.status.iterations);
      class_compute[c.name].push_back(o.status.compute_seconds);
    }
    r.check(r.failed == 0, "jobs failed or missed their residual target");
    double last = 0.0;
    for (const Observed& o : w.jobs) last = std::max(last, o.terminal);
    utilization = w.stats.compute_seconds / (kRanks * last);
    latencies.insert(latencies.end(), lat.begin(), lat.end());
    p50_by_window.push_back(median(lat));

    // Bit-identity of a seeded sample of completed jobs against solo runs.
    for (int k = 0; k < kSoloChecks && !w.jobs.empty(); ++k) {
      const std::size_t j = static_cast<std::size_t>(
          pick.uniform() * static_cast<double>(w.jobs.size()));
      if (w.jobs[j].status.state != JobState::kCompleted) continue;
      const bool same = bit_identical(
          rt->service->result(w.jobs[j].id), solo(plan[j].spec));
      r.check(same, "job " + plan[j].spec.name +
                        " differs from its solo DbimStepper run");
    }

    if (traced) {
      const SpanLedger led = SpanLedger::collect();
      r.check(led.dropped == 0, "trace ring dropped events");
      layers = service_layers(*rt, w, led, queue, compute);
      r.check(layers.service_cache_hit_rate > 0.0 &&
                  layers.service_cache_hit_rate < 1.0,
              "the window saw no cache hits or no cache misses");
    }
  };

  if (args.trace) {
    window(false);
    window(true);
    layers.trace_overhead = p50_by_window[1] / p50_by_window[0];
    layers.failed_frac =
        static_cast<double>(r.failed) / static_cast<double>(r.attempted);
    emit(r, layers);
  } else {
    window(false);
    EndToEnd e;
    e.time_to_target_s = median(latencies);
    e.time_to_target_p90_s = percentile(latencies, 0.9);
    e.image_rmse = median(rmses);
    e.setup_s = median(setups);
    e.peak_rss_mib = peak_rss_mib();
    emit(r, e);
  }

  std::string classes = "{";
  for (const JobClass& c : kClasses) {
    if (classes.size() > 1) classes += ",";
    classes += json_string(c.name) + ":{\"jobs\":" +
               std::to_string(class_iters[c.name].size()) +
               ",\"iterations_p50\":" +
               json_number(median(class_iters[c.name])) +
               ",\"compute_p50_s\":" +
               json_number(median(class_compute[c.name])) + "}";
  }
  r.note("classes", classes + "}");
  r.note("completed_jobs", std::to_string(latencies.size()));
  r.note("pool_utilization", json_number(utilization));
  std::string f = "[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    f += (i ? "," : "") + failures[i];
  }
  r.note("failed_jobs", f + "]");
  return r;
}

}  // namespace perfbench
