#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common/rng.hpp"
#include "forward/forward.hpp"
#include "greens/transceivers.hpp"
#include "grid/quadtree.hpp"
#include "mlfma/engine.hpp"
#include "phantom/phantom.hpp"
#include "phantom/setup.hpp"

namespace perfbench {

int nproc() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

int thread_budget() { return std::min(nproc(), 4); }

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  check_failures.push_back(what);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  (void)ec;
  return std::string(buf, end);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {
struct Ellipse {
  double value, a, b, x0, y0, phi_deg;
};
// Shepp & Logan (1974) on the unit square [-1, 1]^2.
constexpr Ellipse kSheppLogan[] = {
    {2.0, 0.69, 0.92, 0.0, 0.0, 0.0},
    {-0.98, 0.6624, 0.8740, 0.0, -0.0184, 0.0},
    {-0.02, 0.1100, 0.3100, 0.22, 0.0, -18.0},
    {-0.02, 0.1600, 0.4100, -0.22, 0.0, 18.0},
    {0.01, 0.2100, 0.2500, 0.0, 0.35, 0.0},
    {0.01, 0.0460, 0.0460, 0.0, 0.10, 0.0},
    {0.01, 0.0460, 0.0460, 0.0, -0.10, 0.0},
    {0.01, 0.0460, 0.0230, -0.08, -0.605, 0.0},
    {0.01, 0.0230, 0.0230, 0.0, -0.606, 0.0},
    {0.01, 0.0230, 0.0460, 0.06, -0.605, 0.0},
};
}  // namespace

cvec seeded_shepp_logan(const ffw::Grid& grid, double max_contrast,
                        std::uint64_t seed) {
  ffw::Rng rng(ffw::mix_seed(seed, 0x5eedu));
  std::vector<Ellipse> ellipses(std::begin(kSheppLogan),
                                std::end(kSheppLogan));
  for (std::size_t i = 0; i < ellipses.size(); ++i) {
    Ellipse& e = ellipses[i];
    // The skull pair (0, 1) keeps its shape so the peak contrast and the
    // scattering strength stay put; the interior features move.
    if (i >= 2) {
      e.value *= rng.uniform(0.9, 1.1);
      e.a *= rng.uniform(0.95, 1.05);
      e.b *= rng.uniform(0.95, 1.05);
      e.x0 += rng.uniform(-0.02, 0.02);
      e.y0 += rng.uniform(-0.02, 0.02);
    }
  }
  const double rot = rng.uniform(0.0, 2.0 * ffw::pi);
  const double cr = std::cos(rot), sr = std::sin(rot);
  const int nx = grid.nx();
  const double scale = 0.45 * grid.domain();
  cvec out(grid.num_pixels(), ffw::cplx{});
  double peak = 0.0;
  for (int iy = 0; iy < nx; ++iy) {
    for (int ix = 0; ix < nx; ++ix) {
      const ffw::Vec2 p = grid.pixel_center(ix, iy);
      const double x = (cr * p.x + sr * p.y) / scale;
      const double y = (-sr * p.x + cr * p.y) / scale;
      double v = 0.0;
      for (const Ellipse& e : ellipses) {
        const double phi = e.phi_deg * ffw::pi / 180.0;
        const double c = std::cos(phi), s = std::sin(phi);
        const double xr = c * (x - e.x0) + s * (y - e.y0);
        const double yr = -s * (x - e.x0) + c * (y - e.y0);
        if ((xr * xr) / (e.a * e.a) + (yr * yr) / (e.b * e.b) <= 1.0)
          v += e.value;
      }
      out[grid.pixel_index(ix, iy)] = v;
      peak = std::max(peak, std::fabs(v));
    }
  }
  for (auto& v : out) v *= max_contrast / peak;
  return out;
}

Geometry ring_geometry(const ffw::Grid& grid, int num_tx, int num_rx,
                       double angle) {
  const double r = grid.domain();
  return {ffw::ring_positions(num_tx, r, angle, angle + 2.0 * ffw::pi),
          ffw::ring_positions(num_rx, r, angle, angle + 2.0 * ffw::pi)};
}

ffw::CMatrix synthesize(const ffw::Grid& grid, const Geometry& geo,
                        const cvec& delta_eps, double noise,
                        std::uint64_t noise_seed) {
  const ffw::QuadTree tree(grid);
  ffw::MlfmaEngine engine(tree);
  const ffw::Transceivers trx(grid, geo.tx, geo.rx);
  ffw::BicgstabOptions opts;
  opts.tol = 1e-9;
  ffw::ForwardSolver solver(engine, opts);
  return ffw::synthesize_measurements(
      solver, trx, ffw::contrast_from_permittivity(grid, delta_eps), noise,
      noise_seed);
}

SpanLedger SpanLedger::collect() {
  SpanLedger led;
  for (ffw::obs::ThreadSnapshot& snap : ffw::obs::snapshot()) {
    led.dropped += snap.dropped;
    auto& ev = snap.events;
    std::sort(ev.begin(), ev.end(), [](const auto& a, const auto& b) {
      return a.begin_ns != b.begin_ns ? a.begin_ns < b.begin_ns
                                      : a.depth < b.depth;
    });
    // Direct-child time per event, found with a stack of open ancestors.
    std::vector<double> child_s(ev.size(), 0.0);
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < ev.size(); ++i) {
      while (!stack.empty() && (ev[stack.back()].end_ns <= ev[i].begin_ns ||
                                ev[stack.back()].depth >= ev[i].depth)) {
        stack.pop_back();
      }
      const double dur = 1e-9 * static_cast<double>(ev[i].end_ns -
                                                    ev[i].begin_ns);
      if (!stack.empty() && ev[stack.back()].depth + 1 == ev[i].depth) {
        child_s[stack.back()] += dur;
      }
      stack.push_back(i);
    }
    for (std::size_t i = 0; i < ev.size(); ++i) {
      const double dur = 1e-9 * static_cast<double>(ev[i].end_ns -
                                                    ev[i].begin_ns);
      Entry& e = led.by_name[ev[i].name];
      e.total_s += dur;
      e.self_s += dur - child_s[i];
      e.count += 1;
      e.durations_s.push_back(dur);
    }
  }
  return led;
}

double SpanLedger::total(const std::string& name) const {
  const auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : it->second.total_s;
}

double SpanLedger::self(const std::string& name) const {
  const auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : it->second.self_s;
}

double SpanLedger::median_duration(const std::string& name) const {
  const auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : median(it->second.durations_s);
}

double counter_sum(ffw::obs::Counter c) {
  std::uint64_t sum = 0;
  for (const auto& snap : ffw::obs::snapshot()) {
    sum += snap.counters[static_cast<std::size_t>(c)];
  }
  return static_cast<double>(sum);
}

void start_trace() {
  ffw::obs::set_enabled(false);
  ffw::obs::reset();
  ffw::obs::set_ring_capacity(std::size_t{1} << 20);
  ffw::obs::set_enabled(true);
}

void stop_trace() { ffw::obs::set_enabled(false); }

}  // namespace perfbench
