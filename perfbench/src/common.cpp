#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <numeric>
#include <thread>

#include "exp/campaign.hpp"
#include "exp/testbeds.hpp"
#include "kernels/kernels.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define PERFBENCH_PAUSE() _mm_pause()
#else
#define PERFBENCH_PAUSE() \
  do {                    \
  } while (false)
#endif

namespace perfbench {

void spin_until(std::uint64_t t_ns) {
  while (now_ns() < t_ns) PERFBENCH_PAUSE();
}

void wait_until(std::uint64_t t_ns) {
  constexpr std::uint64_t kWakeMarginNs = 150000;  // covers a timer wake-up
  const std::uint64_t now = now_ns();
  if (t_ns > now + 2 * kWakeMarginNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now - kWakeMarginNs));
  }
  spin_until(t_ns);
}

double Samples::pct(double p) const {
  if (v_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  const double rank = std::ceil(p * static_cast<double>(v_.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v_[std::min(i, v_.size() - 1)];
}

double Samples::mean() const { return v_.empty() ? 0.0 : sum() / static_cast<double>(v_.size()); }

double Samples::sum() const { return std::accumulate(v_.begin(), v_.end(), 0.0); }

void Windowed::add(double t_s, double x) {
  const auto w = static_cast<std::size_t>(std::max(0.0, t_s) / window_s_);
  if (w >= by_window_.size()) by_window_.resize(w + 1);
  by_window_[w].add(x);
  all_.add(x);
}

double Windowed::pct(double p, double q) const {
  Samples per_window;
  for (const Samples& s : by_window_) {
    if (!s.empty()) per_window.add(s.pct(p));
  }
  return per_window.pct(q);
}

std::size_t Windowed::windows() const {
  return static_cast<std::size_t>(std::count_if(by_window_.begin(), by_window_.end(),
                                                [](const Samples& s) { return !s.empty(); }));
}

WindowCounts::WindowCounts(std::uint64_t t0_ns, double duration_s) : t0_ns_(t0_ns) {
  const auto n = static_cast<std::size_t>(std::max(1.0, std::round(duration_s / kWindowS)));
  window_ns_ = std::max<std::uint64_t>(1, static_cast<std::uint64_t>(duration_s * 1e9) / n);
  counts_.assign(n, 0);
}

void WindowCounts::add(std::uint64_t end_ns, std::uint64_t items) {
  if (end_ns < t0_ns_) return;
  const std::uint64_t w = (end_ns - t0_ns_) / window_ns_;
  if (w < counts_.size()) counts_[w] += items;
}

void WindowCounts::merge(const WindowCounts& other) {
  for (std::size_t w = 0; w < counts_.size() && w < other.counts_.size(); ++w) {
    counts_[w] += other.counts_[w];
  }
}

double WindowCounts::rate(double q) const {
  Samples per_window;
  for (const std::uint64_t c : counts_) {
    per_window.add(static_cast<double>(c) / (static_cast<double>(window_ns_) * 1e-9));
  }
  return per_window.pct(q);
}

namespace {

std::uint64_t cpu_clock_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace

std::uint64_t process_cpu_ns() { return cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

std::uint64_t thread_cpu_ns() { return cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID); }

void Outcome::fail(const std::string& why) {
  correct = false;
  if (failures.size() < 8) failures.push_back(why);
}

std::string fmt(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  return buf;
}

std::vector<std::uint64_t> poisson_arrivals(double rate, double duration_s, util::RngStream rng) {
  std::vector<std::uint64_t> due;
  due.reserve(static_cast<std::size_t>(rate * duration_s * 1.1) + 16);
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= duration_s) break;
    due.push_back(static_cast<std::uint64_t>(t * 1e9));
  }
  return due;
}

void LoadAccount::add_lanes(Lane& main, Lane& sync) {
  lag_us = std::move(main.lag_us);
  sync_lag_us = std::move(sync.lag_us);
  sent = main.sent + sync.sent;
  ok = main.ok + sync.ok;
  failed = main.failed + sync.failed;
}

void LoadAccount::report(Outcome& out, const char* tag) const {
  out.note(fmt("phase open%-17s sent %9llu  ok %9llu  failed %llu  offered %.0f/s  achieved %.0f/s",
               tag, static_cast<unsigned long long>(sent), static_cast<unsigned long long>(ok),
               static_cast<unsigned long long>(failed), offered_per_s,
               static_cast<double>(sent) / open_s));
  out.note(fmt("  generator lag p99: main lane %.2f us, sync lane %.2f us over the phase; "
               "%.2f us, %.2f us median over %zu windows",
               lag_us.pct_all(0.99), sync_lag_us.pct_all(0.99), lag_us.pct(0.99),
               sync_lag_us.pct(0.99), lag_us.windows()));
}

void LoadAccount::record(Outcome& out) const {
  // The main lane's lag: it bounds how late the requests behind p50_us
  // went out. The synchronous lane sleeps between its sparse events, so
  // its lag also holds the host's timer wake-up; the report prints it.
  out.set("loadgen.lag_p99_us", lag_us.pct(0.99), "us");
  out.set("loadgen.offered_per_s", offered_per_s, "1/s");
  out.set("loadgen.achieved_per_s", static_cast<double>(sent) / open_s, "1/s");
}

void ClosedLoop::report(Outcome& out, const char* phase) const {
  out.note(fmt("phase %-21s sent %9llu  ok %9llu  failed %llu  achieved %.0f/s (windows: min "
               "%.0f/s, median %.0f/s, upper decile %.0f/s), %.0f per CPU-second",
               phase, static_cast<unsigned long long>(items),
               static_cast<unsigned long long>(items - failed),
               static_cast<unsigned long long>(failed), static_cast<double>(items) / wall_s,
               windows.rate(0.0), windows.rate(0.5), windows.rate(1.0 - kQuietQuantile),
               static_cast<double>(items) / cpu_s));
}

ClosedLoop run_closed_loop(std::size_t clients, double duration_s,
                           const std::function<Round(std::size_t, std::uint64_t)>& round) {
  std::vector<Round> tally(clients);
  std::vector<std::uint64_t> ends(clients, 0);
  const std::uint64_t cpu0 = process_cpu_ns();
  const std::uint64_t t0 = now_ns();
  const std::uint64_t stop = t0 + static_cast<std::uint64_t>(duration_s * 1e9);
  std::vector<WindowCounts> windows(clients, WindowCounts(t0, duration_s));
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < clients; ++k) {
    threads.emplace_back([&, k] {
      std::uint64_t i = 0;
      for (std::uint64_t now = now_ns(); now < stop; ++i) {
        const Round r = round(k, i);
        tally[k].items += r.items;
        tally[k].failed += r.failed;
        now = now_ns();
        windows[k].add(now, r.items - r.failed);
      }
      ends[k] = now_ns();
    });
  }
  for (std::thread& t : threads) t.join();
  ClosedLoop loop;
  loop.cpu_s = static_cast<double>(process_cpu_ns() - cpu0) * 1e-9;
  loop.wall_s = static_cast<double>(*std::max_element(ends.begin(), ends.end()) - t0) * 1e-9;
  loop.windows = WindowCounts(t0, duration_s);
  for (std::size_t k = 0; k < clients; ++k) {
    loop.items += tally[k].items;
    loop.failed += tally[k].failed;
    loop.windows.merge(windows[k]);
  }
  return loop;
}

void record_throughput(Outcome& out, const ClosedLoop& cpu, const ClosedLoop& wall) {
  out.set("throughput_per_s", wall.windows.rate(1.0 - kQuietQuantile), "1/s");
  out.set("throughput_per_cpu_s", static_cast<double>(cpu.items - cpu.failed) / cpu.cpu_s, "1/s");
  out.set("caller.throughput_per_s", static_cast<double>(cpu.items - cpu.failed) / cpu.wall_s,
          "1/s");
}

FittedModel fit_fast_campaign(std::uint64_t seed) {
  util::set_log_level(util::LogLevel::kWarn);
  const exp::CampaignResult campaign =
      exp::run_campaign(exp::testbed_m(), exp::fast_campaign_options(), seed);
  auto [train, test] = campaign.dataset.split_stratified(0.2, seed);
  auto model = std::make_shared<core::Wavm3Model>();
  model->fit(train);
  return FittedModel{std::move(model), std::move(test)};
}

std::shared_ptr<const core::Wavm3Model> scaled_model(const core::Wavm3Model& model, double rel) {
  auto out = std::make_shared<core::Wavm3Model>(model);
  const double k = 1.0 + rel;
  const auto scale_phase = [k](core::PhaseCoefficients& p) {
    p.alpha *= k;
    p.beta *= k;
    p.gamma *= k;
    p.delta *= k;
    p.c *= k;
  };
  for (const migration::MigrationType type : model.fitted_types()) {
    core::Wavm3Coefficients table = model.coefficients(type);
    for (core::RoleCoefficients* role : {&table.source, &table.target}) {
      scale_phase(role->initiation);
      scale_phase(role->transfer);
      scale_phase(role->activation);
    }
    out->set_coefficients(type, table);
  }
  return out;
}

Answer make_answer(std::uint32_t scenario, std::uint32_t v_lo, std::uint32_t v_hi,
                   const core::MigrationForecast& fc) {
  Answer a;
  a.scenario = scenario;
  a.v_lo = v_lo;
  a.v_hi = v_hi;
  a.rounds = fc.precopy_rounds;
  a.source_j = fc.source_energy;
  a.target_j = fc.target_energy;
  a.me_s = fc.times.me;
  a.bytes = fc.total_bytes;
  a.downtime_s = fc.downtime;
  return a;
}

namespace {

bool same_forecast(const Answer& a, const core::MigrationForecast& ref) {
  const auto eq = [](double x, double y) { return std::memcmp(&x, &y, sizeof x) == 0; };
  return eq(a.source_j, ref.source_energy) && eq(a.target_j, ref.target_energy) &&
         eq(a.me_s, ref.times.me) && eq(a.bytes, ref.total_bytes) &&
         eq(a.downtime_s, ref.downtime) && a.rounds == ref.precopy_rounds;
}

}  // namespace

std::uint64_t check_answers(const std::vector<Answer>& answers,
                            const std::vector<core::MigrationScenario>& scenarios,
                            const std::vector<std::shared_ptr<const core::Wavm3Model>>& reference,
                            const char* what, Outcome& out) {
  std::uint64_t bad = 0;
  for (const Answer& a : answers) {
    const core::MigrationScenario& sc = scenarios[a.scenario];
    bool ok = false;
    for (std::uint32_t v = a.v_lo; v <= a.v_hi && v < reference.size() && !ok; ++v) {
      ok = same_forecast(a, core::MigrationPlanner(*reference[v]).forecast(sc));
    }
    if (!ok) {
      if (bad == 0) {
        out.fail(fmt("%s: answer for scenario %u (versions %u..%u) is not bit-identical to "
                     "core::MigrationPlanner::forecast",
                     what, a.scenario, a.v_lo, a.v_hi));
      }
      ++bad;
    }
  }
  if (bad > 0) out.fail(fmt("%s: %llu of %zu answers mismatched", what,
                            static_cast<unsigned long long>(bad), answers.size()));
  return bad;
}

bool rel_close(double a, double b, double tol) {
  return std::isfinite(a) && std::isfinite(b) && std::abs(a - b) <= tol * std::abs(b);
}

std::vector<std::shared_ptr<const core::Wavm3Model>> coefficient_versions(
    const core::Wavm3Model& base, std::size_t count, double rel) {
  std::vector<std::shared_ptr<const core::Wavm3Model>> v;
  for (std::size_t k = 0; k < count; ++k) {
    v.push_back(scaled_model(base, 1e-3 * static_cast<double>(k) + rel));
  }
  return v;
}

namespace {

/// Repeats `pass` (one sweep over `n` items) until ~`budget_s` has
/// elapsed; returns ns per item.
double time_per_item(std::size_t n, double budget_s, const std::function<void()>& pass) {
  if (n == 0) return 0.0;
  pass();  // warm caches and lazy set-up
  std::uint64_t items = 0;
  const std::uint64_t t0 = now_ns();
  do {
    pass();
    items += n;
  } while (since_s(t0) < budget_s);
  return static_cast<double>(now_ns() - t0) / static_cast<double>(items);
}

volatile double g_sink = 0.0;

double probe_forecast_ns(const core::Wavm3Model& model,
                         const std::vector<core::MigrationScenario>& scenarios) {
  const core::MigrationPlanner planner(model);
  return time_per_item(scenarios.size(), 0.05, [&] {
    double acc = 0.0;
    for (const core::MigrationScenario& sc : scenarios) acc += planner.forecast(sc).source_energy;
    g_sink = acc;
  });
}

double probe_timings_ns(const std::vector<core::MigrationScenario>& scenarios) {
  return time_per_item(scenarios.size(), 0.05, [&] {
    double acc = 0.0;
    for (const core::MigrationScenario& sc : scenarios) acc += core::forecast_timings(sc).times.me;
    g_sink = acc;
  });
}

double probe_apply_ns_per_row(std::uint64_t seed) {
  constexpr std::size_t kRows = 64;
  constexpr std::size_t kCols = 11;
  util::RngStream rng(util::splitmix64(seed ^ 0x6b65726eULL));
  std::vector<std::vector<double>> cols(kCols, std::vector<double>(kRows));
  for (auto& c : cols) {
    for (double& x : c) x = rng.uniform(0.0, 100.0);
  }
  std::vector<double> coeffs(kCols);
  for (double& c : coeffs) c = rng.uniform(-2.0, 2.0);
  std::vector<std::span<const double>> views(cols.begin(), cols.end());
  std::vector<double> out(kRows);
  return time_per_item(kRows, 0.05, [&] {
    for (int i = 0; i < 64; ++i) {
      kernels::apply_design_matrix(views, coeffs, 1.5, out);
      g_sink = out[static_cast<std::size_t>(i)];
    }
  }) / 64.0;
}

}  // namespace

void record_core_and_kernel_probes(Outcome& out, const core::Wavm3Model& model,
                                   const std::vector<core::MigrationScenario>& scenarios,
                                   std::uint64_t seed) {
  out.set("core.forecast_ns", probe_forecast_ns(model, scenarios), "ns");
  out.set("core.timings_ns", probe_timings_ns(scenarios), "ns");
  out.set("kernels.apply_ns_per_row", probe_apply_ns_per_row(seed), "ns");
  const kernels::Backend backend = kernels::active_backend();
  out.set("kernels.backend_avx2", backend == kernels::Backend::kAvx2 ? 1.0 : 0.0, "count");
  out.note(fmt("kernels backend: %s (%s)", kernels::to_string(backend),
               kernels::cpu_features().c_str()));
}

double median_seconds(int reps, const std::function<void()>& body) {
  Samples s;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t t0 = now_ns();
    body();
    s.add(since_s(t0));
  }
  return s.pct(0.5);
}

std::map<std::string, SpanTotals> span_totals(const std::vector<obs::TraceEvent>& events) {
  std::map<std::string, SpanTotals> totals;
  // Group complete events by (pid, tid); within a thread, spans nest.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<const obs::TraceEvent*>> threads;
  for (const obs::TraceEvent& e : events) {
    if (e.phase == obs::EventPhase::kComplete && e.pid == obs::kWallPid) {
      threads[{e.pid, e.tid}].push_back(&e);
    }
  }
  for (auto& [key, evs] : threads) {
    // Parents first: earlier start, and the longer span on a tie.
    std::sort(evs.begin(), evs.end(), [](const obs::TraceEvent* a, const obs::TraceEvent* b) {
      return a->ts_ns != b->ts_ns ? a->ts_ns < b->ts_ns : a->dur_ns > b->dur_ns;
    });
    struct Open {
      const obs::TraceEvent* ev;
      double child_ns;
    };
    std::vector<Open> stack;
    const auto close = [&](const Open& o) {
      SpanTotals& t = totals[std::string(o.ev->category) + "/" + o.ev->name];
      ++t.count;
      t.total_ns += static_cast<double>(o.ev->dur_ns);
      t.self_ns += std::max(0.0, static_cast<double>(o.ev->dur_ns) - o.child_ns);
    };
    for (const obs::TraceEvent* e : evs) {
      while (!stack.empty() && stack.back().ev->ts_ns + stack.back().ev->dur_ns <= e->ts_ns) {
        close(stack.back());
        stack.pop_back();
      }
      if (!stack.empty()) stack.back().child_ns += static_cast<double>(e->dur_ns);
      stack.push_back({e, 0.0});
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
  return totals;
}

void trace_begin() {
  obs::Tracer& tr = obs::tracer();
  tr.set_enabled(false);
  tr.clear();
  tr.set_enabled(true);
}

std::vector<obs::TraceEvent> trace_end(Outcome& out, const std::string& workload) {
  obs::Tracer& tr = obs::tracer();
  tr.set_enabled(false);
  std::vector<obs::TraceEvent> events = tr.drain();
  const std::string dir = ".bench_out";
  const std::string path = dir + "/" + workload + ".trace.json";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (tr.write_chrome_trace(path)) out.note("chrome trace: " + path);
  out.set("obs.spans_dropped", static_cast<double>(tr.dropped()), "count");
  out.note("layer self time (traced run, retained spans):");
  out.note(fmt("  %-28s %10s %14s %14s", "span", "count", "total ms", "self ms"));
  for (const auto& [name, t] : span_totals(events)) {
    out.note(fmt("  %-28s %10llu %14.3f %14.3f", name.c_str(),
                 static_cast<unsigned long long>(t.count), t.total_ns * 1e-6, t.self_ns * 1e-6));
  }
  return events;
}

}  // namespace perfbench
