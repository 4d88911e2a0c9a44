// Shared machinery of the benchmark binary: clocks and open-loop
// pacing, latency samples, the result record every workload fills,
// set-up helpers (model fit, perturbed coefficient tables), layer
// probes and the self-time analysis of a drained trace.
//
// Everything here calls the program through its public headers only.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/planner.hpp"
#include "core/wavm3_model.hpp"
#include "models/dataset.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace wavm3;

// ------------------------------------------------------------ options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small sizes and short phases, for the self-test.
  bool smoke = false;
  /// Hands the correctness checkers a perturbed coefficient table; the
  /// run must then report correct = false (self-test of the gates).
  bool perturb_check = false;
};

// -------------------------------------------------------------- clock

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// Busy-waits until `t_ns` (open-loop pacing needs sub-microsecond
/// release times, which sleeping cannot give).
void spin_until(std::uint64_t t_ns);

/// Sleeps until shortly before `t_ns`, then spins: for a lane whose
/// events are sparse, so that it does not hold a core between them.
void wait_until(std::uint64_t t_ns);

/// Seconds elapsed since `t0_ns`.
inline double since_s(std::uint64_t t0_ns) { return static_cast<double>(now_ns() - t0_ns) * 1e-9; }

// ------------------------------------------------------------ samples

/// A bag of measurements with nearest-rank percentiles.
class Samples {
 public:
  void add(double x) {
    v_.push_back(x);
    sorted_ = false;
  }
  std::size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  /// Nearest-rank percentile, p in [0, 1]; 0 when empty.
  double pct(double p) const;
  double mean() const;
  double sum() const;

 private:
  mutable std::vector<double> v_;
  mutable bool sorted_ = false;
};

/// Length of the windows the end-to-end latencies and closed-loop
/// rates are taken over.
inline constexpr double kWindowS = 0.5;

/// Samples split into fixed windows of the phase's timeline. pct(p, q)
/// is the q-quantile over windows of each window's p-percentile. On a
/// shared host, episodes of contention stall whole windows; the
/// end-to-end figures take q = kQuietQuantile (lower is better), so an
/// episode covering most of a run does not move them, while a change
/// that slows every window does.
class Windowed {
 public:
  explicit Windowed(double window_s = kWindowS) : window_s_(window_s) {}
  /// `t_s`: when the sample's request was due, from the phase start.
  void add(double t_s, double x);
  double pct(double p, double q = 0.5) const;
  /// The percentile over all samples, windows ignored.
  double pct_all(double p) const { return all_.pct(p); }
  std::size_t size() const { return all_.size(); }
  std::size_t windows() const;

 private:
  double window_s_;
  std::vector<Samples> by_window_;
  Samples all_;
};

/// The quantile over windows (or waves) the end-to-end latencies take:
/// the quietest tenth of the run. Rates, where higher is better, take
/// 1 - kQuietQuantile.
inline constexpr double kQuietQuantile = 0.1;

/// Items a closed loop completed in each of the equal windows (about
/// kWindowS each, at least one) its duration splits into. Each client
/// counts into its own and the loop merges them.
class WindowCounts {
 public:
  WindowCounts(std::uint64_t t0_ns, double duration_s);
  /// Counts `items` completed at `end_ns`; after the loop's end, none.
  void add(std::uint64_t end_ns, std::uint64_t items);
  void merge(const WindowCounts& other);
  /// Items per second in the window at quantile `q` over the windows.
  double rate(double q) const;

 private:
  std::uint64_t t0_ns_;
  std::uint64_t window_ns_;
  std::vector<std::uint64_t> counts_;
};

/// CPU time consumed so far by the whole process, in ns. Throughput is
/// also counted per CPU-second: on a shared host the wall-clock rate of
/// a closed loop follows the CPU share the host grants the process,
/// which varied threefold between runs on the measurement host. The
/// wall-clock rate still counts, because only it falls when a change
/// costs concurrency (clients sleeping on a lock use no CPU).
std::uint64_t process_cpu_ns();
/// CPU time consumed so far by the calling thread, in ns.
std::uint64_t thread_cpu_ns();

// ------------------------------------------------------------- result

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;  ///< end-to-end and per-layer, by name
  std::vector<std::string> notes;         ///< human-readable report lines
  std::vector<std::string> failures;      ///< correctness-gate findings

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(const std::string& line) { notes.push_back(line); }
  /// Records a correctness-gate failure (kept to the first few).
  void fail(const std::string& why);
};

/// printf into a std::string.
std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));


// ------------------------------------------------------------- set-up

/// The model every workload prices with: WAVM3 fitted on a 20%
/// stratified split of the fast campaign on testbed m, plus the
/// held-out observations (the live sessions' sample trails).
struct FittedModel {
  std::shared_ptr<const core::Wavm3Model> model;
  models::Dataset held_out;
};

FittedModel fit_fast_campaign(std::uint64_t seed);

/// `model` with every coefficient scaled by (1 + rel): a distinct
/// coefficient version for swaps/publishes, or (tiny rel) the
/// perturbed reference the self-test feeds the checkers.
std::shared_ptr<const core::Wavm3Model> scaled_model(const core::Wavm3Model& model, double rel);

/// The fields of a forecast answer the correctness gates compare,
/// kept compactly so a run can hold every answer until it is checked.
struct Answer {
  std::uint32_t scenario = 0;  ///< index into the workload's scenario list
  std::uint32_t v_lo = 0;      ///< coefficient versions live between send
  std::uint32_t v_hi = 0;      ///< and completion (inclusive)
  std::int32_t rounds = 0;
  double source_j = 0.0;
  double target_j = 0.0;
  double me_s = 0.0;
  double bytes = 0.0;
  double downtime_s = 0.0;
};

Answer make_answer(std::uint32_t scenario, std::uint32_t v_lo, std::uint32_t v_hi,
                   const core::MigrationForecast& fc);

/// Checks every answer bit for bit (a cache or a fast path may not
/// change a single ulp) against core::MigrationPlanner::forecast under
/// one of the versions in [v_lo, v_hi] of `reference`. Records
/// failures in `out`; returns the number of mismatches.
std::uint64_t check_answers(const std::vector<Answer>& answers,
                            const std::vector<core::MigrationScenario>& scenarios,
                            const std::vector<std::shared_ptr<const core::Wavm3Model>>& reference,
                            const char* what, Outcome& out);

/// |a - b| <= tol * |b| (and both finite).
bool rel_close(double a, double b, double tol);

/// Coefficient versions a run publishes: version k scales `base` by
/// (1 + 1e-3 k + rel). rel = 0 gives the versions served; a small rel
/// gives the perturbed reference of --perturb-check.
std::vector<std::shared_ptr<const core::Wavm3Model>> coefficient_versions(
    const core::Wavm3Model& base, std::size_t count, double rel);

// --------------------------------------------------------------- load

/// Poisson arrival times (ns from the phase start) over [0, duration_s).
std::vector<std::uint64_t> poisson_arrivals(double rate, double duration_s, util::RngStream rng);

/// What one open-loop lane measured, all timed from when each request
/// was due.
struct Lane {
  Windowed lat_us, lag_us;
  std::vector<Answer> answers;
  std::uint64_t sent = 0, ok = 0, failed = 0;
};

/// Load accounting of the open loop of serve_local or fleet_routed: a
/// main lane and a synchronous lane.
struct LoadAccount {
  Windowed lag_us, sync_lag_us;  ///< generator lag of each lane
  std::uint64_t sent = 0, ok = 0, failed = 0;
  double open_s = 0.0, offered_per_s = 0.0;

  /// Takes the two lanes' lag and counts.
  void add_lanes(Lane& main, Lane& sync);
  /// Appends the accounting lines to `out`'s notes.
  void report(Outcome& out, const char* tag) const;
  /// Records loadgen.* (offered and achieved rate, main-lane lag p99).
  void record(Outcome& out) const;
};

/// What one closed-loop phase measured.
struct ClosedLoop {
  std::uint64_t items = 0, failed = 0;
  double wall_s = 0.0;           ///< until the last client stopped
  double cpu_s = 0.0;            ///< process CPU time meanwhile
  WindowCounts windows{0, 0.0};  ///< items completed per window

  /// Appends the phase's accounting line to `out`'s notes.
  void report(Outcome& out, const char* phase) const;
};

/// Items one closed-loop round sent, and how many of them failed.
struct Round {
  std::uint64_t items = 0, failed = 0;
};

/// Runs `clients` threads for `duration_s`; client k calls `round(k, i)`
/// for its i-th round, back to back, until the time is up.
ClosedLoop run_closed_loop(std::size_t clients, double duration_s,
                           const std::function<Round(std::size_t, std::uint64_t)>& round);

/// Records throughput_per_s, the upper-decile window of `wall`, and
/// throughput_per_cpu_s and caller.throughput_per_s, the rates of `cpu`
/// per CPU-second and per wall second.
void record_throughput(Outcome& out, const ClosedLoop& cpu, const ClosedLoop& wall);

// ------------------------------------------------------------- probes

/// Records the core and kernels probes: ns per
/// core::MigrationPlanner::forecast and per core::forecast_timings over
/// `scenarios`, ns per row of kernels::apply_design_matrix at 64 rows x
/// 11 columns, and whether the AVX2 backend is active.
void record_core_and_kernel_probes(Outcome& out, const core::Wavm3Model& model,
                                   const std::vector<core::MigrationScenario>& scenarios,
                                   std::uint64_t seed);

/// Median wall time of `reps` calls of `body` (each returns nothing);
/// used for set-up time.
double median_seconds(int reps, const std::function<void()>& body);

/// Set-ups per run of serve_local and fleet_routed (about 0.1 s each);
/// setup_s is their median.
inline constexpr int kSetupReps = 25;

// -------------------------------------------------------------- trace

/// Per span name ("category/name"): count, total and self time.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
};

/// Self time of every span: its duration minus the part its nested
/// children on the same thread cover.
std::map<std::string, SpanTotals> span_totals(const std::vector<obs::TraceEvent>& events);

/// Enables the process tracer from a clean slate.
void trace_begin();
/// Disables it, writes the Chrome trace to
/// .bench_out/<workload>.trace.json and appends the per-span self-time
/// table to `out`'s notes. Returns the events.
std::vector<obs::TraceEvent> trace_end(Outcome& out, const std::string& workload);

}  // namespace perfbench
