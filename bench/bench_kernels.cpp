// Tier-2 bench for the src/kernels/ numeric layer: a paired
// SIMD-vs-forced-scalar A/B of the dispatched kernels on the serving
// hot-path shape — the batch-64 x 11-term WAVM3 design-matrix apply —
// plus dot / axpy / trapezoid micro timings. Prints ns-per-prediction
// for both backends, re-checks bit parity on the measured buffers, and
// emits bench_out/bench_kernels.json (consumed by the
// bench_kernels_speedup_gate ctest entry via check_kernels.cmake).
//
// When the host has no SIMD backend — or WAVM3_FORCE_SCALAR pinned the
// dispatcher at startup — the A/B degenerates to scalar-vs-scalar and
// the artefact says simd_available=false so the gate skips instead of
// demanding a speedup the hardware cannot give. Sanitizer builds say
// instrumented=true: their timings measure the instrumentation, so the
// gate enforces parity there but not the speedup floor.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "kernels/kernels.hpp"
#include "util/rng.hpp"

namespace {

using namespace wavm3;

/// True in ASan/TSan builds, whose -O1 instrumentation dominates the
/// timed loops.
constexpr bool kInstrumented =
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    true;
#else
    false;
#endif

/// The WAVM3 serving shape: 11 phase-expanded terms, batch of 64 rows.
constexpr std::size_t kTerms = 11;
constexpr std::size_t kBatch = 64;

/// One timed window of ~`min_time_s`, reported as seconds per call.
template <typename Fn>
double time_once(double min_time_s, Fn&& fn) {
  std::size_t reps = 1;
  for (;;) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < reps; ++r) fn();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (elapsed >= min_time_s || reps > (1u << 24)) {
      return elapsed / static_cast<double>(reps);
    }
    reps *= 4;
  }
}

/// Wall-clock seconds per call, best of three passes (see
/// bench_batch_eval.cpp for the rationale).
template <typename Fn>
double time_per_call(double min_time_s, Fn&& fn) {
  fn();  // warm up
  double best = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    const double per_call = time_once(min_time_s, fn);
    if (pass == 0 || per_call < best) best = per_call;
  }
  return best;
}

struct DesignFixture {
  std::vector<std::vector<double>> column_storage;
  std::vector<std::span<const double>> columns;
  std::vector<double> coeffs;
  std::vector<double> out;

  explicit DesignFixture(std::size_t rows, std::uint64_t seed) {
    util::RngStream rng(seed);
    column_storage.resize(kTerms);
    for (auto& col : column_storage) {
      col.resize(rows);
      for (double& v : col) v = rng.uniform(-50.0, 50.0);
    }
    for (const auto& col : column_storage) columns.emplace_back(col);
    coeffs.resize(kTerms);
    for (double& c : coeffs) c = rng.uniform(-3.0, 3.0);
    out.resize(rows);
  }

  void apply() {
    kernels::apply_design_matrix(columns, coeffs, 205.0, out);
    benchmark::DoNotOptimize(out.data());
  }
};

struct KernelRow {
  std::string kernel;
  std::size_t n = 0;
  double simd_ns = 0.0;
  double scalar_ns = 0.0;
  double speedup = 0.0;
};

/// RAII backend pin (mirrors the kernels_test.cpp guard).
struct BackendGuard {
  explicit BackendGuard(kernels::Backend b) { kernels::set_backend(b); }
  ~BackendGuard() { kernels::reset_backend(); }
};

kernels::Backend best_simd_backend() {
  for (const kernels::Backend b : {kernels::Backend::kAvx2, kernels::Backend::kNeon}) {
    if (kernels::backend_supported(b)) return b;
  }
  return kernels::Backend::kScalar;
}

int run_report() {
  std::printf("==============================================================\n");
  std::printf("kernels: dispatched SIMD vs forced-scalar A/B\n");
  std::printf("==============================================================\n\n");

  const kernels::Backend startup = kernels::active_backend();
  const kernels::Backend simd = best_simd_backend();
  // WAVM3_FORCE_SCALAR pins the startup backend to scalar; honour that
  // here so the forced-scalar CI job measures what it claims to.
  const bool simd_available =
      simd != kernels::Backend::kScalar && startup != kernels::Backend::kScalar;
  const std::string cpu = kernels::cpu_features();
  std::printf("startup backend: %s\n", kernels::to_string(startup));
  std::printf("cpu features:    %s\n\n", cpu.c_str());

  const double min_time = 0.02;
  DesignFixture fixture(kBatch, 11);

  // --- headline: ns per prediction on the batch-64 apply -------------
  // Interleave forced-scalar and SIMD windows and keep each side's
  // minimum: a scheduler hiccup or noisy neighbour then inflates one
  // window of one side, not the whole A or the whole B, so the ratio
  // stays honest on loaded CI runners.
  double simd_apply_s = 0.0;
  double scalar_apply_s = 0.0;
  std::vector<double> simd_out, scalar_out;
  {
    BackendGuard guard(kernels::Backend::kScalar);
    fixture.apply();  // warm up
    scalar_out = fixture.out;
  }
  if (simd_available) {
    BackendGuard guard(simd);
    fixture.apply();
    simd_out = fixture.out;
  }
  for (int pass = 0; pass < 7; ++pass) {
    double s = 0.0;
    {
      BackendGuard guard(kernels::Backend::kScalar);
      s = time_once(min_time, [&] { fixture.apply(); });
    }
    if (pass == 0 || s < scalar_apply_s) scalar_apply_s = s;
    if (simd_available) {
      BackendGuard guard(simd);
      s = time_once(min_time, [&] { fixture.apply(); });
      if (pass == 0 || s < simd_apply_s) simd_apply_s = s;
    }
  }
  if (!simd_available) {
    simd_apply_s = scalar_apply_s;
    simd_out = scalar_out;
  }
  const bool parity = simd_out.size() == scalar_out.size() &&
                      std::memcmp(simd_out.data(), scalar_out.data(),
                                  simd_out.size() * sizeof(double)) == 0;
  const double simd_ns_per_pred = simd_apply_s / static_cast<double>(kBatch) * 1e9;
  const double scalar_ns_per_pred = scalar_apply_s / static_cast<double>(kBatch) * 1e9;
  const double speedup = scalar_apply_s / std::max(1e-12, simd_apply_s);

  std::printf("apply_design_matrix, %zu terms x %zu rows (one serving batch):\n", kTerms,
              kBatch);
  std::printf("  %-14s %10.2f ns/prediction\n", kernels::to_string(simd), simd_ns_per_pred);
  std::printf("  %-14s %10.2f ns/prediction\n", "scalar", scalar_ns_per_pred);
  std::printf("  speedup %.2fx, bit parity %s\n\n", speedup, parity ? "yes" : "NO");

  // --- supporting micro rows ----------------------------------------
  std::vector<KernelRow> rows;
  util::RngStream rng(29);
  const std::size_t n = 1024;
  std::vector<double> a(n), b(n), t(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.uniform(-10.0, 10.0);
    b[i] = rng.uniform(-10.0, 10.0);
    t[i] = static_cast<double>(i) * 0.5;
    y[i] = 200.0 + rng.uniform(-40.0, 40.0);
  }
  std::vector<double> axpy_dst(n, 0.0);
  const auto micro = [&](const std::string& name, auto&& fn) {
    KernelRow row;
    row.kernel = name;
    row.n = n;
    {
      BackendGuard guard(kernels::Backend::kScalar);
      row.scalar_ns = time_per_call(min_time, fn) * 1e9;
    }
    if (simd_available) {
      BackendGuard guard(simd);
      row.simd_ns = time_per_call(min_time, fn) * 1e9;
    } else {
      row.simd_ns = row.scalar_ns;
    }
    row.speedup = row.scalar_ns / std::max(1e-3, row.simd_ns);
    rows.push_back(row);
  };
  micro("dot", [&] { benchmark::DoNotOptimize(kernels::dot(a, b)); });
  micro("axpy", [&] {
    kernels::axpy(1.5, a, axpy_dst);
    benchmark::DoNotOptimize(axpy_dst.data());
  });
  micro("trapezoid", [&] { benchmark::DoNotOptimize(kernels::trapezoid(t, y)); });

  std::printf("%-12s %6s %12s %12s %9s\n", "kernel", "n", "simd ns", "scalar ns", "speedup");
  for (const KernelRow& r : rows) {
    std::printf("%-12s %6zu %12.1f %12.1f %8.2fx\n", r.kernel.c_str(), r.n, r.simd_ns,
                r.scalar_ns, r.speedup);
  }

  // --- JSON artefact -------------------------------------------------
  std::filesystem::create_directories("bench_out");
  std::ofstream json("bench_out/bench_kernels.json");
  if (json) {
    json << "{\n"
         << "  \"backend\": \"" << kernels::to_string(simd_available ? simd : startup)
         << "\",\n"
         << "  \"cpu\": \"" << cpu << "\",\n"
         << "  \"simd_available\": " << (simd_available ? "true" : "false") << ",\n"
         << "  \"instrumented\": " << (kInstrumented ? "true" : "false") << ",\n"
         << "  \"batch64\": {\"terms\": " << kTerms << ", \"rows\": " << kBatch
         << ", \"simd_ns_per_prediction\": " << simd_ns_per_pred
         << ", \"scalar_ns_per_prediction\": " << scalar_ns_per_pred
         << ", \"speedup\": " << speedup << ", \"parity\": " << (parity ? "true" : "false")
         << "},\n"
         << "  \"rows\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const KernelRow& r = rows[i];
      json << (i == 0 ? "\n" : ",\n") << "    {\"kernel\": \"" << r.kernel
           << "\", \"n\": " << r.n << ", \"simd_ns\": " << r.simd_ns
           << ", \"scalar_ns\": " << r.scalar_ns << ", \"speedup\": " << r.speedup << "}";
    }
    json << "\n  ]\n}\n";
    std::printf("\nwrote bench_out/bench_kernels.json\n\n");
  }
  return parity ? 0 : 1;
}

// google-benchmark registrations so the smoke run reports timings too.

void BM_ApplyDesign64Dispatched(benchmark::State& state) {
  DesignFixture fixture(kBatch, 11);
  for (auto _ : state) fixture.apply();
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_ApplyDesign64Dispatched);

void BM_ApplyDesign64ForcedScalar(benchmark::State& state) {
  DesignFixture fixture(kBatch, 11);
  BackendGuard guard(kernels::Backend::kScalar);
  for (auto _ : state) fixture.apply();
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_ApplyDesign64ForcedScalar);

}  // namespace

int main(int argc, char** argv) {
  const int rc = run_report();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return rc;
}
