// Tests for the WAVM3 core: per-phase fitting, prediction accuracy,
// LM/OLS equivalence, ablations, bias transfer, and the closed-form
// migration planner.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/calibration.hpp"
#include "core/phase_eval.hpp"
#include "core/planner.hpp"
#include "core/wavm3_model.hpp"
#include "models/evaluation.hpp"
#include "models/huang.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace wavm3::core {
namespace {

using migration::MigrationPhase;
using migration::MigrationType;
using models::HostRole;

/// Train/test split of the shared fast campaign, computed once.
struct SplitFixture {
  models::Dataset train;
  models::Dataset test;
  SplitFixture() {
    const auto& campaign = wavm3::testing::fast_campaign_m();
    auto [tr, te] = campaign.dataset.split_stratified(0.34, 1234);
    train = std::move(tr);
    test = std::move(te);
  }
};

const SplitFixture& split_m() {
  static const SplitFixture f;
  return f;
}

const Wavm3Model& fitted_wavm3() {
  static const Wavm3Model model = [] {
    Wavm3Model m;
    m.fit(split_m().train);
    return m;
  }();
  return model;
}

TEST(Wavm3, FitsBothTypesAndRoles) {
  const Wavm3Model& m = fitted_wavm3();
  EXPECT_TRUE(m.is_fitted());
  for (const auto type : {MigrationType::kNonLive, MigrationType::kLive}) {
    const Wavm3Coefficients& c = m.coefficients(type);
    // Bias embeds the idle draw of the m-class machines.
    EXPECT_GT(c.source.transfer.c, 300.0);
    EXPECT_LT(c.source.transfer.c, 600.0);
    EXPECT_GT(c.source.transfer.alpha, 5.0);  // ~watts per busy vCPU
    EXPECT_LT(c.source.transfer.alpha, 25.0);
  }
}

TEST(Wavm3, CoefficientsNonnegativeByDefault) {
  const Wavm3Model& m = fitted_wavm3();
  for (const auto type : {MigrationType::kNonLive, MigrationType::kLive}) {
    const Wavm3Coefficients& table = m.coefficients(type);
    for (const RoleCoefficients* rc : {&table.source, &table.target}) {
      for (const PhaseCoefficients* pc :
           {&rc->initiation, &rc->transfer, &rc->activation}) {
        EXPECT_GE(pc->alpha, 0.0);
        EXPECT_GE(pc->beta, 0.0);
        EXPECT_GE(pc->gamma, 0.0);
        EXPECT_GE(pc->delta, 0.0);
      }
    }
  }
}

TEST(Wavm3, TargetTransferIgnoresDrAndVmCpu) {
  // SIV-C.2: DR and CPU(v) are zero on the target during transfer, so
  // their fitted coefficients must be exactly zero (pruned columns).
  const Wavm3Coefficients& c = fitted_wavm3().coefficients(MigrationType::kLive);
  EXPECT_DOUBLE_EQ(c.target.transfer.gamma, 0.0);
  EXPECT_DOUBLE_EQ(c.target.transfer.delta, 0.0);
}

TEST(Wavm3, LiveSourceTransferUsesDirtyRatio) {
  const Wavm3Coefficients& c = fitted_wavm3().coefficients(MigrationType::kLive);
  // The tracking overhead makes gamma clearly positive on the source.
  EXPECT_GT(c.source.transfer.gamma, 1.0);
}

TEST(Wavm3, PredictsHeldOutEnergiesWell) {
  const Wavm3Model& m = fitted_wavm3();
  const auto rows = models::evaluate_model(m, split_m().test);
  for (const auto& r : rows) {
    EXPECT_LT(r.metrics.nrmse, 0.12) << "slice " << r.model << "/" << to_string(r.role);
    EXPECT_GT(r.metrics.r2, 0.8);
  }
}

TEST(Wavm3, BeatsOrMatchesHuangEverywhereAndWinsOnLiveSource) {
  models::HuangModel huang;
  huang.fit(split_m().train);
  const auto w_rows = models::evaluate_model(fitted_wavm3(), split_m().test);
  const auto h_rows = models::evaluate_model(huang, split_m().test);
  for (const auto type : {MigrationType::kNonLive, MigrationType::kLive}) {
    for (const auto role : {HostRole::kSource, HostRole::kTarget}) {
      const double w = models::find_row(w_rows, "WAVM3", type, role).metrics.nrmse;
      const double h = models::find_row(h_rows, "HUANG", type, role).metrics.nrmse;
      // On this reduced campaign WAVM3 fits 12 parameters per slice vs
      // HUANG's 2, so allow a little small-sample slack on ties.
      EXPECT_LE(w, h * 1.4 + 0.01) << "WAVM3 must not clearly lose any slice";
    }
  }
  const double w_live_src =
      models::find_row(w_rows, "WAVM3", MigrationType::kLive, HostRole::kSource).metrics.nrmse;
  const double h_live_src =
      models::find_row(h_rows, "HUANG", MigrationType::kLive, HostRole::kSource).metrics.nrmse;
  EXPECT_LT(w_live_src, h_live_src);  // the paper's headline live improvement
}

TEST(Wavm3, PhaseEnergiesSumNearTotal) {
  const Wavm3Model& m = fitted_wavm3();
  const auto& obs = split_m().test.observations.front();
  const double total = m.predict_energy(obs);
  const double parts = m.predict_phase_energy(obs, MigrationPhase::kInitiation) +
                       m.predict_phase_energy(obs, MigrationPhase::kTransfer) +
                       m.predict_phase_energy(obs, MigrationPhase::kActivation);
  // Boundary sample intervals are the only difference.
  EXPECT_NEAR(parts, total, 3.0 * 0.5 * 900.0);
  EXPECT_GT(parts, 0.0);
}

TEST(Wavm3, PhaseLevelEvaluationSane) {
  const auto rows = evaluate_phase_energies(fitted_wavm3(), split_m().test);
  ASSERT_GE(rows.size(), 8u);  // most (type, role, phase) slices present
  bool transfer_seen = false;
  for (const auto& r : rows) {
    EXPECT_GE(r.n_migrations, 3u);
    EXPECT_GT(r.metrics.nrmse, 0.0);
    EXPECT_LT(r.metrics.nrmse, 0.35) << migration::to_string(r.phase);
    if (r.phase == MigrationPhase::kTransfer) {
      transfer_seen = true;
      // The transfer phase dominates the energy and is predicted best
      // in relative terms.
      EXPECT_LT(r.metrics.nrmse, 0.12);
    }
  }
  EXPECT_TRUE(transfer_seen);
}

TEST(Wavm3, LevenbergMarquardtMatchesOls) {
  Wavm3Model::Options lm_opts;
  lm_opts.use_levenberg_marquardt = true;
  lm_opts.nonnegative_coefficients = false;  // compare against unconstrained OLS
  Wavm3Model lm_model(lm_opts);
  lm_model.fit(split_m().train);

  Wavm3Model::Options ols_opts;
  ols_opts.nonnegative_coefficients = false;
  Wavm3Model ols_model(ols_opts);
  ols_model.fit(split_m().train);

  const auto& a = lm_model.coefficients(MigrationType::kLive).source.transfer;
  const auto& b = ols_model.coefficients(MigrationType::kLive).source.transfer;
  EXPECT_NEAR(a.alpha, b.alpha, 0.05 * (std::abs(b.alpha) + 1.0));
  EXPECT_NEAR(a.c, b.c, 0.02 * (std::abs(b.c) + 1.0));
}

TEST(Wavm3, AblationDroppingDirtyRatioHurtsLiveSource) {
  Wavm3Model::Options opts;
  opts.ablation.drop_dirty_ratio = true;
  Wavm3Model ablated(opts);
  ablated.fit(split_m().train);

  const auto full_rows = models::evaluate_model(fitted_wavm3(), split_m().test);
  const auto abl_rows = models::evaluate_model(ablated, split_m().test);
  const double full =
      models::find_row(full_rows, "WAVM3", MigrationType::kLive, HostRole::kSource)
          .metrics.rmse;
  const double abl =
      models::find_row(abl_rows, "WAVM3", MigrationType::kLive, HostRole::kSource)
          .metrics.rmse;
  EXPECT_GE(abl, full * 0.999);  // never better; usually clearly worse
  const auto& c = ablated.coefficients(MigrationType::kLive);
  EXPECT_DOUBLE_EQ(c.source.transfer.gamma, 0.0);
}

TEST(Wavm3, BiasCorrectionShiftsEveryPhaseConstant) {
  Wavm3Model m;
  m.fit(split_m().train);
  const auto before = m.coefficients(MigrationType::kLive);
  m.apply_idle_bias_correction(265.0);
  const auto after = m.coefficients(MigrationType::kLive);
  EXPECT_NEAR(after.source.initiation.c, before.source.initiation.c - 265.0, 1e-9);
  EXPECT_NEAR(after.source.transfer.c, before.source.transfer.c - 265.0, 1e-9);
  EXPECT_NEAR(after.target.activation.c, before.target.activation.c - 265.0, 1e-9);
  // Slopes untouched.
  EXPECT_DOUBLE_EQ(after.source.transfer.alpha, before.source.transfer.alpha);
}

TEST(Calibration, CrossTestbedTransferReducesError) {
  // The paper's SVI-F experiment: an m-trained model overestimates on
  // the o machines by the idle-power delta; the C2 correction fixes it.
  const auto& campaign_o = wavm3::testing::fast_campaign_o();

  Wavm3Model raw;
  raw.fit(split_m().train);
  Wavm3Model corrected;
  corrected.fit(split_m().train);
  transfer_bias(corrected, split_m().train, campaign_o.dataset);

  const auto raw_rows = models::evaluate_model(raw, campaign_o.dataset);
  const auto cor_rows = models::evaluate_model(corrected, campaign_o.dataset);
  for (const auto type : {MigrationType::kNonLive, MigrationType::kLive}) {
    for (const auto role : {HostRole::kSource, HostRole::kTarget}) {
      const double raw_nrmse = models::find_row(raw_rows, "WAVM3", type, role).metrics.nrmse;
      const double cor_nrmse = models::find_row(cor_rows, "WAVM3", type, role).metrics.nrmse;
      EXPECT_LT(cor_nrmse, raw_nrmse * 0.5)
          << "bias transfer must at least halve the cross-testbed error";
      EXPECT_LT(cor_nrmse, 0.30);
    }
  }
}

TEST(Calibration, IdleDeltaMatchesTestbeds) {
  const double delta = idle_bias_delta(wavm3::testing::fast_campaign_m().dataset,
                                       wavm3::testing::fast_campaign_o().dataset);
  // m-class idles ~433 W, o-class ~167 W.
  EXPECT_NEAR(delta, 265.0, 15.0);
}

// ---------- Planner ----------

MigrationScenario base_scenario() {
  MigrationScenario sc;
  sc.type = MigrationType::kLive;
  sc.vm_mem_bytes = util::gib(4);
  sc.vm_cpu_vcpus = 4.0;
  sc.vm_dirty_pages_per_s = 64.0;
  sc.vm_working_set_pages = 4096.0;
  sc.source_cpu_capacity = 32.0;
  sc.target_cpu_capacity = 32.0;
  sc.link_payload_rate = 117.5e6;
  return sc;
}

TEST(Planner, TimingsWellFormed) {
  const MigrationForecast fc = forecast_timings(base_scenario());
  EXPECT_TRUE(fc.times.well_formed());
  EXPECT_GT(fc.times.transfer_duration(), 20.0);
  EXPECT_LT(fc.times.transfer_duration(), 60.0);
  EXPECT_GE(fc.total_bytes, util::gib(4));
  EXPECT_FALSE(fc.degenerated_to_nonlive);
}

TEST(Planner, HighDirtyRateDegenerates) {
  MigrationScenario sc = base_scenario();
  sc.vm_dirty_pages_per_s = 300000.0;
  sc.vm_working_set_pages = 0.95 * util::gib(4) / 4096.0;
  const MigrationForecast fc = forecast_timings(sc);
  EXPECT_TRUE(fc.degenerated_to_nonlive);
  EXPECT_GT(fc.downtime, 5.0);
  EXPECT_GT(fc.total_bytes, 2.0 * util::gib(4));
}

TEST(Planner, LoadedSourceReducesBandwidth) {
  const MigrationForecast idle = forecast_timings(base_scenario());
  MigrationScenario sc = base_scenario();
  sc.source_cpu_load = 32.0;
  const MigrationForecast loaded = forecast_timings(sc);
  EXPECT_LT(loaded.bandwidth, idle.bandwidth);
  EXPECT_GT(loaded.times.transfer_duration(), idle.times.transfer_duration());
}

TEST(Planner, NonLiveDowntimeSpansMigration) {
  MigrationScenario sc = base_scenario();
  sc.type = MigrationType::kNonLive;
  const MigrationForecast fc = forecast_timings(sc);
  EXPECT_GT(fc.downtime, fc.times.transfer_duration());
  EXPECT_EQ(fc.precopy_rounds, 0);
}

TEST(Planner, ForecastEnergiesPositiveAndAdditive) {
  const MigrationPlanner planner(fitted_wavm3());
  const MigrationForecast fc = planner.forecast(base_scenario());
  EXPECT_GT(fc.source_energy, 0.0);
  EXPECT_GT(fc.target_energy, 0.0);
  EXPECT_NEAR(fc.total_energy(), fc.source_energy + fc.target_energy, 1e-9);
  double sum = 0.0;
  for (int i = 0; i < 3; ++i) sum += fc.source_phase_energy[i];
  EXPECT_NEAR(sum, fc.source_energy, 1e-9);
}

TEST(Planner, ForecastTracksEngineScaleOnIdleHosts) {
  // The planner's energy should land in the ballpark of the measured
  // idle-host live migration (~20-25 kJ per host on the m testbed).
  const MigrationPlanner planner(fitted_wavm3());
  const MigrationForecast fc = planner.forecast(base_scenario());
  EXPECT_GT(fc.source_energy, 10e3);
  EXPECT_LT(fc.source_energy, 45e3);
}

TEST(Planner, LoadedTargetCostsMore) {
  const MigrationPlanner planner(fitted_wavm3());
  const MigrationForecast idle = planner.forecast(base_scenario());
  MigrationScenario sc = base_scenario();
  sc.target_cpu_load = 28.0;
  const MigrationForecast loaded = planner.forecast(sc);
  EXPECT_GT(loaded.target_energy, idle.target_energy);
}

TEST(Planner, RejectsInvalidScenarios) {
  MigrationScenario sc = base_scenario();
  sc.vm_mem_bytes = 0.0;
  EXPECT_THROW(forecast_timings(sc), util::ContractError);

  // Non-finite or out-of-range inputs throw instead of pricing to a
  // NaN or a finite but wrong energy.
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  constexpr double inf = std::numeric_limits<double>::infinity();
  const std::pair<const char*, void (*)(MigrationScenario&)> invalid[] = {
      {"NaN dirty rate", [](MigrationScenario& s) { s.vm_dirty_pages_per_s = nan; }},
      {"infinite memory", [](MigrationScenario& s) { s.vm_mem_bytes = inf; }},
      {"infinite link rate", [](MigrationScenario& s) { s.link_payload_rate = inf; }},
      {"negative dirty rate", [](MigrationScenario& s) { s.vm_dirty_pages_per_s = -5000.0; }},
      {"NaN source load", [](MigrationScenario& s) { s.source_cpu_load = nan; }},
  };
  for (const auto& [what, corrupt] : invalid) {
    MigrationScenario bad = base_scenario();
    corrupt(bad);
    EXPECT_THROW(forecast_timings(bad), util::ContractError) << what;
  }
}

}  // namespace
}  // namespace wavm3::core
