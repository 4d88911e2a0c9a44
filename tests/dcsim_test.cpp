// Tests for the data-centre simulation layer: load profiles, traced
// workloads, the closed consolidation loop, and the headline claim that
// model-driven consolidation saves fleet energy.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <vector>

#include "core/wavm3_model.hpp"
#include "dcsim/load_profile.hpp"
#include "dcsim/simulation.hpp"
#include "dcsim/traced_workload.hpp"
#include "plan/strategy.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace wavm3::dcsim {
namespace {

const core::Wavm3Model& model() {
  static const core::Wavm3Model m = [] {
    core::Wavm3Model model;
    model.fit(wavm3::testing::fast_campaign_m().dataset);
    return model;
  }();
  return m;
}

TEST(LoadProfile, ConstantHoldsForever) {
  const LoadProfile p = LoadProfile::constant(0.4);
  EXPECT_DOUBLE_EQ(p.fraction_at(0.0), 0.4);
  EXPECT_DOUBLE_EQ(p.fraction_at(1e6), 0.4);
  EXPECT_DOUBLE_EQ(p.mean_fraction(), 0.4);
  EXPECT_FALSE(p.cyclic());
}

TEST(LoadProfile, StepsAndCyclicWrap) {
  const LoadProfile p = LoadProfile::steps({{0.0, 0.1}, {10.0, 0.8}}, 20.0);
  EXPECT_DOUBLE_EQ(p.fraction_at(5.0), 0.1);
  EXPECT_DOUBLE_EQ(p.fraction_at(15.0), 0.8);
  EXPECT_DOUBLE_EQ(p.fraction_at(25.0), 0.1);  // wrapped
  EXPECT_DOUBLE_EQ(p.fraction_at(39.9), 0.8);
  EXPECT_NEAR(p.mean_fraction(), 0.45, 1e-12);
  EXPECT_TRUE(p.cyclic());
}

TEST(LoadProfile, NonCyclicHoldsLastValue) {
  const LoadProfile p = LoadProfile::steps({{0.0, 0.2}, {10.0, 0.9}});
  EXPECT_DOUBLE_EQ(p.fraction_at(1e9), 0.9);
}

TEST(LoadProfile, DiurnalOscillatesBetweenBounds) {
  const LoadProfile p = LoadProfile::diurnal(0.1, 0.9, 86400.0);
  double lo = 1.0;
  double hi = 0.0;
  for (double t = 0.0; t < 86400.0; t += 600.0) {
    const double f = p.fraction_at(t);
    lo = std::min(lo, f);
    hi = std::max(hi, f);
    EXPECT_GE(f, 0.1 - 1e-9);
    EXPECT_LE(f, 0.9 + 1e-9);
  }
  EXPECT_LT(lo, 0.15);
  EXPECT_GT(hi, 0.85);
  // One full period later the pattern repeats.
  EXPECT_DOUBLE_EQ(p.fraction_at(3600.0), p.fraction_at(3600.0 + 86400.0));
}

TEST(LoadProfile, CsvRoundTrip) {
  const std::string path = ::testing::TempDir() + "/wavm3_profile.csv";
  {
    std::ofstream out(path);
    out << "time_s,fraction\n0,0.2\n600,0.8\n1200,0.4\n";
  }
  const LoadProfile p = LoadProfile::from_csv(path, 1800.0);
  std::remove(path.c_str());
  EXPECT_DOUBLE_EQ(p.fraction_at(100.0), 0.2);
  EXPECT_DOUBLE_EQ(p.fraction_at(700.0), 0.8);
  EXPECT_DOUBLE_EQ(p.fraction_at(1300.0), 0.4);
  EXPECT_DOUBLE_EQ(p.fraction_at(1900.0), 0.2);  // wrapped
  EXPECT_THROW(LoadProfile::from_csv("/nonexistent.csv"), util::ContractError);
}

TEST(LoadProfile, Validation) {
  EXPECT_THROW(LoadProfile::constant(1.5), util::ContractError);
  EXPECT_THROW(LoadProfile::steps({{1.0, 0.5}}), util::ContractError);   // must start at 0
  EXPECT_THROW(LoadProfile::steps({{0.0, 0.5}, {0.0, 0.6}}), util::ContractError);
  EXPECT_THROW(LoadProfile::steps({{0.0, 0.5}, {10.0, 0.6}}, 5.0), util::ContractError);
}

TEST(TracedWorkloadTest, FollowsProfile) {
  TracedWorkloadParams params;
  params.profile = LoadProfile::steps({{0.0, 0.25}, {100.0, 1.0}}, 200.0);
  params.vcpus = 4;
  params.dirty_pages_per_s_full = 1000.0;
  const TracedWorkload w(params);
  EXPECT_DOUBLE_EQ(w.cpu_demand(50.0), 1.0);
  EXPECT_DOUBLE_EQ(w.cpu_demand(150.0), 4.0);
  EXPECT_DOUBLE_EQ(w.dirty_page_rate(50.0), 250.0);
  EXPECT_DOUBLE_EQ(w.dirty_page_rate(150.0), 1000.0);
}

TEST(FleetScenario, DeterministicAndWellFormed) {
  const DcSimConfig a = make_fleet_scenario(4, 10, 7);
  const DcSimConfig b = make_fleet_scenario(4, 10, 7);
  ASSERT_EQ(a.vms.size(), 10u);
  ASSERT_EQ(a.hosts.size(), 4u);
  for (std::size_t i = 0; i < a.vms.size(); ++i) {
    EXPECT_EQ(a.vms[i].spec.vcpus, b.vms[i].spec.vcpus);
    EXPECT_DOUBLE_EQ(a.vms[i].workload.dirty_pages_per_s_full,
                     b.vms[i].workload.dirty_pages_per_s_full);
    EXPECT_GE(a.vms[i].spec.vcpus, 1);
    EXPECT_LE(a.vms[i].spec.vcpus, 4);
  }
}

DcSimConfig small_config(Strategy strategy) {
  DcSimConfig cfg = make_fleet_scenario(3, 4, 11);
  cfg.duration = 2.0 * 3600.0;
  cfg.controller_interval = 300.0;
  cfg.power_sample_period = 5.0;
  cfg.strategy = strategy;
  cfg.policy.horizon_seconds = 3600.0;
  cfg.policy.underload_fraction = 0.45;
  // Quiet overnight: every VM near its trough so consolidation is easy.
  for (auto& vm : cfg.vms) {
    vm.workload.profile = LoadProfile::constant(0.1);
  }
  return cfg;
}

TEST(Simulation, BaselineKeepsAllHostsOn) {
  DataCenterSimulation sim(small_config(Strategy::kNoConsolidation), nullptr);
  const DcSimReport report = sim.run();
  EXPECT_EQ(report.migrations_executed, 0);
  EXPECT_EQ(report.power_off_events, 0);
  EXPECT_DOUBLE_EQ(report.final_powered_on_hosts, 3.0);
  // Three mostly idle m-class hosts for two hours: ~3 * 440 W * 7200 s.
  EXPECT_NEAR(report.total_energy_joules, 3.0 * 445.0 * 7200.0, 0.08 * 3 * 445.0 * 7200.0);
  EXPECT_EQ(report.host_energy.size(), 3u);
}

TEST(Simulation, CostAwareConsolidationSavesEnergy) {
  DataCenterSimulation baseline(small_config(Strategy::kNoConsolidation), nullptr);
  const DcSimReport r_base = baseline.run();

  DataCenterSimulation aware(small_config(Strategy::kCostAware), &model());
  const DcSimReport r_aware = aware.run();

  EXPECT_GT(r_aware.migrations_executed, 0);
  EXPECT_GT(r_aware.power_off_events, 0);
  EXPECT_LT(r_aware.final_powered_on_hosts, 3.0);
  // Powering hosts off must beat the always-on baseline.
  EXPECT_LT(r_aware.total_energy_joules, 0.9 * r_base.total_energy_joules);
}

TEST(Simulation, CostAwareRejectsUnprofitablePlans) {
  DcSimConfig cfg = small_config(Strategy::kCostAware);
  // A ludicrously short horizon: the saved idle time cannot repay even
  // one migration, so every plan must be rejected.
  cfg.policy.horizon_seconds = 1.0;
  // Make moves expensive: memory-hot VMs.
  for (auto& vm : cfg.vms) {
    vm.workload.dirty_pages_per_s_full = 300000.0;
    vm.workload.working_set_pages =
        static_cast<std::uint64_t>(0.9 * vm.spec.ram_bytes / util::kPageSize);
    vm.workload.profile = LoadProfile::constant(0.9);
  }
  DataCenterSimulation sim(cfg, &model());
  const DcSimReport report = sim.run();
  EXPECT_EQ(report.power_off_events, 0);
  EXPECT_GT(report.plans_rejected_by_cost, 0);
}

TEST(Simulation, CostBlindExecutesWhatAwareRejects) {
  DcSimConfig cfg = small_config(Strategy::kCostBlind);
  cfg.policy.horizon_seconds = 1.0;  // worthless savings, blind does it anyway
  DataCenterSimulation blind(cfg, &model());
  const DcSimReport report = blind.run();
  EXPECT_GT(report.migrations_executed, 0);
  EXPECT_GT(report.power_off_events, 0);
}

TEST(Simulation, FirstConsolidatingTickQueuesThePlannedDonorsMoves) {
  // The controller plans through plan::MigrationPlanner: the moves it
  // executes after its first tick are exactly the what-if wave's moves
  // off the donor with the largest net ledger, in wave order. Six
  // quiet hosts give the wave three donors to choose from.
  DcSimConfig cfg = make_fleet_scenario(6, 12, 11);
  cfg.duration = 3600.0;
  cfg.power_sample_period = 5.0;
  cfg.strategy = Strategy::kCostAware;
  cfg.policy.underload_fraction = 0.45;
  for (auto& vm : cfg.vms) vm.workload.profile = LoadProfile::constant(0.1);
  DataCenterSimulation sim(cfg, &model());
  const DcSimReport report = sim.run();

  // The data centre as it stands at the first tick (no relief move
  // precedes it: nothing is overloaded).
  const double now = cfg.controller_interval;
  cloud::DataCenter dc;
  for (const cloud::HostSpec& spec : cfg.hosts) dc.add_host(spec);
  for (const VmPlacement& p : cfg.vms) {
    auto vm = std::make_shared<cloud::Vm>(p.vm_id, p.spec);
    vm->set_workload(std::make_shared<TracedWorkload>(p.workload));
    vm->start();
    dc.host(p.host)->add_vm(std::move(vm));
  }
  plan::Fleet fleet = plan::Fleet::from_datacenter(dc, now);
  plan::MigrationPlanner planner(model(), planner_config(cfg));
  const plan::WavePlan wave =
      planner.plan_wave(fleet, plan::BeamSearchStrategy{}, now, /*commit=*/false);
  const std::vector<plan::DonorLedger> ledger = plan::donor_ledger(wave, planner.config());
  ASSERT_GE(ledger.size(), 2u);
  const plan::DonorLedger* chosen = &ledger.front();
  for (const plan::DonorLedger& d : ledger) {
    if (d.net_j > chosen->net_j) chosen = &d;
  }
  ASSERT_GT(chosen->net_j, 0.0);

  std::vector<plan::ScheduledMove> expected;
  for (const plan::ScheduledMove& m : wave.moves) {
    if (m.source == chosen->host) expected.push_back(m);
  }
  ASSERT_FALSE(expected.empty());
  ASSERT_GE(report.migration_log.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const migration::MigrationRecord& r = report.migration_log[i];
    EXPECT_EQ(r.vm_id, fleet.vm(expected[i].vm).id) << "move " << i;
    EXPECT_EQ(r.source, fleet.host(expected[i].source).spec.name) << "move " << i;
    EXPECT_EQ(r.target, fleet.host(expected[i].target).spec.name) << "move " << i;
  }
  EXPECT_DOUBLE_EQ(report.migration_log.front().times.ms, now);
}

TEST(Simulation, ConsolidationOntoANearlyFullTargetTriggersNoRelief) {
  // Relief and the planner measure a host's load the same way (the
  // placed VMs' demand), so a target the planner fills to just under
  // the overload cap is not shed again on the next tick. Hypervisor
  // demand alone would push this target over the cap: 28.76 vCPU of
  // guests plus 0.65 vCPU of VMM demand against 0.9 x 32 = 28.8.
  DcSimConfig cfg = make_fleet_scenario(2, 1, 5);
  cfg.duration = 3600.0;
  cfg.power_sample_period = 5.0;
  cfg.strategy = Strategy::kCostAware;
  cfg.vms.clear();
  const auto place = [&](const std::string& id, const std::string& host, double load) {
    VmPlacement p;
    p.vm_id = id;
    p.host = host;
    p.spec.instance_type = "steady";
    p.spec.vcpus = 4;
    p.spec.ram_bytes = util::gib(2);
    p.workload.profile = LoadProfile::constant(load);
    p.workload.vcpus = 4;
    cfg.vms.push_back(std::move(p));
  };
  for (int i = 0; i < 7; ++i) place("busy" + std::to_string(i), "host00", 0.97);  // 27.16
  place("light", "host01", 0.4);                                                  // 1.6
  ASSERT_LE(7 * 4 * 0.97 + 4 * 0.4, cfg.policy.overload_fraction * 32.0);

  DataCenterSimulation sim(cfg, &model());
  const DcSimReport report = sim.run();
  ASSERT_EQ(report.migration_log.size(), 1u);
  EXPECT_EQ(report.migration_log.front().vm_id, "light");
  EXPECT_EQ(report.migration_log.front().target, "host00");
  EXPECT_EQ(report.power_off_events, 1);
  EXPECT_EQ(report.power_on_events, 0);
  EXPECT_DOUBLE_EQ(report.final_powered_on_hosts, 1.0);
}

TEST(Simulation, SingleUseGuard) {
  DataCenterSimulation sim(small_config(Strategy::kNoConsolidation), nullptr);
  sim.run();
  EXPECT_THROW(sim.run(), util::ContractError);
}

TEST(Simulation, RequiresPlannerWhenConsolidating) {
  EXPECT_THROW(DataCenterSimulation(small_config(Strategy::kCostAware), nullptr),
               util::ContractError);
}

TEST(Simulation, OverloadedHostShedsLoad) {
  DcSimConfig cfg = make_fleet_scenario(3, 1, 5);
  cfg.duration = 3600.0;
  cfg.controller_interval = 120.0;
  cfg.power_sample_period = 5.0;
  cfg.strategy = Strategy::kCostAware;
  cfg.policy.underload_fraction = 0.05;  // effectively no consolidation
  cfg.policy.overload_fraction = 0.60;
  // Two hot 4-vCPU VMs + helpers on one 32-vCPU host won't trip 60%;
  // build a genuinely overloaded host instead: eight 4-vCPU VMs at 90%.
  cfg.vms.clear();
  for (int i = 0; i < 8; ++i) {
    VmPlacement p;
    p.vm_id = "hot" + std::to_string(i);
    p.host = "host00";
    p.spec.instance_type = "hot";
    p.spec.vcpus = 4;
    p.spec.ram_bytes = util::gib(2);
    p.workload.profile = LoadProfile::constant(0.9);
    p.workload.vcpus = 4;
    cfg.vms.push_back(std::move(p));
  }
  DataCenterSimulation sim(cfg, &model());
  const DcSimReport report = sim.run();
  EXPECT_GT(report.migrations_executed, 0);  // relief migrations happened
}

}  // namespace
}  // namespace wavm3::dcsim
