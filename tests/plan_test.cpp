// src/plan/: fleet model, workload-cycle detection, candidate pricing
// through core::MigrationPlanner::forecast, wave planning with the
// bundled placement strategies, and the per-donor vacate decision of
// the paper's SVIII use case (donor_ledger over a data-centre snapshot).
#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/instances.hpp"
#include "models/huang.hpp"
#include "plan/cycle_detector.hpp"
#include "plan/fleet.hpp"
#include "plan/planner.hpp"
#include "plan/strategy.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace wavm3::plan {
namespace {

using migration::MigrationType;

// ---------------------------------------------------------------- cycles

std::pair<std::vector<double>, std::vector<double>> sampled_signal(
    double period, double span, double dt, double noise_amp, unsigned seed,
    double phase = 0.0) {
  std::vector<double> t;
  std::vector<double> y;
  unsigned state = seed * 2654435761u + 1u;
  const auto jitter = [&] {
    state = state * 1664525u + 1013904223u;
    return (static_cast<double>(state >> 8) / static_cast<double>(1u << 24) - 0.5) * 2.0;
  };
  for (double x = 0.0; x <= span; x += dt) {
    t.push_back(x);
    const double base = 0.5 * (1.0 - std::cos(2.0 * M_PI * (x + phase) / period));
    y.push_back(1000.0 + 9000.0 * base + noise_amp * jitter());
  }
  return {t, y};
}

TEST(CycleDetector, FindsPlantedPeriod) {
  const double period = 7200.0;
  const auto [t, y] = sampled_signal(period, 4 * period, 60.0, 0.0, 7);
  const CycleEstimate e = CycleDetector().analyze(t, y);
  ASSERT_TRUE(e.periodic);
  EXPECT_NEAR(e.period_s, period, 0.05 * period);
  EXPECT_GT(e.confidence, 0.8);
  EXPECT_GT(e.overall_mean, 0.0);
}

TEST(CycleDetector, LowWindowSitsAtTheSignalMinimum) {
  const double period = 7200.0;
  // Signal minima at x + phase = k * period.
  const double phase = 1800.0;
  const auto [t, y] = sampled_signal(period, 4 * period, 60.0, 0.0, 11, phase);
  const CycleEstimate e = CycleDetector().analyze(t, y);
  ASSERT_TRUE(e.periodic);
  // The low window's midpoint lands near a minimum (mod period).
  const double mid = e.low_anchor_s + 0.5 * e.low_duration_s + phase;
  const double frac = mid / e.period_s - std::floor(mid / e.period_s);
  const double dist = std::min(frac, 1.0 - frac);
  EXPECT_LT(dist, 0.15);
  // Migrating inside the window sees far less dirtying than average.
  EXPECT_LT(e.low_mean, 0.5 * e.overall_mean);
  EXPECT_GT(e.low_duration_s, 0.0);
}

TEST(CycleDetector, SurvivesNoise) {
  const double period = 5400.0;
  const auto [t, y] = sampled_signal(period, 5 * period, 90.0, 900.0, 3);
  const CycleEstimate e = CycleDetector().analyze(t, y);
  ASSERT_TRUE(e.periodic);
  EXPECT_NEAR(e.period_s, period, 0.1 * period);
}

TEST(CycleDetector, RejectsAperiodicNoise) {
  std::vector<double> t;
  std::vector<double> y;
  unsigned state = 99u;
  for (double x = 0.0; x <= 4 * 7200.0; x += 60.0) {
    state = state * 1664525u + 1013904223u;
    t.push_back(x);
    y.push_back(5000.0 + static_cast<double>(state >> 20));
  }
  const CycleEstimate e = CycleDetector().analyze(t, y);
  EXPECT_FALSE(e.periodic);
  EXPECT_GT(e.overall_mean, 0.0);
}

TEST(CycleDetector, RejectsFlatAndDegenerateTraces) {
  std::vector<double> t;
  std::vector<double> y;
  for (double x = 0.0; x <= 4 * 7200.0; x += 60.0) {
    t.push_back(x);
    y.push_back(4321.0);
  }
  const CycleEstimate flat = CycleDetector().analyze(t, y);
  EXPECT_FALSE(flat.periodic);
  EXPECT_DOUBLE_EQ(flat.overall_mean, 4321.0);

  // Too short to support any period.
  const std::vector<double> t3 = {0.0, 60.0, 120.0};
  const std::vector<double> y3 = {1.0, 2.0, 3.0};
  EXPECT_FALSE(CycleDetector().analyze(t3, y3).periodic);
  EXPECT_FALSE(CycleDetector().analyze({}, {}).periodic);
}

TEST(CycleDetector, NextLowWindowStartRepeatsEveryPeriod) {
  CycleEstimate e;
  e.periodic = true;
  e.period_s = 100.0;
  e.low_anchor_s = 30.0;
  e.low_duration_s = 10.0;
  EXPECT_DOUBLE_EQ(CycleDetector::next_low_window_start(e, 0.0), 30.0);
  EXPECT_DOUBLE_EQ(CycleDetector::next_low_window_start(e, 30.0), 30.0);
  EXPECT_DOUBLE_EQ(CycleDetector::next_low_window_start(e, 31.0), 130.0);
  EXPECT_DOUBLE_EQ(CycleDetector::next_low_window_start(e, 635.0), 730.0);
  CycleEstimate aperiodic;
  EXPECT_THROW(CycleDetector::next_low_window_start(aperiodic, 0.0), util::ContractError);
}

// ----------------------------------------------------------------- fleet

TEST(Fleet, SyntheticInvariantsHold) {
  const Fleet fleet = Fleet::synthetic(40, 200, 17);
  EXPECT_EQ(fleet.host_count(), 40u);
  EXPECT_EQ(fleet.vm_count(), 200u);
  double committed_total = 0.0;
  for (std::size_t h = 0; h < fleet.host_count(); ++h) {
    const FleetHost& host = fleet.host(static_cast<int>(h));
    double cpu = 0.0;
    double ram = 0.0;
    for (const int v : host.vms) {
      EXPECT_EQ(fleet.vm(v).host, static_cast<int>(h));
      cpu += fleet.vm(v).cpu_now;
      ram += fleet.vm(v).ram_bytes;
    }
    EXPECT_NEAR(host.cpu_load, cpu, 1e-9);
    EXPECT_NEAR(host.ram_committed, ram, 1.0);
    EXPECT_LE(host.ram_committed, host.spec.ram_bytes);
    EXPECT_FALSE(host.spec.group.empty());
    committed_total += ram;
  }
  EXPECT_GT(committed_total, 0.0);
  // Histories exist and drive cycle detection for the periodic share.
  int periodic = 0;
  const CycleDetector detector;
  for (std::size_t v = 0; v < fleet.vm_count(); ++v) {
    const VmHistory& hist = fleet.vm(static_cast<int>(v)).history;
    ASSERT_FALSE(hist.empty());
    if (detector.analyze(hist.t, hist.dirty).periodic) ++periodic;
  }
  // periodic_fraction defaults to 0.7; allow detection slack.
  EXPECT_GT(periodic, static_cast<int>(fleet.vm_count()) / 2);
}

TEST(Fleet, HostLookupAndMoveAccounting) {
  Fleet fleet = Fleet::synthetic(8, 30, 5);
  EXPECT_EQ(fleet.host_index(fleet.host(3).spec.name), 3);
  EXPECT_EQ(fleet.host_index("no-such-host"), -1);

  const int v = fleet.host(0).vms.front();
  const double cpu = fleet.vm(v).cpu_now;
  const double ram = fleet.vm(v).ram_bytes;
  const double src_cpu = fleet.host(0).cpu_load;
  const double dst_cpu = fleet.host(1).cpu_load;
  fleet.move_vm(v, 1);
  EXPECT_EQ(fleet.vm(v).host, 1);
  EXPECT_NEAR(fleet.host(0).cpu_load, src_cpu - cpu, 1e-9);
  EXPECT_NEAR(fleet.host(1).cpu_load, dst_cpu + cpu, 1e-9);
  EXPECT_GE(fleet.host(1).ram_committed, ram);
}

TEST(Fleet, CsvRoundTripAndValidation) {
  std::istringstream hosts(
      "name,vcpus,ram_gib,nic_gbit,group,max_migrations\n"
      "alpha,32,64,10,rackA,2\n"
      "beta,16,32,1,rackB,1\n");
  std::istringstream vms(
      "id,host,vcpus,ram_gib,cpu_vcpus,dirty_pages_per_s,working_set_pages\n"
      "web01,alpha,4,8,2.5,12000,250000\n"
      "db01,beta,8,16,6.0,30000,800000\n");
  const Fleet fleet = Fleet::from_csv(hosts, vms);
  ASSERT_EQ(fleet.host_count(), 2u);
  ASSERT_EQ(fleet.vm_count(), 2u);
  EXPECT_EQ(fleet.host(0).spec.name, "alpha");
  EXPECT_EQ(fleet.host(0).spec.max_concurrent_migrations, 2);
  EXPECT_NEAR(fleet.host(0).spec.nic_rate, 10.0 * 125e6, 1e6);
  EXPECT_EQ(fleet.host(0).spec.group, "rackA");
  EXPECT_EQ(fleet.vm(0).host, 0);
  EXPECT_NEAR(fleet.vm(0).ram_bytes, util::gib(8.0), 1.0);
  EXPECT_DOUBLE_EQ(fleet.vm(0).cpu_now, 2.5);
  EXPECT_EQ(fleet.vm(1).working_set_pages, 800000u);

  std::istringstream bad_header("name,vcpus\nx,1\n");
  std::istringstream no_vms(
      "id,host,vcpus,ram_gib,cpu_vcpus,dirty_pages_per_s,working_set_pages\n");
  EXPECT_THROW(Fleet::from_csv(bad_header, no_vms), util::ContractError);

  std::istringstream ok_hosts(
      "name,vcpus,ram_gib,nic_gbit,group,max_migrations\n"
      "alpha,32,64,10,rackA,2\n");
  std::istringstream unknown_host(
      "id,host,vcpus,ram_gib,cpu_vcpus,dirty_pages_per_s,working_set_pages\n"
      "web01,missing,4,8,2.5,12000,250000\n");
  EXPECT_THROW(Fleet::from_csv(ok_hosts, unknown_host), util::ContractError);
}

TEST(Fleet, CsvRejectsMalformedSpecs) {
  const std::string host_header =
      "name,vcpus,ram_gib,nic_gbit,group,max_migrations\n";
  const std::string good_host = "alpha,32,64,10,rackA,2\n";
  const std::string vm_header =
      "id,host,vcpus,ram_gib,cpu_vcpus,dirty_pages_per_s,working_set_pages\n";
  const std::string good_vm = "web01,alpha,4,8,2.5,12000,250000\n";

  const auto expect_host_rejected = [&](const std::string& row) {
    std::istringstream hosts(host_header + row);
    std::istringstream vms(vm_header + good_vm);
    EXPECT_THROW(Fleet::from_csv(hosts, vms), util::ContractError) << row;
  };
  const auto expect_vm_rejected = [&](const std::string& rows) {
    std::istringstream hosts(host_header + good_host);
    std::istringstream vms(vm_header + rows);
    EXPECT_THROW(Fleet::from_csv(hosts, vms), util::ContractError) << rows;
  };

  // Host rows: non-finite and non-positive capacities must not survive
  // into a Fleet where they would poison utilisation and fit checks.
  expect_host_rejected("alpha,nan,64,10,rackA,2\n");
  expect_host_rejected("alpha,0,64,10,rackA,2\n");
  expect_host_rejected("alpha,-8,64,10,rackA,2\n");
  expect_host_rejected("alpha,32,0,10,rackA,2\n");
  expect_host_rejected("alpha,32,-64,10,rackA,2\n");
  expect_host_rejected("alpha,32,64,-10,rackA,2\n");
  expect_host_rejected("alpha,32,64,inf,rackA,2\n");
  expect_host_rejected("alpha,32,64,10,rackA,-1\n");

  // VM rows: empty/duplicate ids and negative demand columns.
  expect_vm_rejected(",alpha,4,8,2.5,12000,250000\n");
  expect_vm_rejected(good_vm + "web01,alpha,2,4,1.0,5000,100000\n");
  expect_vm_rejected("web01,alpha,0,8,2.5,12000,250000\n");
  expect_vm_rejected("web01,alpha,4,-8,2.5,12000,250000\n");
  expect_vm_rejected("web01,alpha,4,8,-2.5,12000,250000\n");
  expect_vm_rejected("web01,alpha,4,8,2.5,-12000,250000\n");
  expect_vm_rejected("web01,alpha,4,8,2.5,12000,-250000\n");
  expect_vm_rejected("web01,alpha,4,8,nan,12000,250000\n");

  // Distinct ids on a valid host still parse.
  std::istringstream hosts(host_header + good_host);
  std::istringstream vms(vm_header + good_vm + "web02,alpha,2,4,1.0,5000,100000\n");
  const Fleet ok = Fleet::from_csv(hosts, vms);
  EXPECT_EQ(ok.vm_count(), 2u);
}

TEST(Fleet, RefreshLoadsTracksTrailingWindow) {
  // One host, one VM with a step history: 1 vCPU before t=1000,
  // 3 vCPUs after. A trailing window entirely inside the high plateau
  // must report ~3.
  Fleet fleet;
  cloud::HostSpec spec;
  spec.name = "h";
  spec.vcpus = 8;
  spec.ram_bytes = util::gib(32.0);
  const int h = fleet.add_host(spec);
  FleetVm vm;
  vm.id = "v";
  vm.vcpus = 4;
  vm.ram_bytes = util::gib(1.0);
  vm.working_set_pages = 1000;
  for (double t = 0.0; t <= 2000.0; t += 10.0) {
    vm.history.t.push_back(t);
    vm.history.cpu.push_back(t < 1000.0 ? 1.0 : 3.0);
    vm.history.dirty.push_back(t < 1000.0 ? 100.0 : 900.0);
  }
  fleet.add_vm(vm, h);
  fleet.refresh_loads(2000.0, 500.0);
  EXPECT_NEAR(fleet.vm(0).cpu_now, 3.0, 1e-9);
  EXPECT_NEAR(fleet.vm(0).dirty_now, 900.0, 1e-9);
  EXPECT_NEAR(fleet.host(0).cpu_load, 3.0, 1e-9);
  EXPECT_NEAR(fleet.host_utilisation(0), 3.0 / 8.0, 1e-9);
}

// ----------------------------------------------------------------- model

core::Wavm3Model make_model() {
  core::Wavm3Model m;
  for (const MigrationType type : {MigrationType::kNonLive, MigrationType::kLive}) {
    const double t = type == MigrationType::kLive ? 1.0 : 0.7;
    core::Wavm3Coefficients table;
    table.source.initiation = {2.1 * t, 1.3, 0.0, 0.0, 210.0};
    table.source.transfer = {2.4 * t, 1.1e-7, 55.0, 1.9, 205.0};
    table.source.activation = {2.2 * t, 1.2, 0.0, 0.0, 208.0};
    table.target.initiation = {1.9 * t, 0.8, 0.0, 0.0, 200.0};
    table.target.transfer = {2.0 * t, 0.9e-7, 12.0, 0.7, 198.0};
    table.target.activation = {2.1 * t, 1.0, 0.0, 0.0, 202.0};
    m.set_coefficients(type, table);
  }
  return m;
}

// --------------------------------------------------------------- planner

PlannerConfig test_config() {
  PlannerConfig config;
  config.policy.underload_fraction = 0.30;
  config.policy.overload_fraction = 0.90;
  config.wave_horizon_s = 2.0 * 7200.0;
  return config;
}

TEST(MigrationPlanner, RejectsNonWavm3Models) {
  // Hypothetical moves are priced by core::MigrationPlanner::forecast,
  // which needs WAVM3's per-phase tables.
  const models::HuangModel huang;
  EXPECT_THROW(MigrationPlanner(huang, test_config()), util::ContractError);
  const core::Wavm3Model model = make_model();
  EXPECT_NO_THROW(MigrationPlanner(model, test_config()));
}

TEST(MigrationPlanner, MoveEnergiesEqualScalarForecast) {
  // Every committed move, blind and cycle-aligned, costs exactly what
  // core::MigrationPlanner::forecast says for its scenario.
  const core::Wavm3Model model = make_model();
  const core::MigrationPlanner scalar(model);
  const PlannerConfig config = test_config();
  const double now = SyntheticFleetOptions{}.history_s;
  Fleet fleet = Fleet::synthetic(24, 120, 31);
  Fleet before = fleet;
  before.refresh_loads(now, config.load_window_s);

  MigrationPlanner planner(model, config);
  const BeamSearchStrategy beam;
  const WavePlan plan = planner.plan_wave(fleet, beam, now);
  ASSERT_GT(plan.moves_cycle_aligned, 0);
  ASSERT_LT(plan.moves_cycle_aligned, static_cast<int>(plan.moves.size()));
  EXPECT_EQ(plan.batch_rows % 2, 0u);

  const CycleDetector detector(config.cycles);
  double total = 0.0;
  for (const ScheduledMove& m : plan.moves) {
    core::MigrationScenario sc = move_scenario(before, config, m.vm, m.source, m.target);
    if (m.cycle_aligned) {
      const VmHistory& hist = before.vm(m.vm).history;
      sc.vm_dirty_pages_per_s = detector.analyze(hist.t, hist.dirty).low_mean;
    }
    const core::MigrationForecast expect = scalar.forecast(sc);
    EXPECT_EQ(m.energy_j, expect.total_energy()) << "vm " << m.vm;
    EXPECT_EQ(m.downtime_s, expect.downtime) << "vm " << m.vm;
    total += m.energy_j;
  }
  EXPECT_DOUBLE_EQ(plan.total_migration_energy_j, total);
}

TEST(MigrationPlanner, WaveRespectsCapacityAndConcurrency) {
  const core::Wavm3Model model = make_model();
  Fleet fleet = Fleet::synthetic(24, 120, 23);
  MigrationPlanner planner(model, test_config());
  const BeamSearchStrategy beam;
  const double now = SyntheticFleetOptions{}.history_s;
  const WavePlan plan = planner.plan_wave(fleet, beam, now);

  ASSERT_GT(plan.donors_considered, 0);
  ASSERT_FALSE(plan.moves.empty());
  EXPECT_GT(plan.candidates_scored, 0u);
  EXPECT_EQ(plan.batch_rows % 2, 0u);

  // Committed fleet: every host within RAM capacity and under the
  // overload fraction; vacated donors are empty and powered off.
  std::map<int, int> vacated;
  for (const ScheduledMove& m : plan.moves) {
    EXPECT_GE(m.start_s, now);
    EXPECT_GT(m.end_s, m.start_s);
    vacated[m.source] = 1;
  }
  EXPECT_EQ(static_cast<int>(vacated.size()), plan.donors_vacated);
  for (const auto& [h, one] : vacated) {
    (void)one;
    EXPECT_TRUE(fleet.host(h).vms.empty()) << "donor " << h << " only partially vacated";
    EXPECT_FALSE(fleet.host(h).powered_on);
  }
  for (std::size_t h = 0; h < fleet.host_count(); ++h) {
    const FleetHost& host = fleet.host(static_cast<int>(h));
    EXPECT_LE(host.ram_committed, host.spec.ram_bytes);
    if (host.powered_on && vacated.count(static_cast<int>(h)) == 0) {
      EXPECT_LE(fleet.host_utilisation(static_cast<int>(h)),
                planner.config().policy.overload_fraction + 1e-9);
    }
  }

  // Concurrency caps: no host serves overlapping migrations beyond its
  // max_concurrent_migrations (1 in the synthetic fleet).
  std::map<int, std::vector<std::pair<double, double>>> busy;
  for (const ScheduledMove& m : plan.moves) {
    busy[m.source].emplace_back(m.start_s, m.end_s);
    busy[m.target].emplace_back(m.start_s, m.end_s);
  }
  for (const auto& [h, intervals] : busy) {
    const int cap = fleet.host(h).spec.max_concurrent_migrations;
    for (std::size_t a = 0; a < intervals.size(); ++a) {
      int overlapping = 0;
      for (std::size_t b = 0; b < intervals.size(); ++b) {
        if (intervals[b].first < intervals[a].second &&
            intervals[b].second > intervals[a].first) {
          ++overlapping;
        }
      }
      EXPECT_LE(overlapping, cap) << "host " << h;
    }
  }
}

TEST(MigrationPlanner, BeamNeverCostsMoreThanFirstFit) {
  const core::Wavm3Model model = make_model();
  Fleet fleet = Fleet::synthetic(32, 160, 29);
  MigrationPlanner planner(model, test_config());
  const double now = SyntheticFleetOptions{}.history_s;

  const FirstFitStrategy first_fit;
  const BeamSearchStrategy beam;
  const WavePlan naive = planner.plan_wave(fleet, first_fit, now, /*commit=*/false);
  const WavePlan smart = planner.plan_wave(fleet, beam, now, /*commit=*/false);

  ASSERT_FALSE(naive.moves.empty());
  ASSERT_FALSE(smart.moves.empty());
  // Identical donors vacated (all-or-nothing from the same candidate
  // set), strictly no more predicted energy.
  EXPECT_EQ(smart.donors_vacated, naive.donors_vacated);
  EXPECT_LE(smart.total_migration_energy_j, naive.total_migration_energy_j * (1.0 + 1e-12));
}

TEST(MigrationPlanner, CycleAwareSchedulingNeverCostsMoreAndAligns) {
  const core::Wavm3Model model = make_model();
  SyntheticFleetOptions opts;
  opts.periodic_fraction = 1.0;  // the paper's periodic-workload scenario
  Fleet fleet = Fleet::synthetic(24, 120, 31, opts);
  const double now = opts.history_s;

  PlannerConfig aware_cfg = test_config();
  aware_cfg.cycle_aware = true;
  PlannerConfig blind_cfg = test_config();
  blind_cfg.cycle_aware = false;

  const BeamSearchStrategy beam;
  MigrationPlanner aware(model, aware_cfg);
  MigrationPlanner blind(model, blind_cfg);
  const WavePlan blind_plan = blind.plan_wave(fleet, beam, now, /*commit=*/false);
  const WavePlan aware_plan = aware.plan_wave(fleet, beam, now, /*commit=*/false);

  ASSERT_FALSE(blind_plan.moves.empty());
  // Selection is cycle-independent, so the same moves are planned; the
  // scheduler only swaps in an aligned (low-dirtying-window) variant
  // when it is no dearer — per move, hence in total.
  ASSERT_EQ(aware_plan.moves.size(), blind_plan.moves.size());
  EXPECT_EQ(blind_plan.moves_cycle_aligned, 0);
  EXPECT_GT(aware_plan.moves_cycle_aligned, 0);
  EXPECT_LE(aware_plan.total_migration_energy_j,
            blind_plan.total_migration_energy_j * (1.0 + 1e-12));
  // Aligned moves must start inside their low-dirtying window => at
  // least one move is deferred rather than immediate.
  bool any_deferred = false;
  for (const ScheduledMove& m : aware_plan.moves) {
    if (m.cycle_aligned && m.start_s > now) any_deferred = true;
  }
  EXPECT_TRUE(any_deferred);
}

TEST(MigrationPlanner, WavesRollForward) {
  // Consecutive waves keep consolidating: powered hosts never increase,
  // and a vacated host stays off and receives nothing.
  const core::Wavm3Model model = make_model();
  Fleet fleet = Fleet::synthetic(24, 96, 41);
  MigrationPlanner planner(model, test_config());
  const BeamSearchStrategy beam;
  double now = SyntheticFleetOptions{}.history_s;

  const auto powered = [&] {
    int n = 0;
    for (std::size_t h = 0; h < fleet.host_count(); ++h) {
      if (fleet.host(static_cast<int>(h)).powered_on) ++n;
    }
    return n;
  };
  int prev = powered();
  for (int wave = 0; wave < 3; ++wave) {
    const WavePlan plan = planner.plan_wave(fleet, beam, now);
    const int cur = powered();
    EXPECT_EQ(cur, prev - plan.donors_vacated);
    for (const ScheduledMove& m : plan.moves) {
      EXPECT_TRUE(fleet.host(m.target).powered_on);
    }
    prev = cur;
    now += 1800.0;
  }
  EXPECT_LT(prev, 24);
}

// ------------------------------------------------ golden wave parity
//
// Bit-exact outputs of three committed waves on a 128-host / 1280-VM
// synthetic fleet, for both strategies with cycle scheduling on and
// off. The values were recorded from the planner that analysed every
// donor VM's cycle and priced every candidate's aligned variant before
// selection; the wave now analyses and prices only what the strategy
// and the scheduler read, and must schedule exactly the same moves.

/// One committed wave's totals and an FNV-1a digest over the bit
/// patterns of every ScheduledMove field, in schedule order.
struct WaveGolden {
  std::size_t moves = 0;
  int moves_cycle_aligned = 0;
  int donors_considered = 0;
  int donors_vacated = 0;
  int overloaded_hosts_before = 0;
  int overloaded_hosts_after = 0;
  double total_migration_energy_j = 0.0;
  double total_downtime_s = 0.0;
  double steady_saving_j = 0.0;
  std::uint64_t move_digest = 0;
};

std::uint64_t move_digest(const std::vector<ScheduledMove>& moves) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const ScheduledMove& m : moves) {
    mix(static_cast<std::uint64_t>(m.vm));
    mix(static_cast<std::uint64_t>(m.source));
    mix(static_cast<std::uint64_t>(m.target));
    mix(std::bit_cast<std::uint64_t>(m.start_s));
    mix(std::bit_cast<std::uint64_t>(m.end_s));
    mix(m.cycle_aligned ? 1u : 0u);
    mix(std::bit_cast<std::uint64_t>(m.energy_j));
    mix(std::bit_cast<std::uint64_t>(m.downtime_s));
  }
  return h;
}

void expect_golden_waves(const PlacementStrategy& strategy, bool cycle_aware,
                         const std::vector<WaveGolden>& golden) {
  const core::Wavm3Model model = make_model();
  PlannerConfig config = test_config();
  config.cycle_aware = cycle_aware;
  MigrationPlanner planner(model, config);
  Fleet fleet = Fleet::synthetic(128, 1280, 2015);
  for (std::size_t w = 0; w < golden.size(); ++w) {
    SCOPED_TRACE(::testing::Message() << strategy.name() << (cycle_aware ? " aware" : " blind")
                                    << " wave " << w);
    const double now = SyntheticFleetOptions{}.history_s + 7200.0 * static_cast<double>(w);
    const WavePlan p = planner.plan_wave(fleet, strategy, now);
    const WaveGolden& g = golden[w];
    EXPECT_EQ(p.moves.size(), g.moves);
    EXPECT_EQ(p.moves_cycle_aligned, g.moves_cycle_aligned);
    EXPECT_EQ(p.donors_considered, g.donors_considered);
    EXPECT_EQ(p.donors_vacated, g.donors_vacated);
    EXPECT_EQ(p.overloaded_hosts_before, g.overloaded_hosts_before);
    EXPECT_EQ(p.overloaded_hosts_after, g.overloaded_hosts_after);
    EXPECT_EQ(p.total_migration_energy_j, g.total_migration_energy_j);
    EXPECT_EQ(p.total_downtime_s, g.total_downtime_s);
    EXPECT_EQ(p.steady_saving_j, g.steady_saving_j);
    EXPECT_EQ(move_digest(p.moves), g.move_digest);
    // Cycle analysis runs on the chosen moves' VMs only.
    EXPECT_LE(p.histories_analyzed, p.moves.size());
  }
}

TEST(GoldenWaves, FirstFitCycleBlind) {
  expect_golden_waves(FirstFitStrategy{}, false, {
      {110, 0, 57, 11, 0, 0, 0x1.7b755d2ab91d2p+20, 0x1.34288a6100a52p+7, 0x1.03d3ap+24, 0x3b97bddd5f77e648ull},
      {35, 0, 58, 3, 0, 0, 0x1.a11c7a2d0b194p+18, 0x1.88000027fad0cp+5, 0x1.1b728p+22, 0xa3814975403b9199ull},
      {26, 0, 57, 2, 0, 0, 0x1.28ad37b33a67cp+18, 0x1.23333350e634bp+5, 0x1.79eep+21, 0x686e333aa134ed2full},
  });
}

TEST(GoldenWaves, FirstFitCycleAware) {
  expect_golden_waves(FirstFitStrategy{}, true, {
      {110, 71, 57, 11, 0, 0, 0x1.71ee9b868d8bap+20, 0x1.341dcbd2848d5p+7, 0x1.03d3ap+24, 0xd2ee61e2de432e5eull},
      {35, 0, 58, 3, 0, 0, 0x1.a11c7a2d0b194p+18, 0x1.88000027fad0cp+5, 0x1.1b728p+22, 0xa3814975403b9199ull},
      {26, 0, 57, 2, 0, 0, 0x1.28ad37b33a67cp+18, 0x1.23333350e634bp+5, 0x1.79eep+21, 0x686e333aa134ed2full},
  });
}

TEST(GoldenWaves, BeamCycleBlind) {
  expect_golden_waves(BeamSearchStrategy{}, false, {
      {120, 0, 57, 12, 0, 0, 0x1.9f4ccdb72f8d3p+20, 0x1.502a7e3d3ede8p+7, 0x1.1b728p+24, 0xd51bec467b063d6full},
      {48, 0, 58, 4, 0, 0, 0x1.15e15068c9034p+19, 0x1.0ccccce836f5ap+6, 0x1.79eep+22, 0x78217de24f8cf32bull},
      {44, 0, 56, 4, 0, 0, 0x1.0315691e579eap+19, 0x1.ecccccff0f6cdp+5, 0x1.79eep+22, 0x143caa9be33aa71full},
  });
}

TEST(GoldenWaves, BeamCycleAware) {
  expect_golden_waves(BeamSearchStrategy{}, true, {
      {120, 76, 57, 12, 0, 0, 0x1.952105a34c187p+20, 0x1.501ff11708698p+7, 0x1.1b728p+24, 0x76af6c617c0caf92ull},
      {48, 0, 58, 4, 0, 0, 0x1.15e15068c9034p+19, 0x1.0ccccce836f5ap+6, 0x1.79eep+22, 0x78217de24f8cf32bull},
      {44, 0, 56, 4, 0, 0, 0x1.0315691e579eap+19, 0x1.ecccccff0f6cdp+5, 0x1.79eep+22, 0x143caa9be33aa71full},
  });
}

/// A fleet of 32-vCPU / 32-GiB hosts named `hosts`, for hand-built
/// planner cases.
Fleet host32_fleet(std::initializer_list<const char*> hosts) {
  Fleet fleet;
  for (const char* name : hosts) {
    cloud::HostSpec spec;
    spec.name = name;
    spec.vcpus = 32;
    spec.ram_bytes = util::gib(32);
    fleet.add_host(spec);
  }
  return fleet;
}

void add_fleet_vm(Fleet& fleet, const std::string& id, double cpu, double ram_gib, int host) {
  FleetVm vm;
  vm.id = id;
  vm.vcpus = std::max(1.0, cpu);
  vm.ram_bytes = util::gib(ram_gib);
  vm.working_set_pages = 1000;
  vm.cpu_now = cpu;
  vm.dirty_now = 500.0;
  fleet.add_vm(vm, host);
}

TEST(MigrationPlanner, SunkDonorPricesNoCandidates) {
  // Two receivers at 37.5% CPU with 8 GiB committed, two donors. The
  // first donor's largest VM (30 GiB) fits on neither receiver, so the
  // donor sinks at its first VM and its small VM is never priced; the
  // second donor still vacates.
  const core::Wavm3Model model = make_model();
  Fleet fleet = host32_fleet({"r0", "r1", "sunk", "light"});
  add_fleet_vm(fleet, "load0", 12.0, 8.0, 0);
  add_fleet_vm(fleet, "load1", 12.0, 8.0, 1);
  add_fleet_vm(fleet, "big", 2.0, 30.0, 2);
  add_fleet_vm(fleet, "small", 1.0, 1.0, 2);
  add_fleet_vm(fleet, "a", 1.0, 1.0, 3);
  add_fleet_vm(fleet, "b", 1.0, 1.0, 3);

  MigrationPlanner planner(model, test_config());
  const WavePlan plan = planner.plan_wave(fleet, BeamSearchStrategy{}, 0.0);
  EXPECT_EQ(plan.donors_considered, 2);
  // Two light VMs x two receivers; "small" on the sunk donor adds 0.
  EXPECT_EQ(plan.candidates_scored, 4u);
  EXPECT_EQ(plan.batch_rows, 2 * plan.candidates_scored);
  EXPECT_EQ(plan.donors_vacated, 1);
  ASSERT_EQ(plan.moves.size(), 2u);
  for (const ScheduledMove& m : plan.moves) EXPECT_EQ(m.source, fleet.host_index("light"));
  EXPECT_FALSE(fleet.host(fleet.host_index("light")).powered_on);
  EXPECT_TRUE(fleet.host(fleet.host_index("sunk")).powered_on);
}

TEST(MigrationPlanner, DonorThatCannotBePlacedAtOncePricesNoCandidates) {
  // r0 has 12 GiB free, r1 11 GiB with 8.8 vCPUs of headroom. Donor
  // "pair" holds two 11.5-GiB VMs that each fit on r0 only, so they
  // cannot both move: the donor sinks at its second VM, unpriced.
  // Donor "tricky" can be placed, but only by sending its 11-GiB VM to
  // r1 and its 9-vCPU VM to r0: first-fit puts the first on r0 and
  // fails, beam search finds the placement. Its three candidates are
  // priced under both strategies.
  const core::Wavm3Model model = make_model();
  for (const bool beam : {false, true}) {
    SCOPED_TRACE(beam ? "beam" : "first-fit");
    Fleet fleet = host32_fleet({"r0", "r1", "pair", "tricky"});
    add_fleet_vm(fleet, "load0", 12.0, 20.0, 0);
    add_fleet_vm(fleet, "load1", 20.0, 21.0, 1);
    add_fleet_vm(fleet, "p1", 0.5, 11.5, 2);
    add_fleet_vm(fleet, "p2", 0.5, 11.5, 2);
    add_fleet_vm(fleet, "a", 0.5, 11.0, 3);
    add_fleet_vm(fleet, "b", 9.0, 2.0, 3);

    MigrationPlanner planner(model, test_config());
    const WavePlan plan = beam ? planner.plan_wave(fleet, BeamSearchStrategy{}, 0.0)
                               : planner.plan_wave(fleet, FirstFitStrategy{}, 0.0);
    EXPECT_EQ(plan.donors_considered, 2);
    EXPECT_EQ(plan.candidates_scored, 3u);
    EXPECT_TRUE(fleet.host(fleet.host_index("pair")).powered_on);
    if (!beam) {
      EXPECT_TRUE(plan.moves.empty());
      continue;
    }
    ASSERT_EQ(plan.moves.size(), 2u);
    for (const ScheduledMove& m : plan.moves) {
      EXPECT_EQ(m.source, fleet.host_index("tricky"));
      EXPECT_EQ(m.target, fleet.host_index(fleet.vm(m.vm).id == "a" ? "r1" : "r0"));
    }
    EXPECT_FALSE(fleet.host(fleet.host_index("tricky")).powered_on);
  }
}

// ------------------------------------------------- the vacate decision
//
// Suite "Manager": the consolidation-manager actor of the paper's
// SIII-B(a), which decides whether vacating an underloaded host is
// worth its migration energy. Hosts and VMs come from cloud::
// instances through Fleet::from_datacenter.

const core::Wavm3Model& fitted_model() {
  static const core::Wavm3Model m = [] {
    core::Wavm3Model model;
    model.fit(wavm3::testing::fast_campaign_m().dataset);
    return model;
  }();
  return m;
}

PlannerConfig m_config() {
  PlannerConfig config;
  config.host_power.idle_watts = 433.0;
  config.host_power.watts_per_vcpu = 12.0;
  return config;
}

cloud::HostSpec host32(const std::string& name) {
  cloud::HostSpec h;
  h.name = name;
  h.vcpus = 32;
  h.ram_bytes = util::gib(32);
  return h;
}

/// One what-if beam wave over a snapshot of `dc`, with its ledger.
struct VacatePlan {
  Fleet fleet;
  WavePlan wave;
  std::vector<DonorLedger> ledger;
};

VacatePlan plan_vacates(const cloud::DataCenter& dc, const PlannerConfig& config) {
  VacatePlan out{Fleet::from_datacenter(dc, 0.0), {}, {}};
  MigrationPlanner planner(fitted_model(), config);
  out.wave = planner.plan_wave(out.fleet, BeamSearchStrategy{}, 0.0, /*commit=*/false);
  out.ledger = donor_ledger(out.wave, config);
  return out;
}

TEST(Manager, ScenarioMapsLoadsAndVmSignature) {
  cloud::DataCenter dc;
  cloud::Host& a = dc.add_host(host32("a"));
  cloud::Host& b = dc.add_host(host32("b"));
  a.add_vm(cloud::make_migrating_mem_vm("mv", 0.95));
  for (int i = 0; i < 3; ++i) b.add_vm(cloud::make_load_cpu_vm("l" + std::to_string(i)));

  const Fleet fleet = Fleet::from_datacenter(dc, 0.0);
  const int src = fleet.host_index("a");
  const core::MigrationScenario sc =
      move_scenario(fleet, m_config(), fleet.host(src).vms.front(), src, fleet.host_index("b"));
  EXPECT_DOUBLE_EQ(sc.vm_mem_bytes, util::gib(4));
  EXPECT_DOUBLE_EQ(sc.vm_cpu_vcpus, 1.0);
  EXPECT_GT(sc.vm_dirty_pages_per_s, 1e5);
  // Host loads are the placed VMs' demand (no hypervisor overhead).
  EXPECT_NEAR(sc.source_cpu_load, a.total_vm_demand(0.0) - 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(sc.target_cpu_load, b.total_vm_demand(0.0));
  EXPECT_DOUBLE_EQ(sc.source_cpu_capacity, 32.0);
}

TEST(Manager, VacatePlanCoversEveryVm) {
  cloud::DataCenter dc;
  cloud::Host& a = dc.add_host(host32("a"));
  dc.add_host(host32("b"));
  dc.add_host(host32("c"));
  a.add_vm(cloud::make_load_cpu_vm("v1"));
  a.add_vm(cloud::make_migrating_cpu_vm("v2"));

  const VacatePlan plan = plan_vacates(dc, m_config());
  const int src = plan.fleet.host_index("a");
  ASSERT_EQ(plan.ledger.size(), 1u);
  EXPECT_EQ(plan.ledger.front().host, src);
  EXPECT_EQ(plan.ledger.front().moves, 2u);
  ASSERT_EQ(plan.wave.moves.size(), 2u);
  for (const ScheduledMove& m : plan.wave.moves) {
    EXPECT_EQ(m.source, src);
    EXPECT_NE(m.target, src);
    EXPECT_GT(m.energy_j, 0.0);
  }
  EXPECT_GT(plan.ledger.front().steady_saving_j, 0.0);
  EXPECT_DOUBLE_EQ(plan.ledger.front().steady_saving_j, plan.wave.steady_saving_j);
}

TEST(Manager, LongHorizonMakesVacatingBeneficial) {
  cloud::DataCenter dc;
  cloud::Host& a = dc.add_host(host32("a"));
  dc.add_host(host32("b"));
  a.add_vm(cloud::make_load_cpu_vm("v1"));

  PlannerConfig config = m_config();
  config.policy.horizon_seconds = 24 * 3600.0;  // a day off saves ~37 MJ
  const VacatePlan plan = plan_vacates(dc, config);
  ASSERT_EQ(plan.ledger.size(), 1u);
  EXPECT_GT(plan.ledger.front().net_j, 0.0);
  EXPECT_GT(plan.ledger.front().net_j, 1e6);
}

TEST(Manager, InfeasibleWhenTargetsFull) {
  cloud::DataCenter dc;
  cloud::Host& a = dc.add_host(host32("a"));
  cloud::Host& b = dc.add_host(host32("b"));
  a.add_vm(cloud::make_load_cpu_vm("v1"));
  // Saturate the only target beyond the overload threshold.
  for (int i = 0; i < 8; ++i) b.add_vm(cloud::make_load_cpu_vm("bl" + std::to_string(i)));

  const VacatePlan plan = plan_vacates(dc, m_config());
  EXPECT_TRUE(plan.ledger.empty());
  EXPECT_TRUE(plan.wave.moves.empty());
}

TEST(Manager, PlanScansOnlyUnderloadedHosts) {
  cloud::DataCenter dc;
  cloud::Host& light = dc.add_host(host32("light"));
  cloud::Host& heavy = dc.add_host(host32("heavy"));
  // Two empty receivers: four powered hosts let two donors in per wave,
  // and heavy's VMs would fit on them, so only the underload threshold
  // keeps heavy out of the ledger.
  dc.add_host(host32("spare"));
  dc.add_host(host32("spare2"));
  light.add_vm(cloud::make_load_cpu_vm("lv"));                 // ~14% load
  for (int i = 0; i < 6; ++i) heavy.add_vm(cloud::make_load_cpu_vm("h" + std::to_string(i)));

  PlannerConfig config = m_config();
  config.policy.underload_fraction = 0.30;
  const VacatePlan plan = plan_vacates(dc, config);
  ASSERT_EQ(plan.ledger.size(), 1u);
  EXPECT_EQ(plan.fleet.host(plan.ledger.front().host).spec.name, "light");
}

TEST(Manager, HighDirtyVmOntoLoadedHostCostsMore) {
  // The SVIII guidance: migrating a high-dirtying-ratio VM towards a
  // CPU-loaded host is the expensive move the model should expose.
  cloud::DataCenter dc;
  cloud::Host& src = dc.add_host(host32("src"));
  dc.add_host(host32("idle"));
  cloud::Host& busy_tgt = dc.add_host(host32("busy"));
  src.add_vm(cloud::make_migrating_mem_vm("mv", 0.95));
  for (int i = 0; i < 7; ++i) busy_tgt.add_vm(cloud::make_load_cpu_vm("b" + std::to_string(i)));

  const Fleet fleet = Fleet::from_datacenter(dc, 0.0);
  const int source = fleet.host_index("src");
  const int vm = fleet.host(source).vms.front();
  const core::MigrationPlanner forecaster(fitted_model());
  const auto to_idle = forecaster.forecast(
      move_scenario(fleet, m_config(), vm, source, fleet.host_index("idle")));
  const auto to_busy = forecaster.forecast(
      move_scenario(fleet, m_config(), vm, source, fleet.host_index("busy")));
  // The busy target throttles the transfer and burns more energy.
  EXPECT_GE(to_busy.times.transfer_duration(), to_idle.times.transfer_duration());
  EXPECT_GT(to_busy.total_energy(), to_idle.total_energy());
}

TEST(Manager, PolicyValidation) {
  // Every caller of the planner (wavm3 plan, dcsim's controller,
  // chaos's executor) inherits these checks.
  const core::Wavm3Model model = make_model();
  const auto rejects = [&](const ConsolidationPolicy& policy) {
    PlannerConfig config = test_config();
    config.policy = policy;
    EXPECT_THROW(MigrationPlanner(model, config), util::ContractError);
  };
  ConsolidationPolicy bad;
  bad.underload_fraction = 0.9;
  bad.overload_fraction = 0.5;
  rejects(bad);
  bad = {};
  bad.underload_fraction = 0.0;
  rejects(bad);
  bad = {};
  bad.overload_fraction = 1.5;
  rejects(bad);
  bad = {};
  bad.horizon_seconds = 0.0;
  rejects(bad);
  bad = {};
  bad.max_retries = -1;
  rejects(bad);
  EXPECT_NO_THROW(MigrationPlanner(model, PlannerConfig{}));
}

}  // namespace
}  // namespace wavm3::plan
