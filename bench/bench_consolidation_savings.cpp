// Extension bench (SVIII): integrates WAVM3 into a closed-loop
// data-centre simulation and quantifies what migration-cost-aware
// consolidation is worth at fleet scale. Not a table from the paper,
// but the deployment the paper's conclusion argues for. Emits
// bench_out/bench_consolidation_savings.json (energy, migrations, hosts
// off and plans rejected per case and strategy), which
// check_consolidation.cmake gates.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "bench_common.hpp"
#include "dcsim/simulation.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {
using namespace wavm3;

dcsim::DcSimConfig scenario(dcsim::Strategy strategy, double horizon, bool memory_hot) {
  dcsim::DcSimConfig cfg = dcsim::make_fleet_scenario(6, 16, 42);
  cfg.duration = 12.0 * 3600.0;
  cfg.controller_interval = 900.0;
  cfg.power_sample_period = 10.0;
  cfg.strategy = strategy;
  cfg.policy.underload_fraction = 0.35;
  cfg.policy.horizon_seconds = horizon;
  if (memory_hot) {
    // Cache-style guests: huge writable working sets make every live
    // migration degenerate and expensive (the paper's SVIII warning).
    for (auto& vm : cfg.vms) {
      vm.workload.dirty_pages_per_s_full = 300000.0;
      vm.workload.working_set_pages =
          static_cast<std::uint64_t>(0.9 * vm.spec.ram_bytes / 4096.0);
      vm.workload.profile = dcsim::LoadProfile::constant(0.25);
    }
  }
  return cfg;
}

void print_report() {
  benchx::print_banner("Extension: fleet energy under consolidation strategies");
  const auto& pl = benchx::pipeline();

  std::filesystem::create_directories("bench_out");
  std::ofstream json("bench_out/bench_consolidation_savings.json");
  json << "{";
  util::AsciiTable table({"Workload / horizon", "Strategy", "Energy [kWh]", "Migrations",
                          "Hosts off", "Plans rejected"});
  table.set_title("12 h simulation, 6 m-class hosts, 16 VMs");
  struct Case {
    const char* key;
    const char* label;
    double horizon;
    bool memory_hot;
  };
  const char* case_sep = "";
  for (const Case c : {Case{"diurnal", "diurnal, 2 h off-window", 7200.0, false},
                       Case{"memory_hot_30s", "memory-hot, 30 s off-window", 30.0, true}}) {
    json << case_sep << "\n  \"" << c.key << "\": {";
    case_sep = ",";
    const char* strategy_sep = "";
    for (const dcsim::Strategy strategy :
         {dcsim::Strategy::kNoConsolidation, dcsim::Strategy::kCostBlind,
          dcsim::Strategy::kCostAware}) {
      dcsim::DataCenterSimulation sim(
          scenario(strategy, c.horizon, c.memory_hot),
          strategy == dcsim::Strategy::kNoConsolidation ? nullptr : &pl.wavm3);
      const dcsim::DcSimReport r = sim.run();
      json << strategy_sep << "\n    \"" << to_string(strategy) << "\": {\"energy_j\": "
           << util::format("%.1f", r.total_energy_joules)
           << ", \"migrations\": " << r.migrations_executed
           << ", \"hosts_off\": " << r.power_off_events
           << ", \"plans_rejected\": " << r.plans_rejected_by_cost << "}";
      strategy_sep = ",";
      table.add_row({util::format("%s", c.label), to_string(strategy),
                     util::fmt_fixed(r.total_energy_joules / 3.6e6, 2),
                     util::format("%d", r.migrations_executed),
                     util::format("%d", r.power_off_events),
                     util::format("%d", r.plans_rejected_by_cost)});
    }
    json << "\n  }";
    table.add_separator();
  }
  json << "\n}\n";
  std::puts(table.render().c_str());
  std::puts("wrote bench_out/bench_consolidation_savings.json\n");
  std::puts("With cheap moves the strategies agree. With memory-hot guests and a 30 s\n"
            "expected off-window, the workload-aware forecast correctly prices every\n"
            "vacate plan as a net loss and refuses it (plans rejected > 0), while the\n"
            "blind strategy migrates anyway. (Whether refusing pays off then depends on\n"
            "how honest the off-window estimate is - the model prices the moves; the\n"
            "horizon is the operator's forecast.)\n");
}

void BM_FleetSimulation12h(benchmark::State& state) {
  const auto& pl = benchx::pipeline();
  for (auto _ : state) {
    dcsim::DataCenterSimulation sim(scenario(dcsim::Strategy::kCostAware, 7200.0, false),
                                    &pl.wavm3);
    const dcsim::DcSimReport r = sim.run();
    benchmark::DoNotOptimize(r.total_energy_joules);
  }
}
BENCHMARK(BM_FleetSimulation12h)->Unit(benchmark::kMillisecond);

void BM_ConsolidationPlanning(benchmark::State& state) {
  const auto& pl = benchx::pipeline();
  const core::MigrationPlanner planner(pl.wavm3);
  core::MigrationScenario sc;
  sc.vm_mem_bytes = 4.0 * 1024 * 1024 * 1024;
  sc.vm_cpu_vcpus = 2.0;
  sc.vm_dirty_pages_per_s = 5000.0;
  sc.vm_working_set_pages = 50000.0;
  sc.source_cpu_load = 10.0;
  sc.target_cpu_load = 20.0;
  for (auto _ : state) {
    const core::MigrationForecast fc = planner.forecast(sc);
    benchmark::DoNotOptimize(fc.total_energy());
  }
}
BENCHMARK(BM_ConsolidationPlanning);

}  // namespace

int main(int argc, char** argv) {
  print_report();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
