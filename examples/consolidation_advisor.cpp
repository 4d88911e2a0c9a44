// Consolidation advisor: the paper's motivating use-case (SI, SVIII).
//
// A small data centre has an underutilised host. Shutting it down saves
// idle power, but emptying it costs migration energy. This example
// shows how the answer flips with (1) the planning horizon and (2) the
// workload on the VMs being moved — including the paper's SVIII
// warning: a high-dirtying-ratio VM is expensive to consolidate onto a
// CPU-loaded host, which a workload-blind cost model misses.
//
// Build & run:  ./build/examples/consolidation_advisor
#include <cstdio>

#include "cloud/instances.hpp"
#include "core/planner.hpp"
#include "core/wavm3_model.hpp"
#include "exp/campaign.hpp"
#include "plan/planner.hpp"
#include "plan/strategy.hpp"
#include "util/units.hpp"

using namespace wavm3;

namespace {

cloud::HostSpec host32(const std::string& name) {
  cloud::HostSpec h;
  h.name = name;
  h.vcpus = 32;
  h.ram_bytes = util::gib(32);
  return h;
}

/// Plans one what-if wave over a snapshot of `dc` and prints each
/// donor's vacate ledger with its moves.
void report_plans(const char* label, const cloud::DataCenter& dc,
                  const core::Wavm3Model& model, const plan::PlannerConfig& config) {
  std::printf("%s\n", label);
  plan::Fleet fleet = plan::Fleet::from_datacenter(dc, 0.0);
  plan::MigrationPlanner planner(model, config);
  const plan::WavePlan wave =
      planner.plan_wave(fleet, plan::BeamSearchStrategy{}, 0.0, /*commit=*/false);
  const std::vector<plan::DonorLedger> ledger = plan::donor_ledger(wave, config);
  if (ledger.empty()) {
    std::puts("  (no underutilised host worth vacating)");
    return;
  }
  for (const plan::DonorLedger& d : ledger) {
    std::printf("  vacate %-6s: %zu migration(s), cost %.1f kJ, saving %.1f kJ -> net %+.1f kJ %s\n",
                fleet.host(d.host).spec.name.c_str(), d.moves, d.migration_energy_j / 1e3,
                d.steady_saving_j / 1e3, d.net_j / 1e3, d.net_j > 0.0 ? "[DO IT]" : "[SKIP]");
    for (const plan::ScheduledMove& m : wave.moves) {
      if (m.source != d.host) continue;
      std::printf("    %-4s -> %-6s  migration %.1f s, downtime %.2f s, move cost %.2f kJ\n",
                  fleet.vm(m.vm).id.c_str(), fleet.host(m.target).spec.name.c_str(),
                  m.end_s - m.start_s, m.downtime_s, m.energy_j / 1e3);
    }
  }
}

}  // namespace

int main() {
  std::puts("== WAVM3 consolidation advisor ==\n");

  // Fit the model from a reduced simulated campaign.
  const exp::CampaignResult campaign =
      exp::run_campaign(exp::testbed_m(), exp::fast_campaign_options(), 2015);
  core::Wavm3Model model;
  model.fit(campaign.dataset);

  plan::PlannerConfig config;
  config.host_power.idle_watts = campaign.measured_idle_power;
  config.host_power.watts_per_vcpu = 12.0;
  config.intra_group_payload_rate = 117.5e6;  // 1 GbE payload
  config.inter_group_payload_rate = 117.5e6;

  // --- Scene 1: a lightly loaded host, CPU-bound guests. ---
  {
    cloud::DataCenter dc;
    cloud::Host& a = dc.add_host(host32("hostA"));
    cloud::Host& b = dc.add_host(host32("hostB"));
    dc.add_host(host32("hostC"));
    a.add_vm(cloud::make_load_cpu_vm("web1"));
    a.add_vm(cloud::make_load_cpu_vm("web2"));
    for (int i = 0; i < 3; ++i) b.add_vm(cloud::make_load_cpu_vm("db" + std::to_string(i)));

    config.policy.horizon_seconds = 3600.0;  // one hour
    report_plans("\nScene 1a: CPU-bound guests, 1 h horizon:", dc, model, config);

    config.policy.horizon_seconds = 60.0;  // about to redeploy everything anyway
    report_plans("\nScene 1b: same, but only a 60 s horizon:", dc, model, config);
  }

  // --- Scene 2: the SVIII warning — a memory-hot VM and busy targets. ---
  {
    cloud::DataCenter dc;
    cloud::Host& a = dc.add_host(host32("hostA"));
    cloud::Host& busy = dc.add_host(host32("busy"));
    dc.add_host(host32("idle"));
    a.add_vm(cloud::make_migrating_mem_vm("cache", 0.95));  // 95% dirtying ratio
    for (int i = 0; i < 7; ++i) busy.add_vm(cloud::make_load_cpu_vm("b" + std::to_string(i)));

    const plan::Fleet fleet = plan::Fleet::from_datacenter(dc, 0.0);
    const int source = fleet.host_index("hostA");
    const int cache = fleet.host(source).vms.front();
    const core::MigrationPlanner forecaster(model);
    const auto to_busy = forecaster.forecast(
        plan::move_scenario(fleet, config, cache, source, fleet.host_index("busy")));
    const auto to_idle = forecaster.forecast(
        plan::move_scenario(fleet, config, cache, source, fleet.host_index("idle")));

    std::puts("\nScene 2: where to consolidate a 95%-dirtying-ratio cache VM?");
    std::printf("  -> busy host: %.1f kJ, transfer %.1f s, downtime %.1f s%s\n",
                to_busy.total_energy() / 1e3, to_busy.times.transfer_duration(),
                to_busy.downtime,
                to_busy.degenerated_to_nonlive ? " (degenerates to non-live)" : "");
    std::printf("  -> idle host: %.1f kJ, transfer %.1f s, downtime %.1f s%s\n",
                to_idle.total_energy() / 1e3, to_idle.times.transfer_duration(),
                to_idle.downtime,
                to_idle.degenerated_to_nonlive ? " (degenerates to non-live)" : "");
    std::printf("  WAVM3 exposes the %.1f kJ premium of the busy target; a data-volume-only\n"
                "  model (LIU) would price both moves identically.\n",
                (to_busy.total_energy() - to_idle.total_energy()) / 1e3);
  }
  return 0;
}
