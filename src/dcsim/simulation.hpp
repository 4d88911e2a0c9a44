// Closed-loop data-centre simulation — the integration the paper's
// SVIII calls for ("such a model could also be easily integrated in
// Cloud simulators to provide more accurate estimation of energy
// consumption in data centres").
//
// A fleet of homogeneous hosts runs VMs with time-varying load
// profiles. A controller periodically (1) relieves overloaded hosts and
// (2) consolidates underutilised ones: it plans a what-if wave through
// plan::MigrationPlanner on a plan::Fleet snapshot of the live data
// centre, executes the chosen donor's migrations one at a time through
// the migration engine and powers the vacated host off. Total energy
// is integrated from the ground-truth power of every host, so
// different consolidation strategies can be compared end to end:
//
//   kNoConsolidation  - never migrate (baseline)
//   kCostBlind        - vacate whenever feasible, ignoring what the
//                       migrations themselves will cost
//   kCostAware        - vacate only when the WAVM3 forecast says the
//                       moves pay for themselves within the horizon
//                       (plan::donor_ledger net > 0)
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "cloud/datacenter.hpp"
#include "core/wavm3_model.hpp"
#include "dcsim/traced_workload.hpp"
#include "faults/fault_plan.hpp"
#include "migration/engine.hpp"
#include "net/bandwidth_model.hpp"
#include "plan/planner.hpp"
#include "power/host_power_model.hpp"

namespace wavm3::dcsim {

/// Consolidation strategy under test.
enum class Strategy { kNoConsolidation, kCostBlind, kCostAware };

const char* to_string(Strategy s);

/// One VM to place at simulation start.
struct VmPlacement {
  std::string vm_id;
  std::string host;          ///< initial host name
  cloud::VmSpec spec;
  TracedWorkloadParams workload;
};

/// Full simulation configuration.
struct DcSimConfig {
  std::vector<cloud::HostSpec> hosts;    ///< homogeneous fleet (>= 2)
  power::HostPowerParams power;          ///< ground-truth machine class
  net::LinkSpec link;                    ///< default link between any host pair
  net::BandwidthModelParams bandwidth;
  migration::MigrationConfig migration;
  std::vector<VmPlacement> vms;

  double duration = 4.0 * 3600.0;          ///< simulated seconds
  double controller_interval = 300.0;      ///< consolidation check cadence
  double power_sample_period = 2.0;        ///< energy-accounting resolution
  double standby_watts = 0.0;              ///< draw of a powered-off host
  plan::ConsolidationPolicy policy;
  Strategy strategy = Strategy::kCostAware;
  /// Optional fault schedule injected into the migration engine (link
  /// faults, overload spikes, connection losses). Failed plan moves
  /// are retried up to policy.max_retries each.
  std::shared_ptr<const faults::FaultPlan> faults;
};

/// What one simulation produced.
struct DcSimReport {
  Strategy strategy = Strategy::kNoConsolidation;
  double duration = 0.0;
  double total_energy_joules = 0.0;          ///< fleet energy over the horizon
  std::map<std::string, double> host_energy; ///< per-host breakdown
  int migrations_executed = 0;               ///< completed migrations
  int migrations_failed = 0;                 ///< rolled back or VM lost
  int migrations_retried = 0;                ///< re-attempts after rollback
  int migration_retries_exhausted = 0;       ///< rollbacks dropped at the retry cap
  /// Failed migrations keyed by cause ("rolled-back" / "vm-lost"); the
  /// per-cause split behind migrations_failed. Lost VMs never retry:
  /// the engine already restarted them on the target.
  std::map<std::string, int> migration_failures_by_cause;
  double wasted_migration_bytes = 0.0;       ///< traffic of failed migrations
  int plans_rejected_by_cost = 0;            ///< cost-aware refusals, one per donor per tick
  int power_off_events = 0;
  int power_on_events = 0;
  double total_migration_downtime = 0.0;
  /// Mean of the migrating VMs' performance fraction over their
  /// migrations (1 = unaffected); the fleet-level SLA view of Table I's
  /// slowdown column. 1.0 when no migration ran.
  double mean_migration_performance = 1.0;
  double final_powered_on_hosts = 0.0;
  /// Every finished migration attempt (plan moves, their retries and
  /// relief moves) in execution order; the controller runs one at a
  /// time.
  std::vector<migration::MigrationRecord> migration_log;
};

/// The planner configuration the controller plans under: the policy,
/// the machine class's idle and per-vCPU power, the migration and
/// bandwidth settings, and the default link's payload rate within and
/// across racks.
plan::PlannerConfig planner_config(const DcSimConfig& config);

/// Runs one configured simulation. The model is required for
/// kCostBlind/kCostAware (a plan::MigrationPlanner over it prices and
/// places the moves); it may be null for kNoConsolidation. It must
/// outlive run().
class DataCenterSimulation {
 public:
  DataCenterSimulation(DcSimConfig config, const core::Wavm3Model* model);

  /// Executes the simulation to `config.duration` and returns the report.
  /// A simulation object is single-use.
  DcSimReport run();

 private:
  struct Runtime;  // owns simulator, datacenter, engine, controller state

  DcSimConfig config_;
  const core::Wavm3Model* model_;
  bool ran_ = false;
};

/// Convenience: builds a pseudo-random fleet scenario with `n_hosts`
/// hosts and `n_vms` diurnal-profile VMs (deterministic in `seed`),
/// suitable for strategy comparisons.
DcSimConfig make_fleet_scenario(int n_hosts, int n_vms, std::uint64_t seed);

/// Projects `plan` onto the tracer's simulated-time track as instant
/// events (interval faults are stamped at their start with the
/// duration as an annotation). run() calls this for its own plan;
/// other fault-plan consumers (e.g. `wavm3 trace`) call it directly.
/// No-op while the tracer is disabled.
void emit_fault_instants(const faults::FaultPlan& plan);

}  // namespace wavm3::dcsim
