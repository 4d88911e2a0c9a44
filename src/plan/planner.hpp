// Datacenter-scale migration planner: rolling consolidation waves over
// a Fleet, with every candidate move priced by one scalar
// core::MigrationPlanner::forecast call and scheduled into
// workload-cycle low-dirtying windows (plan/cycle_detector.hpp).
//
// One wave computes only what the strategy and the scheduler read:
//   1. refresh loads; pick donor hosts (underloaded, to be vacated)
//      and receivers;
//   2. generate (VM, source, target) candidates donor by donor; a
//      donor is dropped at the first VM at which its VMs so far cannot
//      all be placed at once (plan::DonorPlacement; plainly, a VM with
//      no feasible target), since no strategy could vacate it
//      (all-or-nothing: a partial vacate saves no host energy);
//   3. price every candidate cycle-blind (trailing-window dirtying)
//      through core::MigrationPlanner::forecast, the paper's per-phase
//      power x duration sums (Eqs. 3-7);
//   4. a PlacementStrategy picks targets (naive first-fit, or
//      energy-aware beam search) donor by donor on the blind prices;
//   5. cycles are detected on the chosen moves' VMs only, and each
//      periodic one is priced once more at its low-window dirtying
//      rate (the cycle-aligned variant);
//   6. moves are scheduled under per-host concurrency caps, snapping
//      periodic VMs' start times into their next low-dirtying window
//      when the aligned variant is no dearer;
//   7. the wave is committed to the fleet (placements move, vacated
//      donors power off).
//
// Every phase runs under an obs:: span (category "plan") and feeds
// plan_* metrics, so planner runs are traceable like serve requests.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "core/planner.hpp"
#include "models/energy_model.hpp"
#include "plan/cycle_detector.hpp"
#include "plan/fleet.hpp"

namespace wavm3::plan {

/// Thresholds and horizon of the consolidation policy.
struct ConsolidationPolicy {
  double underload_fraction = 0.30;  ///< hosts below this CPU fraction are vacate candidates
  double overload_fraction = 0.90;   ///< never load a target beyond this fraction
  double horizon_seconds = 3600.0;   ///< period the vacated host would stay off
  migration::MigrationType migration_type = migration::MigrationType::kLive;
  /// How often a rolled-back plan migration is re-attempted before the
  /// executor gives up on it (failures waste energy, so retries are
  /// bounded; the next controller tick replans from the new snapshot).
  int max_retries = 2;
};

/// Observable steady-state host power estimate used for the benefit
/// side of the ledger (idle draw + linear CPU term; the planner has no
/// access to ground truth either).
struct HostPowerEstimate {
  double idle_watts = 430.0;
  double watts_per_vcpu = 11.0;

  double power(double cpu_vcpus) const { return idle_watts + watts_per_vcpu * cpu_vcpus; }
};

struct PlannerConfig {
  /// Underload/overload thresholds, planning horizon, migration type
  /// and retry bound — also what dcsim's controller and chaos's
  /// executor plan and execute under.
  ConsolidationPolicy policy;
  /// Benefit side of the ledger (idle draw of a vacated host).
  HostPowerEstimate host_power;
  migration::MigrationConfig migration;
  net::BandwidthModelParams bandwidth;

  /// Link payload rates (bytes/s, post-protocol-efficiency) within and
  /// across topology groups. Host NIC rates cap both.
  double intra_group_payload_rate = 117.5e6;
  double inter_group_payload_rate = 117.5e6;
  /// Payload fraction of a host NIC's wire rate (protocol efficiency).
  double nic_protocol_efficiency = 0.94;

  /// Candidate destinations considered per VM (split between
  /// first-fit-order, same-group, and most-loaded receivers).
  int candidate_targets = 12;
  /// Donors attempted per wave; 0 = every underloaded host.
  int max_donors_per_wave = 0;
  /// Trailing window for cpu_now/dirty_now load estimates.
  double load_window_s = 3600.0;
  /// Moves must start within [now, now + wave_horizon_s].
  double wave_horizon_s = 7200.0;

  bool cycle_aware = true;
  CycleDetectorConfig cycles;

  /// Beam width of the energy-aware strategy.
  int beam_width = 8;
};

/// The priced outcome of one move scenario.
struct MoveVariant {
  double energy_j = 0.0;    ///< source + target forecast energy
  double duration_s = 0.0;  ///< migration time (MigrationTimings::me)
  double downtime_s = 0.0;
};

/// One (VM, source, target) candidate with its cycle-blind price.
struct ScoredMove {
  int vm = -1;
  int source = -1;
  int target = -1;
  MoveVariant blind;  ///< move_scenario priced at the trailing-window dirtying rate

  /// The energy strategies optimise. Deliberately the *blind* price:
  /// selection is then identical whether cycle scheduling is on or
  /// off, so the cycle-aware-vs-blind comparison isolates the
  /// scheduling effect — the scheduler only ever swaps a chosen move
  /// to its aligned variant when that variant is cheaper, which makes
  /// "cycle-aware <= cycle-blind predicted energy" a per-move
  /// invariant rather than a statistical tendency. It is also why the
  /// aligned variant is priced for chosen moves only.
  double selection_energy() const { return blind.energy_j; }
};

/// Candidate ranges of one donor VM: moves[begin, end) all migrate
/// `vm`, to different targets.
struct VmCandidates {
  int vm = -1;
  int begin = 0;
  int end = 0;
};

/// All candidates of one donor host; vms in first-fit-decreasing
/// order (RAM descending).
struct DonorCandidates {
  int host = -1;
  std::vector<VmCandidates> vms;
};

struct CandidateSet {
  std::vector<ScoredMove> moves;
  std::vector<DonorCandidates> donors;
};

/// Strategy interface: picks one candidate per donor VM, donor by
/// donor, all-or-nothing per donor. Returns indices into
/// candidates.moves. Implementations must keep every tentative target
/// under its RAM capacity and the policy's overload fraction as the
/// selection accumulates.
class PlacementStrategy {
 public:
  virtual ~PlacementStrategy() = default;
  virtual const char* name() const = 0;
  virtual std::vector<int> choose(const Fleet& fleet, const CandidateSet& candidates,
                                  const PlannerConfig& config) const = 0;
};

/// One committed, scheduled move of a wave.
struct ScheduledMove {
  int vm = -1;
  int source = -1;
  int target = -1;
  double start_s = 0.0;        ///< absolute time (history axis)
  double end_s = 0.0;
  bool cycle_aligned = false;
  double energy_j = 0.0;
  double downtime_s = 0.0;
};

/// What one wave produced.
struct WavePlan {
  std::vector<ScheduledMove> moves;       ///< sorted by start time
  double total_migration_energy_j = 0.0;
  double total_downtime_s = 0.0;          ///< SLA view: summed VM blackouts
  double steady_saving_j = 0.0;           ///< vacated idle draw over the horizon
  int donors_considered = 0;
  int donors_vacated = 0;
  int moves_cycle_aligned = 0;
  int overloaded_hosts_before = 0;        ///< hosts above the overload fraction
  int overloaded_hosts_after = 0;
  std::size_t candidates_scored = 0;      ///< (VM, target) pairs priced
  std::size_t histories_analyzed = 0;     ///< VM histories run through cycle detection
  std::size_t batch_rows = 0;             ///< role energies priced, two per scenario
  double scoring_seconds = 0.0;           ///< wall time pricing blind and aligned variants
  double wave_seconds = 0.0;              ///< wall time of the whole wave
};

/// The vacate decision of one donor in a wave (the paper's SVIII use
/// case): what emptying the host costs against what powering it off
/// saves.
struct DonorLedger {
  int host = -1;
  std::size_t moves = 0;
  double migration_energy_j = 0.0;  ///< summed forecast energy of the donor's moves
  double steady_saving_j = 0.0;     ///< idle draw over the policy horizon
  double net_j = 0.0;               ///< saving - migration energy; > 0 is worth vacating
};

/// Groups a wave's moves by source host, in host-index order. The
/// savings sum to `wave.steady_saving_j`.
std::vector<DonorLedger> donor_ledger(const WavePlan& wave, const PlannerConfig& config);

/// Link payload rate (bytes/s) between two hosts: the config's intra-
/// or inter-group rate, capped by both NICs' payload rates.
double payload_rate(const PlannerConfig& config, const cloud::HostSpec& src,
                    const cloud::HostSpec& dst);

/// The scenario that prices moving `vm` from `source` to `target`
/// under the fleet's current loads (Fleet::refresh_loads): the VM's
/// trailing-window signature, the source's load without the VM, the
/// target's load as it stands, and payload_rate between the two.
core::MigrationScenario move_scenario(const Fleet& fleet, const PlannerConfig& config, int vm,
                                      int source, int target);

/// Plans rolling consolidation waves over a fleet.
class MigrationPlanner {
 public:
  /// `model` must be a core::Wavm3Model, outlive the planner, and be
  /// fitted for the policy's migration type. Throws
  /// util::ContractError for another model or an invalid policy
  /// (thresholds out of order, non-positive horizon, negative retry
  /// bound).
  MigrationPlanner(const models::EnergyModel& model, PlannerConfig config = {});

  const PlannerConfig& config() const { return config_; }

  /// Plans one wave at absolute time `now` and (when `commit`) applies
  /// it to the fleet: placements move and fully vacated donors power
  /// off. With commit = false the fleet is left untouched (what-if).
  WavePlan plan_wave(Fleet& fleet, const PlacementStrategy& strategy, double now,
                     bool commit = true);

 private:
  core::MigrationPlanner forecaster_;
  PlannerConfig config_;
};

}  // namespace wavm3::plan
