#include "plan/strategy.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

namespace wavm3::plan {

namespace {

/// Per-host (cpu, ram) additions a donor's tentative assignment would
/// cause. Kept per attempt so a failed donor folds nothing back.
using Delta = std::unordered_map<int, std::pair<double, double>>;

/// Tentative loads accumulated across already-decided donors.
struct TentativeLoads {
  std::vector<double> cpu;
  std::vector<double> ram;

  explicit TentativeLoads(const Fleet& fleet) {
    cpu.reserve(fleet.host_count());
    ram.reserve(fleet.host_count());
    for (const FleetHost& h : fleet.hosts()) {
      cpu.push_back(h.cpu_load);
      ram.push_back(h.ram_committed);
    }
  }

  void fold(const Delta& delta) {
    for (const auto& [host, add] : delta) {
      cpu[static_cast<std::size_t>(host)] += add.first;
      ram[static_cast<std::size_t>(host)] += add.second;
    }
  }
};

/// Whether `vm` fits on `target` whose load stands at (base_cpu,
/// base_ram) plus the target's entry in `delta`.
bool target_feasible(const Fleet& fleet, const PlannerConfig& config, const FleetVm& vm,
                     int target, double base_cpu, double base_ram, const Delta& delta) {
  double cpu = base_cpu;
  double ram = base_ram;
  if (const auto it = delta.find(target); it != delta.end()) {
    cpu += it->second.first;
    ram += it->second.second;
  }
  const cloud::HostSpec& spec = fleet.host(target).spec;
  if (ram + vm.ram_bytes > spec.ram_bytes) return false;
  const double capacity = static_cast<double>(spec.vcpus);
  return cpu + vm.cpu_now <= config.policy.overload_fraction * capacity;
}

void add_to_delta(Delta& delta, int target, const FleetVm& vm) {
  auto& slot = delta[target];
  slot.first += vm.cpu_now;
  slot.second += vm.ram_bytes;
}

/// VM placements one DonorPlacement search may try.
constexpr int kPlacementSteps = 64;

/// One donor under naive first-fit: each VM goes to the feasible
/// candidate on the lowest-indexed host. Returns the picked move
/// indices (empty = donor infeasible) and fills `delta`.
std::vector<int> assign_first_fit(const Fleet& fleet, const CandidateSet& candidates,
                                  const PlannerConfig& config, const DonorCandidates& donor,
                                  const TentativeLoads& base, Delta& delta) {
  std::vector<int> picks;
  picks.reserve(donor.vms.size());
  delta.clear();
  for (const VmCandidates& vc : donor.vms) {
    const FleetVm& vm = fleet.vm(vc.vm);
    int best_move = -1;
    int best_target = std::numeric_limits<int>::max();
    for (int m = vc.begin; m < vc.end; ++m) {
      const ScoredMove& move = candidates.moves[static_cast<std::size_t>(m)];
      if (move.target >= best_target) continue;
      const auto t = static_cast<std::size_t>(move.target);
      if (!target_feasible(fleet, config, vm, move.target, base.cpu[t], base.ram[t], delta)) {
        continue;
      }
      best_move = m;
      best_target = move.target;
    }
    if (best_move < 0) return {};  // all-or-nothing: donor stays
    picks.push_back(best_move);
    add_to_delta(delta, best_target, vm);
  }
  return picks;
}

double assignment_energy(const CandidateSet& candidates, const std::vector<int>& picks) {
  double total = 0.0;
  for (const int m : picks) total += candidates.moves[static_cast<std::size_t>(m)].selection_energy();
  return total;
}

/// One donor under beam search over its VMs. The first-fit assignment
/// (if any) is admitted as one more completed candidate, so the result
/// never prices above first-fit.
std::vector<int> assign_beam(const Fleet& fleet, const CandidateSet& candidates,
                             const PlannerConfig& config, const DonorCandidates& donor,
                             const TentativeLoads& base, Delta& delta) {
  struct BeamState {
    std::vector<int> picks;
    Delta delta;
    double energy = 0.0;
  };

  const std::size_t width = static_cast<std::size_t>(std::max(1, config.beam_width));
  std::vector<BeamState> beam(1);
  std::vector<BeamState> next;
  for (const VmCandidates& vc : donor.vms) {
    const FleetVm& vm = fleet.vm(vc.vm);
    next.clear();
    for (const BeamState& state : beam) {
      for (int m = vc.begin; m < vc.end; ++m) {
        const ScoredMove& move = candidates.moves[static_cast<std::size_t>(m)];
        const auto t = static_cast<std::size_t>(move.target);
        if (!target_feasible(fleet, config, vm, move.target, base.cpu[t], base.ram[t],
                             state.delta)) {
          continue;
        }
        BeamState expanded = state;
        expanded.picks.push_back(m);
        add_to_delta(expanded.delta, move.target, vm);
        expanded.energy += move.selection_energy();
        next.push_back(std::move(expanded));
      }
    }
    if (next.empty()) {
      beam.clear();  // beam dead-ended; first-fit below may still work
      break;
    }
    std::sort(next.begin(), next.end(),
              [](const BeamState& a, const BeamState& b) { return a.energy < b.energy; });
    if (next.size() > width) next.resize(width);
    beam.swap(next);
  }

  Delta ff_delta;
  const std::vector<int> ff_picks =
      assign_first_fit(fleet, candidates, config, donor, base, ff_delta);

  const bool beam_ok = !beam.empty();
  const bool ff_ok = !ff_picks.empty();
  if (!beam_ok && !ff_ok) {
    delta.clear();
    return {};
  }
  const double ff_energy =
      ff_ok ? assignment_energy(candidates, ff_picks) : std::numeric_limits<double>::infinity();
  if (beam_ok && beam.front().energy <= ff_energy) {
    delta = std::move(beam.front().delta);
    return std::move(beam.front().picks);
  }
  delta = std::move(ff_delta);
  return ff_picks;
}

template <typename AssignFn>
std::vector<int> choose_by_donor(const Fleet& fleet, const CandidateSet& candidates,
                                 const PlannerConfig& config, AssignFn assign) {
  TentativeLoads loads(fleet);
  std::vector<int> chosen;
  Delta delta;
  for (const DonorCandidates& donor : candidates.donors) {
    std::vector<int> picks = assign(fleet, candidates, config, donor, loads, delta);
    if (picks.empty()) continue;
    loads.fold(delta);
    chosen.insert(chosen.end(), picks.begin(), picks.end());
  }
  return chosen;
}

}  // namespace

DonorPlacement::DonorPlacement(const Fleet& fleet, const PlannerConfig& config,
                               const std::vector<ScoredMove>& moves)
    : fleet_(fleet), config_(config), moves_(moves) {}

void DonorPlacement::clear() {
  vms_.clear();
  witness_.clear();
  unproven_ = false;
}

bool DonorPlacement::add(const VmCandidates& vc) {
  if (vc.begin == vc.end) return false;
  vms_.push_back(vc);
  if (unproven_) return true;
  // Extend the placement found so far; failing that, search every
  // placement of the VMs so far afresh.
  int steps = 0;
  if (search(vms_.size() - 1, steps)) return true;
  witness_.clear();
  steps = 0;
  const bool placed = search(0, steps);
  unproven_ = steps > kPlacementSteps;
  return placed;
}

bool DonorPlacement::search(std::size_t i, int& steps) {
  if (i == vms_.size()) return true;
  const VmCandidates& vc = vms_[i];
  const FleetVm& vm = fleet_.vm(vc.vm);
  for (int m = vc.begin; m < vc.end; ++m) {
    const int target = moves_[static_cast<std::size_t>(m)].target;
    const FleetHost& host = fleet_.host(target);
    if (!target_feasible(fleet_, config_, vm, target, host.cpu_load, host.ram_committed,
                         witness_)) {
      continue;
    }
    if (++steps > kPlacementSteps) return true;
    const auto it = witness_.find(target);
    const bool added = it == witness_.end();
    const std::pair<double, double> before = added ? std::pair{0.0, 0.0} : it->second;
    add_to_delta(witness_, target, vm);
    if (search(i + 1, steps)) return true;
    if (added) {
      witness_.erase(target);
    } else {
      witness_[target] = before;
    }
  }
  return false;
}

std::vector<int> FirstFitStrategy::choose(const Fleet& fleet, const CandidateSet& candidates,
                                          const PlannerConfig& config) const {
  return choose_by_donor(fleet, candidates, config, assign_first_fit);
}

std::vector<int> BeamSearchStrategy::choose(const Fleet& fleet, const CandidateSet& candidates,
                                            const PlannerConfig& config) const {
  return choose_by_donor(fleet, candidates, config, assign_beam);
}

}  // namespace wavm3::plan
