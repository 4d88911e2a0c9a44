// The two bundled placement strategies:
//
//   FirstFitStrategy  — the naive baseline: for each donor VM take the
//     feasible candidate on the lowest-indexed host, energy-blind.
//     This is classic first-fit over the host list and the comparison
//     anchor of bench_plan.
//
//   BeamSearchStrategy — energy-aware: per donor, a beam over the
//     donor's VMs (first-fit-decreasing order) where each beam state
//     carries its tentative target loads and accumulated predicted
//     migration energy. The completed assignment with the lowest
//     energy wins; the first-fit assignment for the same donor is
//     always admitted as one more candidate, so beam search never
//     selects a worse-than-first-fit assignment (bench_plan's CI gate
//     relies on this invariant).
//
// Both strategies are all-or-nothing per donor: a donor whose VMs
// cannot all be placed contributes no moves (a partially vacated host
// saves no energy), and both track tentative RAM/CPU deltas across
// donors so a wave's combined selection stays feasible.
#pragma once

#include <unordered_map>
#include <utility>
#include <vector>

#include "plan/planner.hpp"

namespace wavm3::plan {

/// Tells, VM by VM, whether a donor's VMs can all be placed at once:
/// each on one of its candidate targets, within the targets' RAM and
/// the policy's overload fraction at the fleet's current loads, with
/// loads added up in the order and with the arithmetic both strategies
/// use. A strategy only ever adds donor VMs' demands to a target as its
/// selection grows, so while those demands are non-negative a donor
/// whose first VMs cannot be placed together is one neither strategy
/// can vacate.
class DonorPlacement {
 public:
  /// `moves` holds the candidates the VMs' ranges index; it may grow
  /// between calls.
  DonorPlacement(const Fleet& fleet, const PlannerConfig& config,
                 const std::vector<ScoredMove>& moves);

  /// Starts the next donor.
  void clear();

  /// Adds the donor's next VM with its candidates. False when the VMs
  /// added so far cannot be placed at once (a VM without candidates is
  /// the plain case). True when they can, and from the first search
  /// that runs past a few dozen placements on, for the rest of the
  /// donor (left to the strategy).
  bool add(const VmCandidates& vc);

 private:
  /// Depth first over vms_[i..] on top of witness_; on success
  /// witness_ holds the whole placement.
  bool search(std::size_t i, int& steps);

  const Fleet& fleet_;
  const PlannerConfig& config_;
  const std::vector<ScoredMove>& moves_;
  std::vector<VmCandidates> vms_;
  /// Per target (cpu, ram) that one placement of vms_ adds.
  std::unordered_map<int, std::pair<double, double>> witness_;
  bool unproven_ = false;
};

class FirstFitStrategy final : public PlacementStrategy {
 public:
  const char* name() const override { return "first_fit"; }
  std::vector<int> choose(const Fleet& fleet, const CandidateSet& candidates,
                          const PlannerConfig& config) const override;
};

class BeamSearchStrategy final : public PlacementStrategy {
 public:
  const char* name() const override { return "beam"; }
  std::vector<int> choose(const Fleet& fleet, const CandidateSet& candidates,
                          const PlannerConfig& config) const override;
};

}  // namespace wavm3::plan
