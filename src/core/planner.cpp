#include "core/planner.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/units.hpp"

namespace wavm3::core {

namespace {

using migration::MigrationPhase;
using migration::MigrationType;
using models::HostRole;
using models::MigrationSample;

/// Endpoint efficiency as in net::BandwidthModel (kept in closed form
/// here to avoid constructing Link objects for hypothetical scenarios).
double endpoint_efficiency(const net::BandwidthModelParams& p, double headroom) {
  const double ramp = std::min(1.0, std::max(0.0, headroom) / p.cpu_for_wire_speed);
  return p.min_efficiency + (1.0 - p.min_efficiency) * ramp;
}

bool finite_positive(double x) { return std::isfinite(x) && x > 0.0; }
bool finite_non_negative(double x) { return std::isfinite(x) && x >= 0.0; }

double fresh_dirty_pages(double working_set, double rate, double tau) {
  if (working_set <= 0.0 || rate <= 0.0 || tau <= 0.0) return 0.0;
  return working_set * (1.0 - std::exp(-rate * tau / working_set));
}

}  // namespace

MigrationForecast forecast_timings(const MigrationScenario& sc) {
  // Every numeric field must be finite: a NaN or inf would otherwise
  // flow through the round loop into a NaN (or finite but wrong)
  // energy instead of an error.
  WAVM3_REQUIRE(finite_positive(sc.vm_mem_bytes), "scenario needs a VM memory size");
  WAVM3_REQUIRE(finite_positive(sc.link_payload_rate), "scenario needs a link rate");
  WAVM3_REQUIRE(finite_positive(sc.source_cpu_capacity) &&
                    finite_positive(sc.target_cpu_capacity),
                "host capacities must be positive");
  WAVM3_REQUIRE(finite_non_negative(sc.vm_cpu_vcpus) &&
                    finite_non_negative(sc.vm_dirty_pages_per_s) &&
                    finite_non_negative(sc.vm_working_set_pages),
                "VM vCPUs, dirty rate and working set must be finite and non-negative");
  WAVM3_REQUIRE(finite_non_negative(sc.source_cpu_load) &&
                    finite_non_negative(sc.target_cpu_load),
                "host loads must be finite and non-negative");

  const auto& cfg = sc.migration;
  MigrationForecast fc;

  // Bandwidth: the VM still loads the source during a live pre-copy,
  // and loads the target during a post-copy pull.
  const bool live = sc.type == MigrationType::kLive;
  const bool postcopy = sc.type == MigrationType::kPostCopy;
  const double source_busy = sc.source_cpu_load + (live ? sc.vm_cpu_vcpus : 0.0);
  const double target_busy = sc.target_cpu_load + (postcopy ? sc.vm_cpu_vcpus : 0.0);
  const double src_headroom = std::max(0.0, sc.source_cpu_capacity - source_busy);
  const double dst_headroom = std::max(0.0, sc.target_cpu_capacity - target_busy);
  const double eff = std::min(endpoint_efficiency(sc.bandwidth, src_headroom),
                              endpoint_efficiency(sc.bandwidth, dst_headroom));
  fc.bandwidth = std::max(1e5, sc.link_payload_rate * eff);

  // Dirtying slows down under CPU multiplexing on the source.
  double grant_fraction = 1.0;
  if (live && sc.vm_cpu_vcpus > 0.0) {
    const double demand = source_busy;
    if (demand > sc.source_cpu_capacity) grant_fraction = sc.source_cpu_capacity / demand;
  }
  const double rate = sc.vm_dirty_pages_per_s * grant_fraction;

  fc.times.ms = 0.0;
  fc.times.ts = cfg.initiation_duration;

  double transfer = 0.0;
  const double mem_bytes = sc.vm_mem_bytes;
  if (postcopy) {
    // Handoff of the minimal state bundle, then a full-memory pull with
    // the VM already running on the target.
    const double state = std::min(cfg.postcopy_state_bytes, mem_bytes);
    transfer = mem_bytes / fc.bandwidth;
    fc.total_bytes = mem_bytes;
    fc.downtime = state / fc.bandwidth;
  } else if (!live) {
    transfer = mem_bytes / fc.bandwidth;
    fc.total_bytes = mem_bytes;
    fc.downtime = 0.0;  // set below: suspended from ms
  } else {
    // Pre-copy recursion, same termination rules as the engine.
    double round_bytes = mem_bytes;
    double prev_bytes = 0.0;
    int round = 0;
    while (true) {
      transfer += round_bytes / fc.bandwidth;
      fc.total_bytes += round_bytes;
      const double tau = round_bytes / fc.bandwidth;
      const double fresh =
          fresh_dirty_pages(sc.vm_working_set_pages, rate, tau) * util::kPageSize;
      ++round;
      const bool converged = fresh <= cfg.stop_threshold_bytes;
      const bool round_cap = round >= cfg.max_precopy_rounds;
      const bool traffic_cap = fc.total_bytes + fresh > cfg.max_transfer_factor * mem_bytes;
      const bool not_shrinking = round >= 2 && fresh >= prev_bytes;
      if (converged || round_cap || traffic_cap || not_shrinking) {
        fc.degenerated_to_nonlive = !converged;
        // Stop-and-copy of the final dirty set.
        const double sc_bytes = std::max(fresh, 1.0);
        transfer += sc_bytes / fc.bandwidth;
        fc.total_bytes += sc_bytes;
        fc.downtime = sc_bytes / fc.bandwidth;
        break;
      }
      prev_bytes = round_bytes;
      round_bytes = fresh;
    }
    fc.precopy_rounds = round;
  }

  fc.times.te = fc.times.ts + transfer;
  const double activation =
      std::max(cfg.source_cleanup_duration, cfg.target_resume_duration);
  fc.times.me = fc.times.te + activation;

  const double resume_offset = activation * cfg.resume_point_fraction;
  if (postcopy) {
    // Already resumed on the target before the pull; no activation lag.
  } else if (!live) {
    fc.downtime = fc.times.te - fc.times.ms + resume_offset;  // suspended at ms
  } else {
    fc.downtime += resume_offset;
  }
  return fc;
}

PhaseRepresentatives representative_features(const MigrationScenario& sc,
                                             const MigrationForecast& fc) {
  const auto& cfg = sc.migration;
  const bool live = sc.type == MigrationType::kLive;
  const bool postcopy = sc.type == MigrationType::kPostCopy;
  // The model is fitted for the paper's two flavours; post-copy uses
  // the live coefficient table (the closest workload semantics).
  PhaseRepresentatives rep;
  rep.coeff_type = postcopy ? MigrationType::kLive : sc.type;

  // Representative feature values per (phase, role), mirroring how the
  // engine drives the hosts. The migrating VM counts into CPU(h) on the
  // source while it runs there and on the target once resumed.
  const double vm_running_source = (live || postcopy) ? sc.vm_cpu_vcpus : 0.0;

  const auto make_sample = [](MigrationPhase phase, double cpu_host, double cpu_vm, double bw,
                              double dr) {
    MigrationSample s;
    s.phase = phase;
    s.cpu_host = cpu_host;
    s.cpu_vm = cpu_vm;
    s.bandwidth = bw;
    s.dirty_ratio = dr;
    return s;
  };

  // Mean dirtying ratio over the transfer (live source only): the
  // per-round fresh-dirty curve averages out near its end value.
  double mean_dr = 0.0;
  if (live && sc.vm_mem_bytes > 0.0) {
    const double mem_pages = sc.vm_mem_bytes / util::kPageSize;
    const double tau = fc.total_bytes / std::max(1.0, fc.bandwidth) /
                       std::max(1, fc.precopy_rounds + 1);
    mean_dr = std::min(
        1.0, fresh_dirty_pages(sc.vm_working_set_pages, sc.vm_dirty_pages_per_s, 0.5 * tau) /
                 std::max(1.0, mem_pages));
  }

  const double bw_frac = fc.bandwidth / std::max(fc.bandwidth, sc.link_payload_rate);
  const double send_cpu = cfg.sender_cpu_base + cfg.sender_cpu_per_rate * bw_frac;
  const double recv_cpu = cfg.receiver_cpu_base + cfg.receiver_cpu_per_rate * bw_frac;

  struct PhaseSpec {
    MigrationPhase phase;
    double duration;
  };
  const PhaseSpec phases[3] = {
      {MigrationPhase::kInitiation, fc.times.initiation_duration()},
      {MigrationPhase::kTransfer, fc.times.transfer_duration()},
      {MigrationPhase::kActivation, fc.times.activation_duration()},
  };

  for (int i = 0; i < 3; ++i) {
    const MigrationPhase ph = phases[i].phase;
    const double dur = phases[i].duration;

    double src_cpu_host = 0.0;
    double src_cpu_vm = 0.0;
    double dst_cpu_host = 0.0;
    double dst_cpu_vm = 0.0;
    double bw = 0.0;
    double dr = 0.0;

    switch (ph) {
      case MigrationPhase::kInitiation:
        src_cpu_host = std::min(sc.source_cpu_capacity,
                                sc.source_cpu_load + vm_running_source + cfg.initiation_cpu);
        src_cpu_vm = vm_running_source;
        dst_cpu_host = std::min(sc.target_cpu_capacity, sc.target_cpu_load + cfg.initiation_cpu);
        break;
      case MigrationPhase::kTransfer:
        if (postcopy) {
          // The VM already runs on the target during the pull.
          src_cpu_host = std::min(sc.source_cpu_capacity, sc.source_cpu_load + send_cpu);
          dst_cpu_vm = sc.vm_cpu_vcpus;
          dst_cpu_host = std::min(sc.target_cpu_capacity,
                                  sc.target_cpu_load + recv_cpu + dst_cpu_vm);
        } else {
          src_cpu_host = std::min(sc.source_cpu_capacity,
                                  sc.source_cpu_load + vm_running_source + send_cpu);
          src_cpu_vm = vm_running_source;
          dst_cpu_host = std::min(sc.target_cpu_capacity, sc.target_cpu_load + recv_cpu);
        }
        bw = fc.bandwidth;
        dr = mean_dr;
        break;
      case MigrationPhase::kActivation:
        src_cpu_host = std::min(sc.source_cpu_capacity, sc.source_cpu_load + cfg.activation_cpu);
        // The VM starts on the target partway through activation.
        dst_cpu_vm = sc.vm_cpu_vcpus * (1.0 - cfg.resume_point_fraction);
        dst_cpu_host = std::min(sc.target_cpu_capacity,
                                sc.target_cpu_load + cfg.activation_cpu + dst_cpu_vm);
        break;
      case MigrationPhase::kNormal:
        break;
    }

    rep.source[i] = make_sample(ph, src_cpu_host, src_cpu_vm, bw, dr);
    rep.target[i] = make_sample(ph, dst_cpu_host, dst_cpu_vm, bw, 0.0);
    rep.duration[i] = dur;
  }
  return rep;
}

void attach_energy(const Wavm3Model& model, const MigrationScenario& sc,
                   MigrationForecast& fc) {
  const PhaseRepresentatives rep = representative_features(sc, fc);
  for (int i = 0; i < 3; ++i) {
    const double p_src = model.predict_power(rep.coeff_type, HostRole::kSource, rep.source[i]);
    const double p_dst = model.predict_power(rep.coeff_type, HostRole::kTarget, rep.target[i]);
    fc.source_phase_energy[i] = p_src * rep.duration[i];
    fc.target_phase_energy[i] = p_dst * rep.duration[i];
  }

  fc.source_energy =
      fc.source_phase_energy[0] + fc.source_phase_energy[1] + fc.source_phase_energy[2];
  fc.target_energy =
      fc.target_phase_energy[0] + fc.target_phase_energy[1] + fc.target_phase_energy[2];
}

MigrationForecast MigrationPlanner::forecast(const MigrationScenario& sc) const {
  MigrationForecast fc = forecast_timings(sc);
  attach_energy(*model_, sc, fc);
  return fc;
}

}  // namespace wavm3::core
