// plan_waves: cycle-aware orchestration of migration waves. A synthetic
// 2048-host / 20480-VM plan::Fleet built from the seed, and rolling
// committed plan::MigrationPlanner::plan_wave calls (beam placement,
// cycle detection on), one workload period apart, back to back until
// the run's time is spent. Single-threaded; no serve or rpc layer.
//
// Before each wave the benchmark refreshes the fleet's loads itself
// (timing Fleet::refresh_loads from outside; the planner's own refresh
// then recomputes the same values) and snapshots what the candidates
// are priced from, so that every scheduled move can be re-priced
// through core::MigrationPlanner::forecast afterwards.
#include <algorithm>
#include <cmath>
#include <limits>

#include "plan/cycle_detector.hpp"
#include "plan/fleet.hpp"
#include "plan/planner.hpp"
#include "plan/strategy.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kHosts = 2048;
constexpr int kVms = 20480;
constexpr double kWaveGapS = 7200.0;  ///< one workload period between waves
constexpr int kMinWaves = 4;
/// fleet_saving_mj and the exact counts cover this many waves, so they
/// do not depend on how many waves fit in the run.
constexpr int kCountedWaves = 4;
/// Set-ups per run (about 0.5 s each); setup_s is their median.
constexpr int kPlanSetupReps = 11;

plan::PlannerConfig planner_config() {
  plan::PlannerConfig cfg;
  cfg.cycle_aware = true;
  return cfg;
}

/// Per-VM and per-host load state the candidates of one wave are priced
/// from.
struct LoadSnapshot {
  std::vector<double> vm_cpu, vm_dirty, host_load;
};

LoadSnapshot snapshot(const plan::Fleet& fleet) {
  LoadSnapshot s;
  for (const plan::FleetVm& vm : fleet.vms()) {
    s.vm_cpu.push_back(vm.cpu_now);
    s.vm_dirty.push_back(vm.dirty_now);
  }
  for (const plan::FleetHost& h : fleet.hosts()) s.host_load.push_back(h.cpu_load);
  return s;
}

/// The scenario plan_wave priced for a scheduled move, rebuilt from the
/// pre-wave snapshot and the planner's documented pricing inputs.
core::MigrationScenario move_scenario(const plan::Fleet& fleet, const LoadSnapshot& snap,
                                      const plan::PlannerConfig& cfg,
                                      const plan::ScheduledMove& m) {
  const plan::FleetVm& vm = fleet.vm(m.vm);
  const cloud::HostSpec& src = fleet.host(m.source).spec;
  const cloud::HostSpec& dst = fleet.host(m.target).spec;
  const auto vi = static_cast<std::size_t>(m.vm);
  core::MigrationScenario sc;
  sc.type = cfg.policy.migration_type;
  sc.vm_mem_bytes = vm.ram_bytes;
  sc.vm_cpu_vcpus = snap.vm_cpu[vi];
  sc.vm_dirty_pages_per_s = snap.vm_dirty[vi];
  if (m.cycle_aligned) {
    const plan::CycleDetector detector(cfg.cycles);
    sc.vm_dirty_pages_per_s = detector.analyze(vm.history.t, vm.history.dirty).low_mean;
  }
  sc.vm_working_set_pages = static_cast<double>(vm.working_set_pages);
  sc.source_cpu_load = std::max(0.0, snap.host_load[static_cast<std::size_t>(m.source)] -
                                         snap.vm_cpu[vi]);
  sc.source_cpu_capacity = static_cast<double>(src.vcpus);
  sc.target_cpu_load = snap.host_load[static_cast<std::size_t>(m.target)];
  sc.target_cpu_capacity = static_cast<double>(dst.vcpus);
  const double inf = std::numeric_limits<double>::infinity();
  const auto nic = [&](double rate) {
    return rate > 0.0 ? rate * cfg.nic_protocol_efficiency : inf;
  };
  const double group_rate =
      src.group == dst.group ? cfg.intra_group_payload_rate : cfg.inter_group_payload_rate;
  sc.link_payload_rate = std::min({group_rate, nic(src.nic_rate), nic(dst.nic_rate)});
  sc.migration = cfg.migration;
  sc.bandwidth = cfg.bandwidth;
  return sc;
}

struct Pass {
  Samples wave_s, refresh_ms, score_s_per_scenario;
  double wave_cpu_s = 0.0;  ///< thread CPU time of all waves
  double counted_saving_j = 0.0;
  std::uint64_t counted_candidates = 0, counted_moves = 0;
  double scoring_s = 0.0;
  std::uint64_t candidates = 0;
  std::uint64_t waves = 0, failed = 0;
  std::vector<core::MigrationScenario> move_scenarios;
};

/// Runs committed waves until `seconds` have passed (at least
/// kMinWaves), checking the fleet and every move after each wave.
Pass run_waves(plan::Fleet& fleet, const models::EnergyModel& model,
               const core::Wavm3Model& reference, double seconds, Outcome& out) {
  Pass pass;
  const plan::PlannerConfig cfg = planner_config();
  plan::MigrationPlanner planner(model, cfg);
  const plan::BeamSearchStrategy beam;
  const core::MigrationPlanner direct(reference);
  double t_first = 0.0;
  for (const plan::FleetVm& vm : fleet.vms()) {
    if (!vm.history.empty()) {
      t_first = vm.history.t.back();
      break;
    }
  }

  const std::uint64_t start = now_ns();
  for (int w = 0; w < kMinWaves || since_s(start) < seconds; ++w) {
    const double now = t_first + static_cast<double>(w) * kWaveGapS;
    std::uint64_t t0 = now_ns();
    fleet.refresh_loads(now, cfg.load_window_s);
    pass.refresh_ms.add(static_cast<double>(now_ns() - t0) * 1e-6);
    const LoadSnapshot snap = snapshot(fleet);

    plan::WavePlan plan;
    const std::uint64_t cpu0 = thread_cpu_ns();
    t0 = now_ns();
    try {
      WAVM3_OBS_SPAN(span, "bench", "plan.plan_wave");
      plan = planner.plan_wave(fleet, beam, now, /*commit=*/true);
    } catch (const std::exception& e) {
      ++pass.failed;
      out.fail(fmt("plan_waves: wave %d threw: %s", w, e.what()));
      break;
    }
    const double wave_s = static_cast<double>(now_ns() - t0) * 1e-9;
    pass.wave_cpu_s += static_cast<double>(thread_cpu_ns() - cpu0) * 1e-9;
    pass.wave_s.add(wave_s);
    ++pass.waves;
    // score_batch evaluates two batch rows (source, target) per scenario.
    const double scenarios_priced = static_cast<double>(plan.batch_rows) / 2.0;
    if (scenarios_priced > 0.0) {
      pass.score_s_per_scenario.add(plan.scoring_seconds / scenarios_priced);
    }
    pass.scoring_s += plan.scoring_seconds;
    pass.candidates += plan.candidates_scored;
    if (w < kCountedWaves) {
      pass.counted_saving_j += plan.steady_saving_j - plan.total_migration_energy_j;
      pass.counted_candidates += plan.candidates_scored;
      pass.counted_moves += plan.moves.size();
    }

    // Gate: each move's energy is the direct forecast of its scenario.
    for (const plan::ScheduledMove& m : plan.moves) {
      const core::MigrationScenario sc = move_scenario(fleet, snap, cfg, m);
      const double ref = direct.forecast(sc).total_energy();
      if (!rel_close(m.energy_j, ref, 1e-9)) {
        out.fail(fmt("plan_waves: wave %d move of VM %d prices %.17g J, direct forecast %.17g J",
                     w, m.vm, m.energy_j, ref));
        break;
      }
      if (pass.move_scenarios.size() < 4096) pass.move_scenarios.push_back(sc);
    }
    // Gate: placements are consistent and within capacity; vacated
    // donors are off.
    std::vector<int> seen(fleet.vm_count(), 0);
    for (std::size_t h = 0; h < fleet.host_count(); ++h) {
      const plan::FleetHost& host = fleet.host(static_cast<int>(h));
      double ram = 0.0;
      for (const int v : host.vms) {
        ++seen[static_cast<std::size_t>(v)];
        ram += fleet.vm(v).ram_bytes;
        if (fleet.vm(v).host != static_cast<int>(h)) {
          out.fail(fmt("plan_waves: wave %d VM %d listed on host %zu but placed on %d", w, v, h,
                       fleet.vm(v).host));
        }
      }
      if (ram > host.spec.ram_bytes) {
        out.fail(fmt("plan_waves: wave %d host %zu over RAM capacity", w, h));
      }
      if (!host.powered_on && !host.vms.empty()) {
        out.fail(fmt("plan_waves: wave %d host %zu is off but holds VMs", w, h));
      }
    }
    if (std::any_of(seen.begin(), seen.end(), [](int n) { return n != 1; })) {
      out.fail(fmt("plan_waves: wave %d does not place every VM exactly once", w));
    }
    for (const plan::ScheduledMove& m : plan.moves) {
      if (fleet.host(m.source).powered_on) {
        out.fail(fmt("plan_waves: wave %d vacated donor %d is still on", w, m.source));
        break;
      }
    }
  }
  return pass;
}

double span_ms_per_wave(const std::map<std::string, SpanTotals>& spans, const char* name,
                        double waves) {
  const auto it = spans.find(name);
  return it == spans.end() || waves <= 0.0 ? 0.0 : it->second.total_ns * 1e-6 / waves;
}

}  // namespace

Outcome run_plan_waves(const Options& opt) {
  Outcome out;
  const int hosts = opt.smoke ? 128 : kHosts;
  const int vms = opt.smoke ? 1280 : kVms;

  // Set-up: fit, synthesize the fleet.
  FittedModel fit;
  std::unique_ptr<plan::Fleet> fleet;
  out.set("setup_s", median_seconds(kPlanSetupReps, [&] {
            fleet.reset();
            fit = fit_fast_campaign(opt.seed);
            fleet = std::make_unique<plan::Fleet>(plan::Fleet::synthetic(hosts, vms, opt.seed));
          }),
          "s");
  out.note(fmt("plan_waves: %d hosts, %d VMs, beam placement, cycle-aware; waves %.0f s apart",
               hosts, vms, kWaveGapS));
  const std::shared_ptr<const core::Wavm3Model> reference =
      opt.perturb_check ? scaled_model(*fit.model, 1e-6) : fit.model;

  const double budget = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  const Pass plain = run_waves(*fleet, *fit.model, *reference, budget, out);
  Pass traced;
  std::map<std::string, SpanTotals> spans;
  if (opt.trace) {
    fleet = std::make_unique<plan::Fleet>(plan::Fleet::synthetic(hosts, vms, opt.seed));
    trace_begin();
    traced = run_waves(*fleet, *fit.model, *reference, budget, out);
    spans = span_totals(trace_end(out, opt.workload));
  }
  out.attempted = plain.waves + traced.waves;
  out.failed = plain.failed + traced.failed;

  const Pass& e = plain;
  // Waves are the windows here: the lower decile of the run's wave
  // times, which always leaves out the heavy first wave.
  out.set("p50_us", e.wave_s.pct(kQuietQuantile) * 1e6, "us");
  out.set("caller.p99_us", e.wave_s.pct(0.99) * 1e6, "us");
  out.set("caller.batch64_p50_us", e.score_s_per_scenario.pct(kQuietQuantile) * 64.0 * 1e6,
          "us");
  const double vms_planned = static_cast<double>(vms) * static_cast<double>(e.waves);
  // One thread plans, so the wall-clock rate is the upper-decile wave's.
  out.set("throughput_per_s", static_cast<double>(vms) / e.wave_s.pct(kQuietQuantile), "1/s");
  out.set("throughput_per_cpu_s", vms_planned / e.wave_cpu_s, "1/s");
  out.set("caller.throughput_per_s", vms_planned / e.wave_s.sum(), "1/s");
  out.set("caller.wave_s", e.wave_s.mean(), "s");
  out.set("plan.fleet_saving_mj", e.counted_saving_j * 1e-6, "MJ");
  out.note(fmt("waves %llu (mean %.3f s, p50 %.3f s, max %.3f s); net saving over the first %d "
               "waves %.3f MJ",
               static_cast<unsigned long long>(e.waves), e.wave_s.mean(), e.wave_s.pct(0.5),
               e.wave_s.pct(1.0), kCountedWaves, e.counted_saving_j * 1e-6));
  out.note(fmt("phase waves      sent %9llu  ok %9llu  failed %llu  closed loop, %.2f waves/s",
               static_cast<unsigned long long>(e.waves),
               static_cast<unsigned long long>(e.waves - e.failed),
               static_cast<unsigned long long>(e.failed),
               static_cast<double>(e.waves) / e.wave_s.sum()));

  if (opt.trace) {
    const Pass& t = traced;
    out.set("obs.trace_overhead",
            t.wave_s.pct(kQuietQuantile) / plain.wave_s.pct(kQuietQuantile) - 1.0, "ratio");

    const auto it = spans.find("plan/wave");
    const double waves = it == spans.end() ? 0.0 : static_cast<double>(it->second.count);
    const double wave_ms = span_ms_per_wave(spans, "plan/wave", waves);
    double children_ms = 0.0;
    const std::pair<const char*, const char*> children[] = {
        {"plan/cycle_detect", "plan.cycle_detect_ms"}, {"plan/score_batch", "plan.score_batch_ms"},
        {"plan/strategy", "plan.strategy_ms"},         {"plan/schedule", "plan.schedule_ms"},
        {"plan/commit", "plan.commit_ms"},
    };
    for (const auto& [span, metric] : children) {
      const double ms = span_ms_per_wave(spans, span, waves);
      children_ms += ms;
      out.set(metric, ms, "ms");
    }
    out.set("plan.unattributed_share", wave_ms > 0.0 ? 1.0 - children_ms / wave_ms : 0.0, "ratio");
    out.set("plan.refresh_loads_ms", t.refresh_ms.pct(0.50), "ms");
    out.set("plan.score_ns_per_candidate",
            t.candidates == 0 ? 0.0 : t.scoring_s * 1e9 / static_cast<double>(t.candidates), "ns");
    out.set("plan.candidates_scored", static_cast<double>(t.counted_candidates), "count");
    out.set("plan.moves", static_cast<double>(t.counted_moves), "count");

    // CycleDetector::analyze over every VM's dirtying history.
    const plan::CycleDetector detector(planner_config().cycles);
    double sink = 0.0;
    const std::uint64_t c0 = now_ns();
    for (const plan::FleetVm& vm : fleet->vms()) {
      sink += detector.analyze(vm.history.t, vm.history.dirty).confidence;
    }
    out.set("plan.cycle_analyze_us_per_vm",
            static_cast<double>(now_ns() - c0) * 1e-3 / static_cast<double>(fleet->vm_count()),
            "us");
    out.note(fmt("cycle analysis checksum %.6f", sink));
    record_core_and_kernel_probes(out, *fit.model, t.move_scenarios, opt.seed);
  }
  return out;
}

}  // namespace perfbench
