// The benchmark binary (built and run by perfbench/run.py). Usage:
//
//   perfbench --workload serve_local|fleet_routed|plan_waves --seed N
//             --seconds S --trace 0|1 [--smoke] [--perturb-check]
//
// A traced run also writes .bench_out/<workload>.trace.json.
// Prints a human-readable report, then as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits
// 1 when a correctness gate failed and 2 on a usage or run error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "workloads.hpp"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (the self-test checks it).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"p50_us", "us"},
    {"throughput_per_s", "1/s"},
    {"throughput_per_cpu_s", "1/s"},
};

// A layer that does no work on a workload reports 0 there.
constexpr MetricSpec kPerLayer[] = {
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.cache_evictions", "count"},
    {"serve.queue_wait_p50_us", "us"},
    {"serve.queue_wait_p99_us", "us"},
    {"serve.sync_predict_ns", "ns"},
    {"serve.batch_call_us", "us"},
    {"serve.swap_us", "us"},
    {"serve.shed", "count"},
    {"serve.deadline_expired", "count"},
    {"core.forecast_ns", "ns"},
    {"core.timings_ns", "ns"},
    {"kernels.apply_ns_per_row", "ns"},
    {"kernels.backend_avx2", "count"},
    {"stream.push_ns", "ns"},
    {"stream.revise_us", "us"},
    {"rpc.client_self_us", "us"},
    {"rpc.transport_self_us", "us"},
    {"rpc.node_handle_us", "us"},
    {"rpc.encode_ns", "ns"},
    {"rpc.decode_ns", "ns"},
    {"rpc.crc32_ns", "ns"},
    {"rpc.frame_bytes", "bytes"},
    {"rpc.node_share_max", "ratio"},
    {"rpc.failovers", "count"},
    {"rpc.publish_us", "us"},
    {"plan.cycle_detect_ms", "ms"},
    {"plan.score_batch_ms", "ms"},
    {"plan.strategy_ms", "ms"},
    {"plan.schedule_ms", "ms"},
    {"plan.commit_ms", "ms"},
    {"plan.unattributed_share", "ratio"},
    {"plan.refresh_loads_ms", "ms"},
    {"plan.cycle_analyze_us_per_vm", "us"},
    {"plan.score_ns_per_candidate", "ns"},
    {"plan.candidates_scored", "count"},
    {"plan.moves", "count"},
    {"plan.fleet_saving_mj", "MJ"},
    {"obs.trace_overhead", "ratio"},
    {"obs.spans_dropped", "count"},
    {"loadgen.lag_p99_us", "us"},
    {"loadgen.offered_per_s", "1/s"},
    {"loadgen.achieved_per_s", "1/s"},
    {"caller.p99_us", "us"},
    {"caller.batch64_p50_us", "us"},
    {"caller.batch64_p99_us", "us"},
    {"caller.live_p50_us", "us"},
    {"caller.live_p99_us", "us"},
    {"caller.publish_p50_us", "us"},
    {"caller.wave_s", "s"},
    {"caller.throughput_per_s", "1/s"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload serve_local|fleet_routed|plan_waves "
               "--seed N --seconds S --trace 0|1 [--smoke] [--perturb-check]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (a == "--smoke") {
        o.smoke = true;
      } else if (a == "--perturb-check") {
        o.perturb_check = true;
      } else {
        usage("unknown argument");
      }
    } catch (const std::logic_error&) {
      usage("bad numeric value");
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  Outcome out;
  try {
    if (opt.workload == "serve_local") {
      out = run_serve_local(opt);
    } else if (opt.workload == "fleet_routed") {
      out = run_fleet_routed(opt);
    } else if (opt.workload == "plan_waves") {
      out = run_plan_waves(opt);
    } else {
      usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 2;
  }

  for (const MetricSpec& m : kEndToEnd) {
    if (out.metrics.count(m.name) == 0) {
      std::fprintf(stderr, "perfbench: %s did not measure %s\n", opt.workload.c_str(), m.name);
      return 2;
    }
  }
  std::printf("== perfbench %s seed %llu, %.1f s, trace %d%s\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0,
              opt.perturb_check ? ", perturbed reference" : "");
  for (const std::string& line : out.notes) std::printf("%s\n", line.c_str());
  for (const auto& [name, m] : out.metrics) {
    std::printf("  %-30s %18.6f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  for (const MetricSpec& m : kPerLayer) {
    if (out.metrics.count(m.name) == 0) out.set(m.name, 0.0, m.unit);
  }
  for (const auto& [name, m] : out.metrics) {
    if (!std::isfinite(m.value)) out.fail(name + " is not finite");
  }
  for (const std::string& f : out.failures) std::printf("CORRECTNESS: %s\n", f.c_str());
  std::printf("attempted %llu, failed %llu, correct %s\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), out.correct ? "yes" : "NO");

  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += fmt(", \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  bool first = true;
  const auto emit = [&](const MetricSpec& spec) {
    const Metric& m = out.metrics.at(spec.name);
    json += fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", spec.name,
                m.value, spec.unit);
    first = false;
  };
  if (opt.trace) {
    for (const MetricSpec& m : kPerLayer) emit(m);
  } else {
    for (const MetricSpec& m : kEndToEnd) emit(m);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return out.correct ? 0 : 1;
}
