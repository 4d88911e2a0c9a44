// The benchmark's three workloads. Each builds its inputs from
// opt.seed, measures for opt.seconds, checks every answer and returns
// its metrics; see README.md for what each one stresses.
#pragma once

#include "common.hpp"

namespace perfbench {

Outcome run_serve_local(const Options& opt);
Outcome run_fleet_routed(const Options& opt);
Outcome run_plan_waves(const Options& opt);

}  // namespace perfbench
