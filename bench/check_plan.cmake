# Gate script for the migration planner: parses the artefact
# bench_plan emits and fails if
#   * the energy-aware beam strategy nets more fleet energy than naive
#     first-fit over the rolling waves (it admits the first-fit
#     assignment as a candidate per donor, so it must never lose),
#   * cycle-aware scheduling prices above cycle-blind (the scheduler
#     only swaps a move into a low-dirtying window when that variant is
#     cheaper, so this is a per-move invariant),
#   * no move ever snapped into a low window (the cycle machinery went
#     dead), or the planner produced no moves at all, or
#   * a single wave at 2k hosts / 20k VMs blew the wall-clock budget.
# Run as `cmake -DARTIFACT=... -P check_plan.cmake`
# (the bench_plan_energy_gate ctest entry).
cmake_minimum_required(VERSION 3.19)  # string(JSON ...)

if(NOT DEFINED ARTIFACT)
  message(FATAL_ERROR "pass -DARTIFACT=<path to bench_plan.json>")
endif()
if(NOT EXISTS "${ARTIFACT}")
  message(FATAL_ERROR "artefact not found: ${ARTIFACT} (run bench_plan first)")
endif()

file(READ "${ARTIFACT}" _json)
string(JSON _ff_net GET "${_json}" first_fit_net_energy_j)
string(JSON _beam_net GET "${_json}" beam_net_energy_j)
string(JSON _blind GET "${_json}" cycle_blind_energy_j)
string(JSON _aware GET "${_json}" cycle_aware_energy_j)
string(JSON _aligned GET "${_json}" cycle_aligned_moves)
string(JSON _moves GET "${_json}" beam_moves)
string(JSON _wall GET "${_json}" max_wave_seconds)

if(_moves EQUAL 0)
  message(FATAL_ERROR "planner produced no moves at benchmark scale")
endif()

if(_beam_net GREATER _ff_net)
  message(FATAL_ERROR
    "energy-aware beam netted MORE fleet energy than first-fit: "
    "beam ${_beam_net} J vs first-fit ${_ff_net} J")
endif()

if(_aware GREATER _blind)
  message(FATAL_ERROR
    "cycle-aware scheduling priced above cycle-blind: "
    "aware ${_aware} J vs blind ${_blind} J")
endif()

if(_aligned EQUAL 0)
  message(FATAL_ERROR
    "no move was scheduled into a low-dirtying window "
    "(cycle detection or alignment is dead)")
endif()

foreach(_curve first_fit_curve beam_curve)
  string(JSON _n_waves LENGTH "${_json}" ${_curve})
  math(EXPR _last "${_n_waves} - 1")
  foreach(_i RANGE ${_last})
    string(JSON _wave_moves GET "${_json}" ${_curve} ${_i} moves)
    string(JSON _histories GET "${_json}" ${_curve} ${_i} histories_analyzed)
    if(_histories GREATER _wave_moves)
      message(FATAL_ERROR
        "${_curve} wave ${_i} analysed ${_histories} VM histories for cycles "
        "but scheduled only ${_wave_moves} moves")
    endif()
  endforeach()
endforeach()

# Generous budget: CI debug/sanitizer builds are ~10x slower than a
# local release build. A wave at 2k hosts / 20k VMs prices every
# candidate of every donor that is not sunk at its first VM without a
# target, but runs cycle detection on the chosen moves' VMs only.
if(_wall GREATER 120.0)
  message(FATAL_ERROR
    "planner wave blew the wall-clock budget: ${_wall} s > 120 s")
endif()

message(STATUS "plan gate passed: beam net ${_beam_net} J <= first-fit ${_ff_net} J, "
               "cycle-aware ${_aware} J <= blind ${_blind} J, "
               "${_aligned}/${_moves} moves aligned, slowest wave ${_wall} s")
