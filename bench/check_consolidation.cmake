# Gate script for the closed-loop consolidation bench: parses the
# artefact bench_consolidation_savings emits and fails unless
#   * on the diurnal fleet, cost-aware consolidation uses less energy
#     than never consolidating,
#   * with memory-hot guests and a 30 s off-window, the cost-aware
#     controller refuses vacates (plans rejected > 0) and powers no
#     host off, and
#   * in the same memory-hot case the cost-blind controller migrates
#     anyway (migrations > 0).
# Run as `cmake -DARTIFACT=... -P check_consolidation.cmake`
# (the bench_consolidation_gate ctest entry).
cmake_minimum_required(VERSION 3.19)  # string(JSON ...)

if(NOT DEFINED ARTIFACT)
  message(FATAL_ERROR "pass -DARTIFACT=<path to bench_consolidation_savings.json>")
endif()
if(NOT EXISTS "${ARTIFACT}")
  message(FATAL_ERROR
    "artefact not found: ${ARTIFACT} (run bench_consolidation_savings first)")
endif()

file(READ "${ARTIFACT}" _json)
string(JSON _diurnal_none GET "${_json}" diurnal no-consolidation energy_j)
string(JSON _diurnal_aware GET "${_json}" diurnal cost-aware energy_j)
string(JSON _hot_rejected GET "${_json}" memory_hot_30s cost-aware plans_rejected)
string(JSON _hot_aware_off GET "${_json}" memory_hot_30s cost-aware hosts_off)
string(JSON _hot_blind_moves GET "${_json}" memory_hot_30s cost-blind migrations)

if(NOT _diurnal_aware LESS _diurnal_none)
  message(FATAL_ERROR
    "cost-aware consolidation did not save energy on the diurnal fleet: "
    "${_diurnal_aware} J vs ${_diurnal_none} J without consolidation")
endif()

if(NOT _hot_rejected GREATER 0)
  message(FATAL_ERROR "memory-hot 30 s case: the cost-aware controller rejected no plan")
endif()

if(NOT _hot_aware_off EQUAL 0)
  message(FATAL_ERROR
    "memory-hot 30 s case: the cost-aware controller powered ${_hot_aware_off} host(s) off")
endif()

if(NOT _hot_blind_moves GREATER 0)
  message(FATAL_ERROR "memory-hot 30 s case: the cost-blind controller migrated nothing")
endif()

message(STATUS "consolidation gate passed: diurnal cost-aware ${_diurnal_aware} J < "
               "${_diurnal_none} J; memory-hot cost-aware rejected ${_hot_rejected}, "
               "powered off ${_hot_aware_off}; cost-blind migrated ${_hot_blind_moves}")
