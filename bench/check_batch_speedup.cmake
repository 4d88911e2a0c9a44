# Gate script for the batched prediction path: parses the artefact
# bench_batch_eval emits and fails for WAVM3 at batch size 64 if
#   * predict_batch with the batch build included is slower than the
#     scalar predict_energy loop (speedup_built < 1.0), or
#   * predict_batch over a pre-built batch — the evaluation-loop steady
#     state, where one FeatureBatch serves every model — is under the
#     2x throughput floor (speedup_eval < 2.0), or
#   * that same eval-only speedup is under 65x. The batch
#     build dominates speedup_built, so only speedup_eval sees the
#     design apply. Over interleaved rounds it read 139-159x in eight
#     serial runs on a 4-vCPU VM, 87-93x in an ASan/UBSan build, and
#     44-46x with the apply run 4x over; the floor sits between the
#     last two.
# Run as `cmake -DARTIFACT=... -P check_batch_speedup.cmake`
# (the bench_batch_eval_speedup_gate ctest entry).
cmake_minimum_required(VERSION 3.19)  # string(JSON ...)

if(NOT DEFINED ARTIFACT)
  message(FATAL_ERROR "pass -DARTIFACT=<path to bench_batch_eval.json>")
endif()
if(NOT EXISTS "${ARTIFACT}")
  message(FATAL_ERROR "artefact not found: ${ARTIFACT} (run bench_batch_eval first)")
endif()

file(READ "${ARTIFACT}" _json)
string(JSON _n_rows LENGTH "${_json}" rows)
if(_n_rows EQUAL 0)
  message(FATAL_ERROR "artefact has no rows: ${ARTIFACT}")
endif()

set(_checked 0)
math(EXPR _last "${_n_rows} - 1")
foreach(_i RANGE ${_last})
  string(JSON _model GET "${_json}" rows ${_i} model)
  string(JSON _batch GET "${_json}" rows ${_i} batch_size)
  string(JSON _built GET "${_json}" rows ${_i} speedup_built)
  string(JSON _eval GET "${_json}" rows ${_i} speedup_eval)
  if(_model STREQUAL "wavm3" AND _batch EQUAL 64)
    if(_built LESS 1.0)
      message(FATAL_ERROR
        "batch path regression: wavm3 batch=${_batch} speedup_built=${_built} < 1.0x")
    endif()
    if(_eval LESS 2.0)
      message(FATAL_ERROR
        "batch path regression: wavm3 batch=${_batch} speedup_eval=${_eval} < 2.0x")
    endif()
    if(_eval LESS 65.0)
      message(FATAL_ERROR
        "batch apply regression: wavm3 batch=${_batch} speedup_eval=${_eval} < 65x")
    endif()
    math(EXPR _checked "${_checked} + 1")
    message(STATUS "wavm3 batch=${_batch}: built ${_built}x >= 1.0x, eval ${_eval}x >= 65x")
  endif()
endforeach()

if(_checked EQUAL 0)
  message(FATAL_ERROR "no wavm3 row with batch_size == 64 in ${ARTIFACT}")
endif()
message(STATUS "batch speedup gate passed (${_checked} rows checked)")
