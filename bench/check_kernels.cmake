# Gate script for the dispatched kernel layer: parses the artefact
# bench_kernels emits and fails if
#   * the SIMD and forced-scalar outputs of the batch-64 x 11-term
#     apply were not bit-identical (parity false), or
#   * the SIMD backend is under the 4x ns-per-prediction floor against
#     forced scalar on that shape.
# Hosts with no SIMD backend (or runs pinned by WAVM3_FORCE_SCALAR)
# mark simd_available=false and the speedup check is skipped — there is
# nothing to race. ASan/TSan builds mark instrumented=true and skip it
# too: their timings measure the sanitizer, not the kernels. Parity is
# enforced in every case.
# Run as `cmake -DARTIFACT=... -P check_kernels.cmake`
# (the bench_kernels_speedup_gate ctest entry).
cmake_minimum_required(VERSION 3.19)  # string(JSON ...)

if(NOT DEFINED ARTIFACT)
  message(FATAL_ERROR "pass -DARTIFACT=<path to bench_kernels.json>")
endif()
if(NOT EXISTS "${ARTIFACT}")
  message(FATAL_ERROR "artefact not found: ${ARTIFACT} (run bench_kernels first)")
endif()

file(READ "${ARTIFACT}" _json)
string(JSON _backend GET "${_json}" backend)
string(JSON _simd GET "${_json}" simd_available)
string(JSON _instrumented GET "${_json}" instrumented)
string(JSON _parity GET "${_json}" batch64 parity)
string(JSON _speedup GET "${_json}" batch64 speedup)

if(NOT _parity)
  message(FATAL_ERROR
    "kernel parity violation: SIMD and forced-scalar batch-64 outputs differ")
endif()
message(STATUS "batch-64 apply bit parity: ok (backend ${_backend})")

if(NOT _simd)
  message(STATUS "no SIMD backend active — speedup gate skipped")
  return()
endif()

if(_instrumented)
  message(STATUS "sanitizer-instrumented build (${_backend} ${_speedup}x) — "
                 "4.0x speedup gate skipped")
  return()
endif()

if(_speedup LESS 4.0)
  message(FATAL_ERROR
    "kernel speedup regression: ${_backend} batch-64 apply ${_speedup}x < 4.0x vs scalar")
endif()
message(STATUS "kernel speedup gate passed: ${_backend} ${_speedup}x >= 4.0x")
