# Command-line checks of the built `powermove` binary: flag values it
# must reject, each with a nonzero exit and the expected diagnostic on
# stderr, plus the largest accepted 32-bit value as a control, and the
# --stats-json counts against the --metrics-json export.
#
#   cmake -DPOWERMOVE=<powermove binary> -DINPUT=<file.qasm> \
#         -P tests/cli_flags_test.cmake

if(NOT POWERMOVE OR NOT INPUT)
  message(FATAL_ERROR "usage: cmake -DPOWERMOVE=... -DINPUT=... -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

# expect_rejected(<expected stderr substring> <arg>...)
function(expect_rejected needle)
  execute_process(COMMAND "${POWERMOVE}" --no-json ${ARGN} "${INPUT}"
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(code EQUAL 0)
    message(FATAL_ERROR "powermove ${ARGN}: accepted, expected a rejection")
  endif()
  string(FIND "${err}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "powermove ${ARGN}: exit ${code}, stderr lacks "
                        "'${needle}':\n${err}")
  endif()
  message(STATUS "rejected as expected: ${ARGN}")
endfunction()

# Out-of-range numbers: strtoull's ERANGE and the 32-bit option fields.
expect_rejected("bad value for --routing-window: '4294967297'"
                --routing-window=4294967297)
expect_rejected("bad value for --routing-window: '4294967296'"
                --routing-window=4294967296)
expect_rejected("bad value for --placement-refine-iters: '4294967296'"
                --placement-refine-iters=4294967296)
expect_rejected("bad value for --reuse-lookahead: '4294967296'"
                --reuse-lookahead 4294967296)
expect_rejected("bad value for --num-aods: '18446744073709551616'"
                --num-aods=18446744073709551616)

# Retired strategy values and flags; the alternatives come from the
# strategy catalog.
expect_rejected("unknown placement 'column-interleaved' (expected row-major or routing-aware)"
                --placement column-interleaved)
expect_rejected("unknown residency policy 'lru' (expected lookahead, lti, or fidelity)"
                --residency=lru)
expect_rejected("unknown option '--stage-partition'"
                --stage-partition linear)
expect_rejected("unknown option '--batch-policy'"
                --batch-policy in-order)

# Control: UINT32_MAX itself is a valid 32-bit value.
execute_process(COMMAND "${POWERMOVE}" --no-json --jobs 1
                        --placement-refine-iters=4294967295 "${INPUT}"
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "--placement-refine-iters=4294967295 rejected "
                      "(exit ${code}):\n${err}")
endif()

# --stats-json reads the service's metrics registry whether or not an
# export is asked for: over every sample input, one of them given
# twice, the counts agree with and without --metrics-json, and equal
# the matching series of that export.
get_filename_component(data_dir "${INPUT}" DIRECTORY)
file(GLOB qasm_inputs "${data_dir}/*.qasm")
set(out_dir "${CMAKE_CURRENT_BINARY_DIR}/cli_flags_test_stats")
file(REMOVE_RECURSE "${out_dir}")
file(MAKE_DIRECTORY "${out_dir}")

# json_count(<out var> <json text> <key>): the integer after "key":.
function(json_count out json key)
  string(REGEX MATCH "\"${key}\": *([0-9]+)" matched "${json}")
  if(NOT matched)
    message(FATAL_ERROR "no count '${key}' in:\n${json}")
  endif()
  set(${out} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

# series_value(<out var> <metrics json> <name> <labels json>)
function(series_value out json name labels)
  set(key "{\"name\":\"${name}\",\"labels\":${labels},\"value\":")
  string(FIND "${json}" "${key}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "no series ${name}${labels} in the metrics export")
  endif()
  string(SUBSTRING "${json}" ${at} 200 tail)
  string(REGEX MATCH "\"value\":([0-9]+)" matched "${tail}")
  set(${out} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

foreach(mode plain metrics)
  set(extra)
  if(mode STREQUAL "metrics")
    set(extra --metrics-json "${out_dir}/metrics.json")
  endif()
  execute_process(COMMAND "${POWERMOVE}" --no-json --jobs 2
                          --stats-json "${out_dir}/stats_${mode}.json" ${extra}
                          ${qasm_inputs} "${INPUT}"
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "--stats-json run (${mode}) failed "
                        "(exit ${code}):\n${err}")
  endif()
  file(READ "${out_dir}/stats_${mode}.json" stats_${mode})
endforeach()

list(LENGTH qasm_inputs num_inputs)
math(EXPR expected_submitted "${num_inputs} + 1")
file(READ "${out_dir}/metrics.json" metrics)
series_value(series_submitted "${metrics}" powermove_jobs_submitted_total "{}")
series_value(series_failed "${metrics}" powermove_compile_failures_total "{}")
series_value(series_miss "${metrics}" powermove_jobs_tier_total
             "{\"tier\":\"miss\"}")
math(EXPR series_compiled "${series_miss} - ${series_failed}")
foreach(key submitted compiled failed)
  json_count(plain_${key} "${stats_plain}" ${key})
  json_count(metrics_${key} "${stats_metrics}" ${key})
  if(NOT plain_${key} EQUAL metrics_${key})
    message(FATAL_ERROR "--stats-json ${key}: ${plain_${key}} without "
                        "--metrics-json, ${metrics_${key}} with it")
  endif()
  if(NOT metrics_${key} EQUAL series_${key})
    message(FATAL_ERROR "--stats-json ${key} = ${metrics_${key}}, but the "
                        "metrics export reads ${series_${key}}")
  endif()
endforeach()
if(NOT plain_submitted EQUAL expected_submitted)
  message(FATAL_ERROR "submitted = ${plain_submitted}, "
                      "expected ${expected_submitted}")
endif()
if(NOT plain_compiled EQUAL num_inputs)
  message(FATAL_ERROR "compiled = ${plain_compiled}, expected ${num_inputs} "
                      "(the repeated input must not compile twice)")
endif()
file(REMOVE_RECURSE "${out_dir}")
message(STATUS "--stats-json agrees with and without --metrics-json")
