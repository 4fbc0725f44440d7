# Command-line checks of the built `powermove` binary: flag values it
# must reject, each with a nonzero exit and the expected diagnostic on
# stderr, plus the largest accepted 32-bit value as a control.
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
