# Exit codes of esm_trace on a small trace that esm_run writes first.
#
#   cmake -DESM_RUN=esm_run -DESM_TRACE=esm_trace -DWORK=DIR \
#         -P esm_trace_exit_codes.cmake
#
# 0 for passing inputs, 3 for a violated bound, 2 with exactly one stderr
# line for a usage error, 1 for an unreadable or malformed trace.
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

# Runs the command in WORK and fails unless it exits with `code`; leaves
# its stdout and stderr in `out` and `err`.
function(expect_exit code)
  cmake_parse_arguments(ARG "" "INPUT" "" ${ARGN})
  if(ARG_INPUT)
    set(input INPUT_FILE ${WORK}/${ARG_INPUT})
  endif()
  execute_process(COMMAND ${ARG_UNPARSED_ARGUMENTS} ${input}
    WORKING_DIRECTORY ${WORK} RESULT_VARIABLE got
    OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  if(NOT got STREQUAL code)
    message(FATAL_ERROR "expected exit ${code}, got ${got}: "
      "${ARG_UNPARSED_ARGUMENTS}\n${stderr}")
  endif()
  set(out "${stdout}" PARENT_SCOPE)
  set(err "${stderr}" PARENT_SCOPE)
endfunction()

expect_exit(0 ${ESM_RUN} --nodes 40 --messages 30 --static-overlay
  --strategy ranked --best 0.1 --trace trace.csv --kv)
file(WRITE ${WORK}/pass.exp "deliver min=0.95\nlatency p=95 max=5s\ntree unique\n")
file(WRITE ${WORK}/violated.exp "latency p=95 max=1ms\n")
file(WRITE ${WORK}/malformed.csv "time_us,kind\nnot-a-number,delivery\n")
file(STRINGS ${WORK}/trace.csv header LIMIT_COUNT 1)
file(WRITE ${WORK}/header-only.csv "${header}\n")

expect_exit(0 ${ESM_TRACE} summary trace.csv)
expect_exit(0 ${ESM_TRACE} trees trace.csv)
expect_exit(0 ${ESM_TRACE} trees --kv - INPUT trace.csv)
if(NOT out MATCHES "tree_edges=")
  message(FATAL_ERROR "trees --kv from stdin printed no tree_edges:\n${out}")
endif()
expect_exit(0 ${ESM_TRACE} expect --expect pass.exp --nodes 40 trace.csv)
expect_exit(3 ${ESM_TRACE} expect --expect pass.exp --expect violated.exp
  --nodes 40 --kv trace.csv)
if(NOT out MATCHES "expect_failed=1\n")
  message(FATAL_ERROR "violated bound not reported:\n${out}")
endif()

# A header-only trace: no deliveries reads 0 / 0, and there are no trees.
expect_exit(0 ${ESM_TRACE} summary header-only.csv)
if(NOT out MATCHES "deliveries per message \\(min / max\\) +0 / 0")
  message(FATAL_ERROR "header-only summary:\n${out}")
endif()
expect_exit(1 ${ESM_TRACE} trees header-only.csv)

expect_exit(1 ${ESM_TRACE} summary missing.csv)
expect_exit(1 ${ESM_TRACE} trees malformed.csv)

# Usage errors: an unknown subcommand, a flag of another subcommand, a
# missing value, expect without --expect, no trace.
foreach(args "bogus;trace.csv" "summary;--kv;trace.csv"
    "trees;--expect;pass.exp;trace.csv" "expect;--nodes;0;trace.csv"
    "trees;--top" "expect;trace.csv" "trees")
  expect_exit(2 ${ESM_TRACE} ${args})
  string(REGEX MATCHALL "\n" lines "${err}")
  list(LENGTH lines count)
  if(NOT count EQUAL 1)
    message(FATAL_ERROR "esm_trace ${args}: want one stderr line:\n${err}")
  endif()
endforeach()
