# esm_sweep --figure on small specs written here.
#
#   cmake -DESM_SWEEP=esm_sweep -DWORK=DIR -P esm_sweep_figure.cmake
#
# 0 when every predicate holds, the same bytes at --jobs 1 and 2; 3 for
# a violated predicate; 2 with exactly one stderr line for a malformed
# spec or a point flag the run would reject.
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

# Runs the command in WORK and fails unless it exits with `code`; leaves
# its stdout and stderr in `out` and `err`.
function(expect_exit code)
  execute_process(COMMAND ${ARGN}
    WORKING_DIRECTORY ${WORK} RESULT_VARIABLE got
    OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  if(NOT got STREQUAL code)
    message(FATAL_ERROR "expected exit ${code}, got ${got}: ${ARGN}\n"
      "${stdout}${stderr}")
  endif()
  set(out "${stdout}" PARENT_SCOPE)
  set(err "${stderr}" PARENT_SCOPE)
endfunction()

set(small "title small\nbase --nodes 30 --messages 20\n\
columns payload_per_msg_all mean_latency_ms mean_delivery_fraction\n\
series flat pi 0,0.5,1 --strategy flat\n\
series ttl u 0,2 --strategy ttl\n\
anchor eager flat 1 payload_per_msg_all 11\n\
monotone flat pi payload_per_msg_all rises\n")
file(WRITE ${WORK}/pass.fig "${small}within eager 11\n")
file(WRITE ${WORK}/violated.fig
  "${small}monotone flat pi payload_per_msg_all falls\n")

expect_exit(0 ${ESM_SWEEP} --figure pass.fig --jobs 1)
set(jobs1 "${out}")
if(NOT out MATCHES "predicates: 2 checked, 0 failed")
  message(FATAL_ERROR "passing spec:\n${out}")
endif()
expect_exit(0 ${ESM_SWEEP} --jobs 2 --figure pass.fig)
if(NOT out STREQUAL jobs1)
  message(FATAL_ERROR "--jobs 2 changed the output:\n${jobs1}\n---\n${out}")
endif()
expect_exit(3 ${ESM_SWEEP} --figure violated.fig --jobs 2)
if(NOT out MATCHES "predicates: 2 checked, 1 failed\n.*FAIL  monotone flat")
  message(FATAL_ERROR "violated predicate not reported:\n${out}")
endif()

# Malformed specs, and flags a point rejects.
file(WRITE ${WORK}/typo.fig "title t\ncolumns mean_latency_ms\nserie a pi 0\n")
file(WRITE ${WORK}/kv.fig "title t\ncolumns latency_ms\n")
file(WRITE ${WORK}/point.fig
  "title t\ncolumns mean_latency_ms\nseries a rho 5,-5 --strategy radius\n")
foreach(args "--figure;typo.fig" "--figure;kv.fig" "--figure;point.fig"
    "--figure;missing.fig" "--figure" "--figure;pass.fig;--nodes;20"
    "--figure;pass.fig;--jobs;x")
  expect_exit(2 ${ESM_SWEEP} ${args})
  string(REGEX MATCHALL "\n" lines "${err}")
  list(LENGTH lines count)
  if(NOT count EQUAL 1)
    message(FATAL_ERROR "esm_sweep ${args}: want one stderr line:\n${err}")
  endif()
endforeach()
