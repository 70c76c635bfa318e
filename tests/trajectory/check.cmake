# One tools/bench_trajectory.py case, run by CTest:
#
#   cmake -DPYTHON=... -DSCRIPT=... -DRECORDS=<file> -DOUT=<file>
#         -DEXPECT=<exit code> -DRUNS=<runs the file holds> -P check.cmake
#
# --out starts as a trajectory holding one earlier entry, the parent side of
# --pr test with source digest "aaaa". The records file is filed as the
# change side of --pr test. Exit 0 must append RUNS entries; any other exit
# code must leave --out byte for byte as it was.
set(seed [=[{"entries": [
  {"pr": "test", "record": {"seed": "0", "source_digest": "aaaa", "workload": "dse_design"}, "result": {"correct": true, "metrics": {}}, "side": "parent"}
]}
]=])
file(WRITE "${OUT}" "${seed}")
execute_process(
  COMMAND "${PYTHON}" "${SCRIPT}" --pr test --side change --out "${OUT}"
          "${RECORDS}"
  RESULT_VARIABLE code)
if(NOT code EQUAL EXPECT)
  message(FATAL_ERROR "bench_trajectory.py exited ${code}, expected ${EXPECT}")
endif()
file(READ "${OUT}" after)
if(EXPECT EQUAL 0)
  string(REGEX MATCHALL "\n  {" lines "${after}")
  list(LENGTH lines entries)
  math(EXPR want "${RUNS} + 1")
  if(NOT entries EQUAL want)
    message(FATAL_ERROR "--out holds ${entries} entries, expected ${want}")
  endif()
elseif(NOT after STREQUAL seed)
  message(FATAL_ERROR "a refused records file changed --out")
endif()
