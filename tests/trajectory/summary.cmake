# One tools/bench_trajectory.py --summary or --layers case, run by CTest:
#
#   cmake -DPYTHON=... -DSCRIPT=... -DTRAJECTORY=<file> -DPR=<id>
#         -DMODE=--summary|--layers -DEXPECT=<exit code> [-DROW=<a line the
#         output must hold>] [-DABSENT=<text the output must not hold>]
#         -P summary.cmake
execute_process(
  COMMAND "${PYTHON}" "${SCRIPT}" ${MODE} "${PR}" --out "${TRAJECTORY}"
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out)
if(NOT code EQUAL EXPECT)
  message(FATAL_ERROR "bench_trajectory.py exited ${code}, expected ${EXPECT}")
endif()
if(DEFINED ROW)
  string(FIND "${out}" "${ROW}\n" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "no row \"${ROW}\" in:\n${out}")
  endif()
endif()
if(DEFINED ABSENT)
  string(FIND "${out}" "${ABSENT}" at)
  if(NOT at EQUAL -1)
    message(FATAL_ERROR "\"${ABSENT}\" should not be in:\n${out}")
  endif()
endif()
