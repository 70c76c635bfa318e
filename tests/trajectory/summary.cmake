# One tools/bench_trajectory.py --summary case, run by CTest:
#
#   cmake -DPYTHON=... -DSCRIPT=... -DTRAJECTORY=<file> -DPR=<id>
#         -DEXPECT=<exit code> [-DROW=<a line the output must hold>]
#         -P summary.cmake
execute_process(
  COMMAND "${PYTHON}" "${SCRIPT}" --summary "${PR}" --out "${TRAJECTORY}"
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
