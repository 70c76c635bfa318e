# One cnpu_lint case, run by CTest:
#
#   cmake -DLINT=<cnpu_lint> -DEXPECT=<exit code> -DRULE=<rule ID or empty>
#         -DARGS=<flags and bundle files> [-DEMPTY_BOUNDS=ON] -P check.cmake
#
# Runs `cnpu_lint --json ARGS`. The case fails when the exit code is not
# EXPECT; when the output does not report RULE or, with RULE empty, reports
# any finding; with EMPTY_BOUNDS, when the --bounds table holds a stream;
# or when stderr carries a UBSan "runtime error:" line, so the ASan+UBSan
# build checks these paths for undefined behaviour too.
execute_process(COMMAND "${LINT}" --json ${ARGS}
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
set(log "--- stdout:\n${out}--- stderr:\n${err}")
if(NOT code EQUAL EXPECT)
  message(FATAL_ERROR "cnpu_lint exited ${code}, expected ${EXPECT}\n${log}")
endif()
if(RULE STREQUAL "")
  string(FIND "${out}" "\"rule\":" at)
  if(NOT at EQUAL -1)
    message(FATAL_ERROR "expected no findings\n${log}")
  endif()
else()
  string(FIND "${out}" "\"rule\":\"${RULE}\"" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "rule ${RULE} was not reported\n${log}")
  endif()
endif()
if(EMPTY_BOUNDS)
  string(FIND "${out}" "\"streams\":[]" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "expected an empty bounds table\n${log}")
  endif()
endif()
string(FIND "${err}" "runtime error:" at)
if(NOT at EQUAL -1)
  message(FATAL_ERROR "undefined behaviour\n${log}")
endif()
