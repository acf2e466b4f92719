# Runs EXE with ARGS and fails unless it exits with status 2 and its stderr
# matches EXPECT — the strict-flag contract of the bench CLIs.
#
#   cmake -DEXE=<binary> -DARGS="<args>" -DEXPECT=<regex> -P expect_flag_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit status 2 from ${EXE} ${ARGS}, got ${rc}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "stderr of ${EXE} ${ARGS} does not match '${EXPECT}': ${err}")
endif()
