# Runs EXE with ARGS in a fresh WORKDIR and fails unless it exits 0 and its
# stdout equals FIXTURE once wall-clock figures are masked on both sides:
# '#' lines are dropped and the transport table's Probes/s cells blanked.
#
#   cmake -DEXE=<report> -DARGS="<args>" -DFIXTURE=<file> -DWORKDIR=<dir> \
#         -P expect_report_text.cmake
function(mask_wall_clock text out)
  string(REGEX REPLACE "\n#[^\n]*" "" text "\n${text}")
  string(REGEX REPLACE "\n(one-shot|persistent|DoT session)( [^\n]*\\|) *[0-9]+"
         "\n\\1\\2 -" text "${text}")
  set(${out} "${text}" PARENT_SCOPE)
endfunction()

separate_arguments(args UNIX_COMMAND "${ARGS}")
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND "${EXE}" ${args} WORKING_DIRECTORY "${WORKDIR}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE actual ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} ${ARGS} exited ${rc}: ${err}")
endif()
file(READ "${FIXTURE}" expected)
mask_wall_clock("${actual}" actual_masked)
mask_wall_clock("${expected}" expected_masked)
if(NOT actual_masked STREQUAL expected_masked)
  file(WRITE "${WORKDIR}/actual.txt" "${actual}")
  message(FATAL_ERROR "stdout of ${EXE} ${ARGS} differs from ${FIXTURE}; "
          "it is in ${WORKDIR}/actual.txt (compare without '#' lines)")
endif()
