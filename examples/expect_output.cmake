# Runs one example and fails unless it exits 0 and its standard output
# contains EXPECT (a plain substring, not a regex):
#   cmake -DEXE=<program> -DARGS=<arg;...> -DEXPECT=<text> \
#         -P expect_output.cmake
execute_process(COMMAND ${EXE} ${ARGS}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}${err}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${rc}")
endif()
string(FIND "${out}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${EXE} did not print \"${EXPECT}\"")
endif()
