# Runs one example and compares its stdout with the committed transcript.
#   cmake -DEXAMPLE=<binary> -DEXPECTED=<file.expected> -P check_transcript.cmake
execute_process(COMMAND ${EXAMPLE} OUTPUT_VARIABLE actual RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with status ${status}:\n${actual}")
endif()
file(READ ${EXPECTED} expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "${EXAMPLE} stdout differs from ${EXPECTED}\n"
                      "--- expected\n${expected}--- actual\n${actual}")
endif()
