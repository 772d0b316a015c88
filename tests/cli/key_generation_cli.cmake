# Runs the key_generation example and checks its closing tally:
#
#   cmake -DEXAMPLE=<key_generation> -DKEYS=<n> -P key_generation_cli.cmake
#
# The example draws a 20000-bit (2500-byte) startup block and one
# 2500-byte block per screened block, so the "bytes drawn" figure must be
# 2500 * (blocks screened + 1).
execute_process(COMMAND "${EXAMPLE}" ${KEYS}
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "key_generation ${KEYS}: exit status ${status}\n${err}")
endif()
string(REGEX MATCH
       "([0-9]+) blocks screened, [0-9]+ rejected; ([0-9]+) bytes drawn"
       tally "${out}")
if(NOT tally)
  message(FATAL_ERROR "key_generation ${KEYS}: no tally line in\n${out}")
endif()
math(EXPR expected "2500 * (${CMAKE_MATCH_1} + 1)")
if(NOT CMAKE_MATCH_2 STREQUAL expected)
  message(FATAL_ERROR "key_generation ${KEYS}: ${CMAKE_MATCH_2} bytes drawn "
          "for ${CMAKE_MATCH_1} screened blocks, expected ${expected}")
endif()
