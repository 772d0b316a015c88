# Runs trng_tool once and checks the outcome:
#
#   cmake -DTOOL=<trng_tool> -DARGS="<args>" -DSHA=<hex> -P trng_tool_cli.cmake
#   cmake -DTOOL=<trng_tool> -DARGS="<args>" -DEXIT=<n>  -P trng_tool_cli.cmake
#
# SHA: exit 0 and a stdout whose SHA-256 starts with these hex digits.
# EXIT: exactly this exit status (stdout is not checked).
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)

if(DEFINED EXIT)
  if(NOT status STREQUAL EXIT)
    message(FATAL_ERROR
      "trng_tool ${ARGS}: exit status ${status}, expected ${EXIT}\n${err}")
  endif()
else()
  if(NOT status STREQUAL "0")
    message(FATAL_ERROR "trng_tool ${ARGS}: exit status ${status}\n${err}")
  endif()
  string(SHA256 digest "${out}")
  string(LENGTH "${SHA}" n)
  string(SUBSTRING "${digest}" 0 ${n} prefix)
  if(NOT prefix STREQUAL SHA)
    message(FATAL_ERROR
      "trng_tool ${ARGS}: stdout SHA-256 ${digest}, expected ${SHA}...")
  endif()
endif()
