# Runs one ssring command line and checks its exit code and, optionally,
# that its combined stdout+stderr matches a regular expression:
#   cmake -DSSRING=<path> "-DARGS=converge --trials -1" -DEXIT=2
#         "-DMATCH=--trials" -P cli_expect.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${SSRING}" ${args}
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXIT}")
  message(FATAL_ERROR "ssring ${ARGS}: exit ${code}, expected ${EXIT}\n"
    "${out}${err}")
endif()
if(DEFINED MATCH AND NOT "${out}${err}" MATCHES "${MATCH}")
  message(FATAL_ERROR "ssring ${ARGS}: output does not match '${MATCH}'\n"
    "${out}${err}")
endif()
