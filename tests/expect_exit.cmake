# Runs one binary and checks its exit code and that its stderr matches a
# regular expression — for tools that must reject bad input with a usage
# error instead of crashing.
#
#   cmake -DBIN=<exe> -DARGS="<space-separated args>" -DEXPECT_RC=<code>
#         -DEXPECT_STDERR=<regex> -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc STREQUAL "${EXPECT_RC}")
  message(FATAL_ERROR "${BIN} ${ARGS} exited with ${rc}, want ${EXPECT_RC}\n${err}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr of ${BIN} ${ARGS} does not match '${EXPECT_STDERR}':\n${err}")
endif()
