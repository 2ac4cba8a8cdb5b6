# Runs one binary and compares its stdout byte for byte with a golden file.
#
#   cmake -DBIN=<exe> -DARGS="<space-separated args>" -DGOLDEN=<file>
#         -DACTUAL=<file> -P compare.cmake
#
# On a mismatch the actual stdout is written to ACTUAL, so
# `diff -u GOLDEN ACTUAL` shows what moved.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "${BIN} ${ARGS} exited with ${rc}\n${err}")
endif()
file(READ "${GOLDEN}" want)
if(NOT out STREQUAL want)
  file(WRITE "${ACTUAL}" "${out}")
  message(FATAL_ERROR "stdout of ${BIN} ${ARGS} differs from the golden; "
                      "see: diff -u ${GOLDEN} ${ACTUAL}")
endif()
