# Runs BIN (with the optional argument ARG) and compares its stdout byte
# for byte with the GOLDEN file; on a mismatch prints a unified diff and
# fails. A BIN that exits 77 has nothing to check on this host: its stderr
# line (starting "SKIPPED:") is passed through, which the test's
# SKIP_REGULAR_EXPRESSION reports as a skip.
#   cmake -DBIN=<binary> [-DARG=<argument>] -DGOLDEN=<file> -P golden_diff.cmake
execute_process(COMMAND ${BIN} ${ARG} OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
if(rc EQUAL 77)
  return()
endif()
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  get_filename_component(stem ${GOLDEN} NAME)
  if(ARG)
    string(APPEND stem ".${ARG}")
  endif()
  set(actual_file ${CMAKE_CURRENT_BINARY_DIR}/${stem}.actual)
  file(WRITE ${actual_file} "${actual}")
  execute_process(COMMAND diff -u ${GOLDEN} ${actual_file})
  message(FATAL_ERROR "stdout of ${BIN} differs from ${GOLDEN}; "
                      "actual output kept in ${actual_file}")
endif()
