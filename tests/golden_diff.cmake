# Runs BIN and compares its stdout byte for byte with the GOLDEN file;
# on a mismatch prints a unified diff and fails.
#   cmake -DBIN=<binary> -DGOLDEN=<file> -P golden_diff.cmake
execute_process(COMMAND ${BIN} OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  get_filename_component(stem ${GOLDEN} NAME)
  set(actual_file ${CMAKE_CURRENT_BINARY_DIR}/${stem}.actual)
  file(WRITE ${actual_file} "${actual}")
  execute_process(COMMAND diff -u ${GOLDEN} ${actual_file})
  message(FATAL_ERROR "stdout of ${BIN} differs from ${GOLDEN}; "
                      "actual output kept in ${actual_file}")
endif()
