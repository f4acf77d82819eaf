# Runs PROGRAM and fails unless it exits 0 and its stdout equals GOLDEN
# byte for byte. On a mismatch the output is kept beside the test as
# <golden name>.actual for diffing.
#
#   cmake -DPROGRAM=<exe> -DGOLDEN=<file> -P check_golden.cmake
execute_process(COMMAND ${PROGRAM}
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE status
)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited ${status}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name ${GOLDEN} NAME_WE)
  file(WRITE ${name}.actual "${actual}")
  message(FATAL_ERROR "stdout of ${PROGRAM} differs from ${GOLDEN}; "
                      "see diff ${GOLDEN} ${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
endif()
