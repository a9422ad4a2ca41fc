# Golden export file, run as a ctest via cmake -P. Runs smarthsim with the
# arguments given after `--` plus --timeseries-out=<OUT_DIR>/<golden name>,
# and compares the written file with the checked-in golden byte for byte.
# The golden's extension picks the format (.csv is CSV, anything else JSON).
#
# Expects -DSMARTHSIM=<path to the binary>, -DGOLDEN=<golden file> and
# -DOUT_DIR=<writable dir>. On a mismatch the written file is left at
# OUT_DIR/<golden name>; after an intended change, copy it over the golden.

set(args "")
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND args "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()

get_filename_component(name ${GOLDEN} NAME)
set(actual ${OUT_DIR}/${name})
file(REMOVE ${actual})
execute_process(COMMAND ${SMARTHSIM} ${args} --timeseries-out=${actual}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "smarthsim ${args} exited ${rc}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${actual}
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  file(READ ${GOLDEN} expected)
  file(READ ${actual} written)
  message(FATAL_ERROR
          "${actual} differs from ${GOLDEN}\n"
          "--- expected\n${expected}--- actual\n${written}")
endif()
