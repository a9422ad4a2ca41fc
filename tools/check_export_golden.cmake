# Golden export files, run as a ctest via cmake -P. Runs smarthsim once
# with the arguments given after `--` plus one export flag per entry of
# EXPORTS, a comma-separated list of <flag>=<golden> (e.g.
# timeseries-out=golden/sweep_timeseries.json), each export written to
# <OUT_DIR>/<golden name>, and compares every written file with its golden
# byte for byte. The golden's extension picks the format where the flag has
# two (.csv is CSV, anything else JSON). A golden named <name>.sha256 holds
# the SHA-256 of the export written to <OUT_DIR>/<name> instead of its bytes.
#
# Expects -DSMARTHSIM=<path to the binary>, -DEXPORTS=<list> and
# -DOUT_DIR=<writable dir>. On a mismatch the written files are left in
# OUT_DIR; after an intended change, copy each over its golden (or its
# `cmake -E sha256sum` over a .sha256 golden).

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

string(REPLACE "," ";" exports "${EXPORTS}")
set(goldens "")
set(actuals "")
foreach(export ${exports})
  string(FIND "${export}" "=" eq)
  string(SUBSTRING "${export}" 0 ${eq} flag)
  math(EXPR from "${eq} + 1")
  string(SUBSTRING "${export}" ${from} -1 golden)
  get_filename_component(name ${golden} NAME)
  string(REGEX REPLACE "\\.sha256$" "" name ${name})
  set(actual ${OUT_DIR}/${name})
  file(REMOVE ${actual})
  list(APPEND args --${flag}=${actual})
  list(APPEND goldens ${golden})
  list(APPEND actuals ${actual})
endforeach()

execute_process(COMMAND ${SMARTHSIM} ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "smarthsim ${args} exited ${rc}")
endif()

set(mismatches "")
foreach(golden actual IN ZIP_LISTS goldens actuals)
  if(golden MATCHES "\\.sha256$")
    file(READ ${golden} expected)
    string(STRIP "${expected}" expected)
    file(SHA256 ${actual} written)
    if(NOT written STREQUAL expected)
      string(APPEND mismatches
             "SHA-256 of ${actual} is ${written}, ${golden} pins ${expected}\n")
    endif()
    continue()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${golden}
                          ${actual}
                  RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    file(READ ${golden} expected)
    file(READ ${actual} written)
    string(APPEND mismatches "${actual} differs from ${golden}\n"
           "--- expected\n${expected}--- actual\n${written}")
  endif()
endforeach()
if(mismatches)
  message(FATAL_ERROR "${mismatches}")
endif()
