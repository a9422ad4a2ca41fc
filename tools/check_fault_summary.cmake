# Golden result and robustness tables, run as a ctest via cmake -P. Runs
# smarthsim with the arguments given after `--`, keeps the tables of its
# stdout, and compares them byte for byte with a checked-in golden file. Any
# changed count, second or event total fails the test. Kept are:
#   - every "<protocol> robustness:" and "<protocol> merged robustness:"
#     section;
#   - the result table ("protocol ..." for a single or open-loop run, and
#     each "<protocol> sweep, ..." per-seed table with its "sweep:" line);
#   - the "improvement:" and "mean improvement:" lines;
#   - every --timeline chart: its title, its rows, its rule and its time
#     range line (or the one-line single-sample note).
#
# Expects -DSMARTHSIM=<path to the binary>, -DGOLDEN=<golden file> and
# -DOUT_DIR=<writable dir>. On a mismatch the actual tables are written to
# OUT_DIR/<golden name>.actual; after an intended change, copy that file over
# the golden.

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

execute_process(COMMAND ${SMARTHSIM} ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "smarthsim ${args} exited ${rc}")
endif()

# A robustness section is its title line, the table header and rule, then
# every "<label>  <number>" row up to the first line of anything else. A
# result table is its header line, then its rule and every row that starts
# with a protocol name or a seed. A timeline chart is its title line, then
# every row of '#' and blanks, its rule and the "<from> .. <to>" line.
string(REPLACE "\n" ";" lines "${out}")
set(kept "")
set(robustness "")
set(state "outside")
foreach(line IN LISTS lines)
  if(line MATCHES "^[A-Z]+ (merged )?robustness:$")
    string(APPEND kept "${line}\n")
    string(APPEND robustness "${line}\n")
    set(state "header")
    set(header_lines 0)
  elseif(state STREQUAL "header")
    string(APPEND kept "${line}\n")
    math(EXPR header_lines "${header_lines} + 1")
    if(header_lines EQUAL 2)
      set(state "rows")
    endif()
  elseif(state STREQUAL "rows" AND
         line MATCHES "^[A-Za-z][A-Za-z/()-]*( [A-Za-z/()-]+)*  +[0-9]")
    string(APPEND kept "${line}\n")
  elseif(line MATCHES "^pipeline concurrency[ :]")
    string(APPEND kept "${line}\n")
    set(state "chart")
  elseif(state STREQUAL "chart" AND line MATCHES "^[# ]+$|^-+$")
    string(APPEND kept "${line}\n")
  elseif(state STREQUAL "chart" AND line MATCHES " \\.\\. ")
    string(APPEND kept "${line}\n")
    set(state "outside")
  elseif(line MATCHES "^(protocol|seed)  ")
    string(APPEND kept "${line}\n")
    set(state "table")
  elseif(state STREQUAL "table" AND line MATCHES "^(-+|(HDFS|SMARTH|[0-9]+) .*)$")
    string(APPEND kept "${line}\n")
  elseif(line MATCHES "^([A-Z]+ sweep, .*|sweep: .*|(mean )?improvement: .*)$")
    string(APPEND kept "${line}\n")
    set(state "outside")
  else()
    set(state "outside")
  endif()
endforeach()
if(robustness STREQUAL "")
  message(FATAL_ERROR "smarthsim ${args} printed no robustness table")
endif()

file(READ ${GOLDEN} expected)
if(NOT kept STREQUAL expected)
  get_filename_component(name ${GOLDEN} NAME)
  file(WRITE ${OUT_DIR}/${name}.actual "${kept}")
  message(FATAL_ERROR
          "tables differ from ${GOLDEN} "
          "(actual written to ${OUT_DIR}/${name}.actual)\n"
          "--- expected\n${expected}--- actual\n${kept}")
endif()
