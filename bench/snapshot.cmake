# Runs one benchmark suite into a release BENCH_*.json snapshot: 5
# repetitions, with this build's type and the commit the run measured in
# the context block. google-benchmark's own `library_build_type` describes
# the library, not this build, hence `build_type` next to it. The sha is
# read here, when the snapshot is taken, so a tree configured at one
# commit and rebuilt at another still records the right one. It ends in
# "-dirty" when tracked files differ from that commit, and reads
# "unknown" outside a git checkout.
#
# Every row runs in a process of its own, so no row reads a heap, cache or
# allocator state that the rows before it left behind; the rows' results
# are merged, in the suite's order and with the family indices a single
# run would give them, under the first process's context block. Invoked by
# the bench_*_json targets:
#   cmake -DBENCH=<binary> -DOUT=<json> -DMIN_TIME=<seconds>
#         -DBUILD_TYPE=<type> -DSOURCE_DIR=<repo> -P snapshot.cmake
execute_process(
  COMMAND git -C "${SOURCE_DIR}" rev-parse HEAD
  OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE
  RESULT_VARIABLE git_failed
  ERROR_QUIET)
if(git_failed OR sha STREQUAL "")
  set(sha unknown)
else()
  execute_process(
    COMMAND git -C "${SOURCE_DIR}" diff --quiet HEAD --
    RESULT_VARIABLE dirty
    ERROR_QUIET)
  if(dirty)
    string(APPEND sha -dirty)
  endif()
endif()

execute_process(
  COMMAND "${BENCH}" --benchmark_list_tests=true
  OUTPUT_VARIABLE rows
  RESULT_VARIABLE list_failed)
if(list_failed)
  message(FATAL_ERROR "${BENCH}: listing its rows failed: ${list_failed}")
endif()
string(STRIP "${rows}" rows)
string(REPLACE "\n" ";" rows "${rows}")

set(row_out "${OUT}.row")
set(merged "")
set(count 0)
set(families "")
foreach(row IN LISTS rows)
  string(REGEX MATCH "^[^/]*" family "${row}")
  list(FIND families "${family}" family_index)
  if(family_index EQUAL -1)
    list(LENGTH families family_index)
    list(APPEND families "${family}")
    set(instances_${family_index} 0)
  endif()
  set(instance_index ${instances_${family_index}})
  math(EXPR instances_${family_index} "${instance_index} + 1")
  string(REGEX REPLACE "([][.*+?^$(){}|\\\\])" "\\\\\\1" pattern "${row}")
  execute_process(
    COMMAND "${BENCH}"
            "--benchmark_filter=^${pattern}$"
            --benchmark_out=${row_out}
            --benchmark_out_format=json
            --benchmark_min_time=${MIN_TIME}
            --benchmark_repetitions=5
            --benchmark_context=build_type=${BUILD_TYPE},git_sha=${sha}
    RESULT_VARIABLE bench_failed)
  if(bench_failed)
    message(FATAL_ERROR "${BENCH} (${row}) failed: ${bench_failed}")
  endif()
  file(READ "${row_out}" row_json)
  if(merged STREQUAL "")
    string(JSON merged SET "${row_json}" benchmarks "[]")
  endif()
  string(JSON n LENGTH "${row_json}" benchmarks)
  math(EXPR last "${n} - 1")
  foreach(i RANGE ${last})
    string(JSON entry GET "${row_json}" benchmarks ${i})
    string(JSON entry SET "${entry}" family_index ${family_index})
    string(JSON entry SET "${entry}" per_family_instance_index
           ${instance_index})
    string(JSON merged SET "${merged}" benchmarks ${count} "${entry}")
    math(EXPR count "${count} + 1")
  endforeach()
endforeach()
file(REMOVE "${row_out}")
file(WRITE "${OUT}" "${merged}\n")
