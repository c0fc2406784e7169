# Runs one benchmark suite into a release BENCH_*.json snapshot: 5
# repetitions, with this build's type and the commit the run measured in
# the context block. google-benchmark's own `library_build_type` describes
# the library, not this build, hence `build_type` next to it. The sha is
# read here, when the snapshot is taken, so a tree configured at one
# commit and rebuilt at another still records the right one. It ends in
# "-dirty" when tracked files differ from that commit, and reads
# "unknown" outside a git checkout. Invoked by the bench_*_json targets:
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
  COMMAND "${BENCH}"
          --benchmark_out=${OUT}
          --benchmark_out_format=json
          --benchmark_min_time=${MIN_TIME}
          --benchmark_repetitions=5
          --benchmark_context=build_type=${BUILD_TYPE},git_sha=${sha}
  RESULT_VARIABLE bench_failed)
if(bench_failed)
  message(FATAL_ERROR "${BENCH} failed: ${bench_failed}")
endif()
