# Round-trips a semcommute-serve snapshot through the CLI: one Accumulator
# pass written with --snapshot, then reloaded with --reload and served
# again, must exit 0 and report twice the log rows and twice the pair
# groups of the first pass in --json, while its summary line counts the
# second pass alone. A hand-written schema-1 (single-session) image must be
# refused with exit status 2 and an error naming schema 1.
# Registered with CTest from the root CMakeLists.txt:
#
#   cmake -DPROGRAM=<semcommute-serve> -DWORKDIR=<scratch dir> \
#     -P ServeReload.cmake

cmake_minimum_required(VERSION 3.19) # string(JSON)

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
set(Snapshot "${WORKDIR}/snapshot.json")

# Runs one pass; its stdout is left in ServeStdout.
function(serve)
  execute_process(
    COMMAND "${PROGRAM}" --families Accumulator --passes 1 --quiet ${ARGN}
    RESULT_VARIABLE Status
    OUTPUT_VARIABLE Stdout
    ERROR_VARIABLE Stderr)
  if(NOT Status EQUAL 0)
    message(FATAL_ERROR "semcommute-serve ${ARGN}: exit ${Status}\n${Stderr}")
  endif()
  set(ServeStdout "${Stdout}" PARENT_SCOPE)
endfunction()

# Log rows and session.pair_groups of the --json report in FILE.
function(read_report File RowsVar GroupsVar)
  file(READ "${File}" Text)
  string(JSON Rows LENGTH "${Text}" log)
  string(JSON Groups GET "${Text}" session pair_groups)
  set(${RowsVar} ${Rows} PARENT_SCOPE)
  set(${GroupsVar} ${Groups} PARENT_SCOPE)
endfunction()

serve(--snapshot "${Snapshot}" --json "${WORKDIR}/first.json")
serve(--reload "${Snapshot}" --json "${WORKDIR}/reloaded.json")
# The summary line reports this run: its pair groups and batched reuses
# add up to the requests it served, without the reloaded image's.
if(NOT ServeStdout MATCHES
   "served ([0-9]+) requests[^;]*; ([0-9]+) pair groups, ([0-9]+) batched reuses")
  message(FATAL_ERROR "no summary line after --reload:\n${ServeStdout}")
endif()
set(Served ${CMAKE_MATCH_1})
math(EXPR Counted "${CMAKE_MATCH_2} + ${CMAKE_MATCH_3}")
if(NOT Counted EQUAL Served)
  message(FATAL_ERROR
    "after --reload the summary line counts ${CMAKE_MATCH_2} pair groups "
    "and ${CMAKE_MATCH_3} batched reuses for ${Served} requests served:\n"
    "${ServeStdout}")
endif()
read_report("${WORKDIR}/first.json" FirstRows FirstGroups)
read_report("${WORKDIR}/reloaded.json" Rows Groups)
if(FirstRows EQUAL 0 OR FirstGroups EQUAL 0)
  message(FATAL_ERROR "the first pass served nothing")
endif()
math(EXPR WantRows "2 * ${FirstRows}")
math(EXPR WantGroups "2 * ${FirstGroups}")
if(NOT Rows EQUAL WantRows OR NOT Groups EQUAL WantGroups)
  message(FATAL_ERROR
    "after --reload: ${Rows} log rows and ${Groups} pair groups; expected "
    "${WantRows} and ${WantGroups}")
endif()

# What the single-session mode wrote: its own config, families and
# counters beside the log, no shards.
set(Legacy "${WORKDIR}/schema1.json")
file(WRITE "${Legacy}" [=[
{"schema": 1, "families": ["Accumulator"], "drains": 0, "pair_groups": 0,
 "batched_reuses": 0, "methods_discharged": 0, "serve_millis": 0.0,
 "log": []}
]=])
execute_process(
  COMMAND "${PROGRAM}" --families Accumulator --reload "${Legacy}" --quiet
  RESULT_VARIABLE Status
  OUTPUT_QUIET
  ERROR_VARIABLE Stderr)
if(NOT Status EQUAL 2)
  message(FATAL_ERROR "schema-1 image: expected exit 2, got ${Status}\n${Stderr}")
endif()
string(FIND "${Stderr}" "schema 1" Pos)
if(Pos EQUAL -1)
  message(FATAL_ERROR "schema-1 image: stderr does not name schema 1:\n${Stderr}")
endif()
