# Runs `PROGRAM FLAG VALUE` and fails unless the program exits with status 2
# and its stderr carries the one-line usage error naming the flag, what it
# wants (WANT, default "a positive integer") and the value. Registered with
# CTest from the root CMakeLists.txt:
#
#   cmake -DPROGRAM=<exe> -DFLAG=--seq-bound -DVALUE=0 -P ExpectUsageError.cmake
#   cmake -DPROGRAM=<exe> -DFLAG=--seed -DVALUE=abc "-DWANT=an integer" \
#     -P ExpectUsageError.cmake

if(NOT WANT)
  set(WANT "a positive integer")
endif()

execute_process(
  COMMAND "${PROGRAM}" "${FLAG}" "${VALUE}"
  RESULT_VARIABLE Status
  OUTPUT_QUIET
  ERROR_VARIABLE Stderr)

if(NOT Status EQUAL 2)
  message(FATAL_ERROR
    "${FLAG} ${VALUE}: expected exit status 2, got ${Status}\n${Stderr}")
endif()
foreach(Want "${FLAG} wants ${WANT}" "got '${VALUE}'")
  string(FIND "${Stderr}" "${Want}" Pos)
  if(Pos EQUAL -1)
    message(FATAL_ERROR
      "${FLAG} ${VALUE}: stderr lacks \"${Want}\":\n${Stderr}")
  endif()
endforeach()
