# Run a command and require an exact exit status (and, optionally, output).
#
#   cmake -DEXIT_CODE=<n> [-DEXPECT_OUTPUT=<regex>] -P expect_exit.cmake
#         <program> [args...]
#
# Fails unless <program> exits with status <n> and, when EXPECT_OUTPUT is
# set, its combined stdout/stderr matches the regex. ctest alone can only
# tell zero from non-zero; the examples promise status 2 for a bad knob,
# which a crash (SIGABRT, 134) must not satisfy.

if(NOT DEFINED EXIT_CODE)
  message(FATAL_ERROR "expect_exit.cmake: pass -DEXIT_CODE=<n>")
endif()

# Everything after "-P <this script>" is the command to run.
set(command)
set(take FALSE)
set(prev "")
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 1 ${last})
  if(take)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(prev STREQUAL "-P")
    set(take TRUE)
  endif()
  set(prev "${CMAKE_ARGV${i}}")
endforeach()
if(NOT command)
  message(FATAL_ERROR "expect_exit.cmake: no command given")
endif()

execute_process(COMMAND ${command}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
message("${out}${err}")

if(NOT status STREQUAL "${EXIT_CODE}")
  message(FATAL_ERROR
    "expected exit status ${EXIT_CODE}, got '${status}' from: ${command}")
endif()
if(DEFINED EXPECT_OUTPUT AND NOT "${out}${err}" MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR "output does not match '${EXPECT_OUTPUT}'")
endif()
