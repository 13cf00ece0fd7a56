# Runs EXE with the space-separated ARGS and fails unless it exits 2 with a
# usage line on stderr: a malformed count flag is a usage error, never a
# wrapped-around value that aborts in the allocator.
#
#   cmake -DEXE=<binary> "-DARGS=<args>" -P ExpectUsage.cmake
separate_arguments(ArgList UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${ArgList}
  RESULT_VARIABLE Rc OUTPUT_VARIABLE Out ERROR_VARIABLE Err)
if(NOT Rc STREQUAL "2")
  message(FATAL_ERROR "expected exit status 2, got '${Rc}'\nstderr:\n${Err}")
endif()
if(NOT Err MATCHES "usage: ")
  message(FATAL_ERROR "expected a usage line on stderr, got:\n${Err}")
endif()
