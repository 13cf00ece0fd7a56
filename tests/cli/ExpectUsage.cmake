# Runs EXE with the space-separated ARGS and fails unless it exits RC
# (default 2) with a usage line on stderr: a malformed numeric flag is a
# usage error, never a wrapped-around value that aborts in the allocator.
#
#   cmake -DEXE=<binary> "-DARGS=<args>" [-DRC=<status>] -P ExpectUsage.cmake
if(NOT DEFINED RC)
  set(RC 2)
endif()
separate_arguments(ArgList UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${ArgList}
  RESULT_VARIABLE Rc OUTPUT_VARIABLE Out ERROR_VARIABLE Err)
if(NOT Rc STREQUAL "${RC}")
  message(FATAL_ERROR "expected exit status ${RC}, got '${Rc}'\nstderr:\n${Err}")
endif()
if(NOT Err MATCHES "usage: ")
  message(FATAL_ERROR "expected a usage line on stderr, got:\n${Err}")
endif()
