# Runs fifty_year_experiment on a scenario with an unknown key and passes
# only when the binary exits 1, prints the loader's
# `cannot load scenario <path>: line N: unknown key ...` line and writes no
# artifacts. Usage:
#   cmake -DBINARY=<fifty_year_experiment> -P rejects_unknown_key.cmake
# from an empty working directory.

file(REMOVE_RECURSE fifty_year_artifacts)
file(WRITE bad_scenario.ini "[experiment]\nseed = 7\n\n[devices]\nbogus_key = 1\n")
execute_process(COMMAND ${BINARY} bad_scenario.ini
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
set(expected "cannot load scenario bad_scenario.ini: line 5: unknown key devices.bogus_key")
if(NOT status EQUAL 1)
  message(FATAL_ERROR "expected exit status 1, got '${status}'\nstdout: ${out}\nstderr: ${err}")
endif()
string(FIND "${err}" "${expected}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr lacks '${expected}'\nstderr: ${err}")
endif()
if(EXISTS fifty_year_artifacts)
  message(FATAL_ERROR "a rejected scenario wrote fifty_year_artifacts/")
endif()
