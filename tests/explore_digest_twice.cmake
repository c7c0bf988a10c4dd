# Runs an explore window twice in digest mode and fails unless both runs
# print the same "<case> <digest>" lines and end clean. ctest invokes it as
#   cmake -DTORTURE=<torture_main> -DWINDOW=<spec> -P explore_digest_twice.cmake
foreach(run first second)
  execute_process(
    COMMAND ${TORTURE} --digest-only --explore-window ${WINDOW}
    OUTPUT_VARIABLE ${run} ERROR_QUIET RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "digest run exited with ${status}:\n${${run}}")
  endif()
endforeach()
if(NOT first STREQUAL second)
  message(FATAL_ERROR "two digest runs of ${WINDOW} differ")
endif()
if(NOT first MATCHES "\nexplored [0-9]+ cases: 0 violations\n$")
  message(FATAL_ERROR "no clean summary line:\n${first}")
endif()
