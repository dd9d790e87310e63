# Run one command in a fresh, empty working directory and require a
# usage error: exit code 2 (a crash or a clean run both fail), and,
# when ABSENT is set, no file of that name left behind.
#
#   cmake -DWORKDIR=<dir> [-DABSENT=<file>]
#         -P expect_usage_exit.cmake <command> [args...]

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

# Everything after `-P <this script>` is the command line.
set(cmd "")
set(seen_p FALSE)
set(seen_script FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 1 ${last})
    set(a "${CMAKE_ARGV${i}}")
    if(seen_script)
        list(APPEND cmd "${a}")
    elseif(seen_p)
        set(seen_script TRUE)
    elseif(a STREQUAL "-P")
        set(seen_p TRUE)
    endif()
endforeach()

execute_process(COMMAND ${cmd}
                WORKING_DIRECTORY "${WORKDIR}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 20)
if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "expected exit 2, got '${rc}' from: ${cmd}\n"
                        "stdout:\n${out}\nstderr:\n${err}")
endif()
if(ABSENT AND EXISTS "${WORKDIR}/${ABSENT}")
    message(FATAL_ERROR "${cmd} wrote ${ABSENT} despite the usage error")
endif()
