# Runs PROG with the space-separated ARGS and passes only if it exits
# with status EXIT and its stderr matches the regex STDERR.
#
#   cmake -DPROG=<exe> -DARGS=<args> -DEXIT=<status> -DSTDERR=<regex>
#         -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${PROG} ${args}
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE err
                TIMEOUT 10)
if(NOT status STREQUAL EXIT)
    message(FATAL_ERROR "${PROG} ${ARGS}: exit status '${status}', "
                        "want ${EXIT}; stderr: ${err}")
endif()
if(NOT err MATCHES "${STDERR}")
    message(FATAL_ERROR "${PROG} ${ARGS}: stderr does not match "
                        "'${STDERR}': ${err}")
endif()
