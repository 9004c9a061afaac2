# exma-worker must reject each malformed or out-of-range flag with exit
# status 2 and a usage message naming that flag, never serve on a
# descriptor it guessed. Run as
#   cmake -DEXMA_WORKER=<path to exma-worker> -P exma_worker_usage.cmake

# expect_usage_error(<flag the message must name> <worker args...>)
function(expect_usage_error flag)
    execute_process(
        COMMAND ${EXMA_WORKER} ${ARGN}
        INPUT_FILE /dev/null
        RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    # The usage line lists every flag, so the flag must appear in the
    # error line before it.
    if(NOT rc EQUAL 2 OR NOT err MATCHES "exma-worker: [^\n]*${flag}")
        message(SEND_ERROR "exma-worker ${ARGN}: exit '${rc}', "
                           "want 2 and a message naming ${flag}:\n${err}")
    endif()
endfunction()

expect_usage_error(--fd --fd abc --state empty)
expect_usage_error(--fd --fd 99999999999 --state empty)
expect_usage_error(--fd --fd -1 --state empty)
expect_usage_error(--fd --fd 3x --state empty)
expect_usage_error(--fd --state empty --fd)
expect_usage_error(--state --fd 0 --state bogus)
expect_usage_error(--stem --fd 0 --state scan)
expect_usage_error(--bogus --fd 0 --state empty --bogus 1)

# Control: a well-formed command line serves on the given descriptor
# (stdin here) and exits 0 at the clean EOF.
execute_process(
    COMMAND ${EXMA_WORKER} --fd 0 --state empty
    INPUT_FILE /dev/null
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(SEND_ERROR "exma-worker --fd 0 --state empty: exit '${rc}', "
                       "want 0 at EOF:\n${err}")
endif()
