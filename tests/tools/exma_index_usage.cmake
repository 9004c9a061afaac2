# exma-index must reject each malformed or out-of-range flag with exit
# status 2 and a usage message naming that flag, never abort. Run as
#   cmake -DEXMA_INDEX=<path to exma-index> -P exma_index_usage.cmake

# expect_usage_error(<flag the message must name> <build args...>)
function(expect_usage_error flag)
    execute_process(
        COMMAND ${EXMA_INDEX} build --out exma_index_usage_unused ${ARGN}
        RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL 2 OR NOT err MATCHES "${flag}")
        message(SEND_ERROR "exma-index build ${ARGN}: exit '${rc}', "
                           "want 2 and a message naming ${flag}:\n${err}")
    endif()
endfunction()

expect_usage_error(--shards --layout routed --shards 0)
expect_usage_error(--max-query-len --max-query-len 0)
expect_usage_error(--shards --shards abc)
expect_usage_error(--prefix-len --layout routed --shards 2 --prefix-len 11)
expect_usage_error(--layout --layout sharded --shards 2)
