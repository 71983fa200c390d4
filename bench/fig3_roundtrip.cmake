# fig3_accuracy's record -> replay -> verify-live round trip, run as a
# ctest: cmake -DBIN=<fig3_accuracy> -DTRACE_DIR=<dir> -P <this file>
# Run 1 records pmd.scale into TRACE_DIR; run 2, a separate process,
# replays the files and must match a fresh simulation bit for bit.
# --verify-live without --trace-dir and a bad --dir must fail naming
# the flag.

file(REMOVE_RECURSE ${TRACE_DIR})

execute_process(COMMAND ${BIN} --only=pmd.scale --trace-dir=${TRACE_DIR}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
                TIMEOUT 120)
if(NOT rc EQUAL 0 OR NOT out MATCHES "recorded traces to"
   OR NOT err MATCHES "digest 0x")
    message(FATAL_ERROR "record: exit ${rc}\n${out}\n${err}")
endif()

execute_process(COMMAND ${BIN} --only=pmd.scale --trace-dir=${TRACE_DIR}
                        --verify-live
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
                TIMEOUT 120)
if(NOT rc EQUAL 0 OR NOT out MATCHES "replaying traces from"
   OR NOT out MATCHES "bit-identical to the live path")
    message(FATAL_ERROR "verify-live: exit ${rc}\n${out}\n${err}")
endif()
file(REMOVE_RECURSE ${TRACE_DIR})

foreach(bad "--verify-live" "--dir=sideways")
    execute_process(COMMAND ${BIN} ${bad}
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out
                    ERROR_VARIABLE err TIMEOUT 30)
    string(REGEX MATCH "^--[a-z-]+" flag "${bad}")
    if(rc EQUAL 0 OR NOT err MATCHES "${flag}")
        message(FATAL_ERROR "${bad}: exit ${rc}, stderr: ${err}")
    endif()
endforeach()
