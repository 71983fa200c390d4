# A harness's stdout, byte-compared with a committed expected file,
# run as a ctest:
#   cmake -DBIN=<binary> [-DARGS=<arg;arg...>] -DEXPECTED=<file>
#         -DACTUAL=<file> -P <this file>
# ARGS, a list, is passed to BIN. ACTUAL keeps the last output for
# inspection when the two differ.

execute_process(COMMAND ${BIN} ${ARGS}
                RESULT_VARIABLE rc OUTPUT_FILE ${ACTUAL}
                ERROR_VARIABLE err TIMEOUT 60)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN}: exit ${rc}\n${err}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${EXPECTED} ${ACTUAL}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
    message(FATAL_ERROR "stdout of ${BIN} (${ACTUAL}) differs from "
                        "${EXPECTED}")
endif()
