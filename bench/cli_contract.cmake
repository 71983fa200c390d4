# The CLI contract every flag-parsing harness keeps, run as a ctest:
#   cmake -DBIN=<harness> -P cli_contract.cmake
# --help must exit 0, and a typo'd flag must fail naming it as an
# unknown flag instead of running the harness with defaults.

execute_process(COMMAND ${BIN} --help
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} --help exited ${rc}, expected 0")
endif()

execute_process(COMMAND ${BIN} --no-such-flag
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
                TIMEOUT 30)
if(rc EQUAL 0 OR NOT err MATCHES "unknown flag '--no-such-flag'")
    message(FATAL_ERROR "${BIN} --no-such-flag: exit ${rc}, stderr: ${err}")
endif()
