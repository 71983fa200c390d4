# fig2_epoch_walkthrough's CSV artifacts, run as a ctest:
#   cmake -DBIN=<fig2_epoch_walkthrough> -DPREFIX=<path prefix> -P <this file>
# --csv=PREFIX must write PREFIX_{epochs,events,threads}.csv, each
# with its header; the events file must end in the RunEnd event.

foreach(kind epochs events threads)
    file(REMOVE ${PREFIX}_${kind}.csv)
endforeach()

execute_process(COMMAND ${BIN} --csv=${PREFIX}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
                TIMEOUT 60)
if(NOT rc EQUAL 0 OR NOT out MATCHES "CSV artifacts written")
    message(FATAL_ERROR "--csv=${PREFIX}: exit ${rc}\n${out}\n${err}")
endif()

set(header_epochs "^epoch,start_ns,")
set(header_events "^tick_ns,kind,tid,futex$")
set(header_threads "^tid,service,")
foreach(kind epochs events threads)
    if(NOT EXISTS ${PREFIX}_${kind}.csv)
        message(FATAL_ERROR "${PREFIX}_${kind}.csv was not written")
    endif()
    file(STRINGS ${PREFIX}_${kind}.csv lines)
    list(LENGTH lines n)
    if(n LESS 2)
        message(FATAL_ERROR "${PREFIX}_${kind}.csv has ${n} line(s)")
    endif()
    list(GET lines 0 first)
    if(NOT first MATCHES "${header_${kind}}")
        message(FATAL_ERROR "${PREFIX}_${kind}.csv header: '${first}'")
    endif()
endforeach()

file(STRINGS ${PREFIX}_events.csv lines)
list(GET lines -1 last)
if(NOT last MATCHES "^[0-9.]+,RunEnd,")
    message(FATAL_ERROR "${PREFIX}_events.csv ends in '${last}', "
                        "expected the RunEnd event")
endif()
