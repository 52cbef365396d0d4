# ctest driver for paper_figures (cmake -P, see bench/CMakeLists.txt).
#
# MODE=golden runs the tiny-scale figures and checks that
#  - the output matches the committed golden file,
#  - the output is byte-identical at --jobs 1 and --jobs 3,
#  - "fig4 fig5" prints exactly "fig4" followed by "fig5".
# On a mismatch the actual output is left in ACTUAL; copy it over the
# golden only when a figure change is intended.
#
# MODE=knobs checks that malformed scale knobs exit 2 with
# "paper_figures: fatal: ..." before any trace is generated.

foreach(var MRP_BENCH_INSTS MRP_BENCH_MC_INSTS MRP_BENCH_MIXES
            MRP_BENCH_SETS MRP_BENCH_CLIMB MRP_BENCH_JOBS)
    unset(ENV{${var}})
endforeach()

function(figures out)
    execute_process(COMMAND ${BIN} ${ARGN}
                    OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "paper_figures ${ARGN} exited ${rc}:\n${stderr}")
    endif()
    set(${out} "${stdout}" PARENT_SCOPE)
endfunction()

if(MODE STREQUAL "golden")
    set(ENV{MRP_BENCH_INSTS} 50000)
    set(ENV{MRP_BENCH_MIXES} 1)
    set(figs fig4 fig5 fig7 fig8 table3 overhead)

    figures(serial --jobs 1 ${figs})
    file(READ ${GOLDEN} golden)
    if(NOT serial STREQUAL golden)
        file(WRITE ${ACTUAL} "${serial}")
        message(FATAL_ERROR "output differs from ${GOLDEN}; "
                            "actual output: ${ACTUAL}")
    endif()
    figures(parallel --jobs 3 ${figs})
    if(NOT parallel STREQUAL serial)
        message(FATAL_ERROR "--jobs 3 output differs from --jobs 1")
    endif()
    figures(both --jobs 3 fig4 fig5)
    figures(fig4 --jobs 3 fig4)
    figures(fig5 --jobs 3 fig5)
    if(NOT both STREQUAL "${fig4}${fig5}")
        message(FATAL_ERROR "fig4 fig5 differs from fig4 then fig5")
    endif()
elseif(MODE STREQUAL "knobs")
    foreach(value 0 abc -1)
        set(ENV{MRP_BENCH_MIXES} ${value})
        execute_process(COMMAND ${BIN} fig4 OUTPUT_VARIABLE stdout
                        ERROR_VARIABLE stderr RESULT_VARIABLE rc)
        if(NOT rc EQUAL 2 OR NOT stdout STREQUAL "" OR NOT stderr MATCHES
           "^paper_figures: fatal: MRP_BENCH_MIXES must be a whole number")
            message(FATAL_ERROR "MRP_BENCH_MIXES=${value}: exit ${rc}, "
                                "stderr: ${stderr}")
        endif()
    endforeach()
else()
    message(FATAL_ERROR "unknown MODE '${MODE}'")
endif()
