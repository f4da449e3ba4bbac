# Runs pcmap-sweep twice over the same three paper systems, spelled once
# as preset names (modes=) and once as compositions (policy=), and fails
# unless both runs succeed, each writes one JSONL row per system, and
# the two JSONL files are byte-identical.
#
#   cmake -DSWEEP=<path to pcmap-sweep> -DOUT=<scratch dir> \
#         -P sweep_spellings.cmake

set(common workloads=MP1 insts=20000)
set(spelling_modes modes=Baseline,RWoW-NR,RWoW-RDE)
set(spelling_policy policy=base,row+wow,row+wow+rde)

file(MAKE_DIRECTORY ${OUT})
foreach(spelling modes policy)
    set(jsonl ${OUT}/${spelling}.jsonl)
    file(REMOVE ${jsonl})
    execute_process(
        COMMAND ${SWEEP} ${common} ${spelling_${spelling}} jsonl=${jsonl}
        RESULT_VARIABLE rc
        OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "pcmap-sweep ${spelling_${spelling}}: exit ${rc}")
    endif()
    file(STRINGS ${jsonl} rows)
    list(LENGTH rows n)
    if(NOT n EQUAL 3)
        message(FATAL_ERROR "${jsonl}: ${n} rows, expected 3")
    endif()
endforeach()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${OUT}/modes.jsonl ${OUT}/policy.jsonl
    RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
    message(FATAL_ERROR "modes= and policy= spellings of the same "
                        "systems wrote different JSONL")
endif()
