# Runs pcmap-sweep twice, with the fabric off and with one closed-loop
# tenant behind a zero-delay (bypass) link, and fails unless the second
# JSONL, with each row's "fabric.*" keys stripped, is byte-identical to
# the first.  A bypass link adds no timing, so the fabric run executes
# the legacy event sequence; its only difference is the fabric.* stat
# keys, which must form a pure tail of each row's metrics object.
#
#   cmake -DSWEEP=<path to pcmap-sweep> -DOUT=<scratch dir> \
#         -P fabric_legacy.cmake

set(keys workloads=MP1,MP4 modes=Baseline,RWoW-RDE insts=40000
    table=false)

file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})

function(run_sweep)
    execute_process(COMMAND ${SWEEP} ${keys} ${ARGN}
        RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "pcmap-sweep ${ARGN}: exit ${rc}")
    endif()
endfunction()

run_sweep(jsonl=${OUT}/fabric_legacy.jsonl)
run_sweep(tenants=1 jsonl=${OUT}/fabric_one.jsonl)

file(READ ${OUT}/fabric_one.jsonl one)
foreach(col fabric.jainIndex fabric.tenant0.read.p99
            fabric.tenant0.throughputMops)
    string(FIND "${one}" "\"${col}\"" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "fabric_one.jsonl has no ${col} column")
    endif()
endforeach()
# sed -E 's/,"fabric\.[^{}]*\}\}$/}}/': cut each row from its first
# "fabric." key to the row's closing braces.
string(REGEX REPLACE ",\"fabric\\.[^{}\n]*}}\n" "}}\n" stripped "${one}")
file(WRITE ${OUT}/fabric_one_stripped.jsonl "${stripped}")
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT}/fabric_legacy.jsonl
            ${OUT}/fabric_one_stripped.jsonl
    RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
    message(FATAL_ERROR
        "fabric_one_stripped.jsonl differs from fabric_legacy.jsonl")
endif()
