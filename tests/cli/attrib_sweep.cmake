# Runs a small full-stack pcmap-sweep (two tenants over a queued link,
# a 256K DRAM tier, phase ledgers on) and checks one of two things,
# chosen by CHECK:
#
#   strip      the attrib=1 JSONL carries the attribution columns, and
#              with every "attrib.*" column stripped it is byte-identical
#              to the attrib=0 JSONL: ledgers never change a result;
#   artifacts  each per-point PREFIX.point<I>.attrib.jsonl passes
#              `pcmap-trace check`, `pcmap-trace attrib` reads it, and it
#              is byte-identical to the recorded copy.  These files carry
#              the tail-exemplar rows, which no JSONL column holds.
#
#   cmake -DSWEEP=<path to pcmap-sweep> -DCHECK=strip \
#         -DOUT=<scratch dir> -P attrib_sweep.cmake
#   cmake -DSWEEP=<path to pcmap-sweep> -DTRACE=<path to pcmap-trace> \
#         -DCHECK=artifacts -DEXPECTED_DIR=<recorded dir> \
#         -DOUT=<scratch dir> -P attrib_sweep.cmake
#
# A change that moves attribution results on purpose re-records the
# per-point files from the repository root:
#
#   pcmap-sweep workloads=MP1,streamcluster modes=Baseline,RWoW-RDE \
#       insts=40000 table=false tenants=2 rate=8 qos=mixed linkGbps=16 \
#       linkNs=20 tier=dram:256K:8:lru attrib=1 attribK=8 \
#       obsOut=tests/cli/attrib_full_stack

set(keys workloads=MP1,streamcluster modes=Baseline,RWoW-RDE
    insts=40000 table=false tenants=2 rate=8 qos=mixed linkGbps=16
    linkNs=20 tier=dram:256K:8:lru)
set(points 0 1 2 3)

file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})

function(run_sweep)
    execute_process(COMMAND ${SWEEP} ${keys} ${ARGN}
        RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "pcmap-sweep ${ARGN}: exit ${rc}")
    endif()
endfunction()

function(require_same expected actual)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files ${expected} ${actual}
        RESULT_VARIABLE differ)
    if(NOT differ EQUAL 0)
        message(FATAL_ERROR "${actual} differs from ${expected}")
    endif()
endfunction()

run_sweep(attrib=1 attribK=8 obsOut=${OUT}/attrib_full_stack
          jsonl=${OUT}/attrib_on.jsonl)

if(CHECK STREQUAL "strip")
    run_sweep(jsonl=${OUT}/attrib_off.jsonl)
    file(READ ${OUT}/attrib_on.jsonl on)
    foreach(col attrib.t0.read.total.p99 attrib.t0.read.linkWait.p99
                attrib.t1.read.arrayAccessSumNs
                attrib.t0.writeback.wbBufferStall.p99)
        string(FIND "${on}" "\"${col}\"" at)
        if(at EQUAL -1)
            message(FATAL_ERROR "attrib_on.jsonl has no ${col} column")
        endif()
    endforeach()
    # The attribution columns close each row's metrics object, so one
    # row strips to its attrib=0 twin by cutting from the first
    # "attrib." key to the row's closing braces.
    string(REGEX REPLACE ",\"attrib\\.[^{}\n]*}}\n" "}}\n" stripped
           "${on}")
    file(WRITE ${OUT}/attrib_on_stripped.jsonl "${stripped}")
    require_same(${OUT}/attrib_off.jsonl ${OUT}/attrib_on_stripped.jsonl)
elseif(CHECK STREQUAL "artifacts")
    set(files)
    foreach(i ${points})
        list(APPEND files ${OUT}/attrib_full_stack.point${i}.attrib.jsonl)
    endforeach()
    execute_process(COMMAND ${TRACE} check ${files}
        RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "pcmap-trace check: exit ${rc}")
    endif()
    list(GET files 3 last)
    execute_process(COMMAND ${TRACE} attrib ${last} top=3
        RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "pcmap-trace attrib: exit ${rc}")
    endif()
    foreach(i ${points})
        require_same(
            ${EXPECTED_DIR}/attrib_full_stack.point${i}.attrib.jsonl
            ${OUT}/attrib_full_stack.point${i}.attrib.jsonl)
    endforeach()
else()
    message(FATAL_ERROR "CHECK must be strip or artifacts, not '${CHECK}'")
endif()
