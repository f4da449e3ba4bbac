# Runs a small pcmap-sweep behind a MAC-replaced DRAM tier at org=qlc,
# with two tenants and latency attribution on, and fails unless the
# JSONL it writes is byte-identical to the recorded file.  The tier's
# victim choice, its write-back traffic and each write-back's tenant
# (the last writing core) all reach the JSONL columns.
#
#   cmake -DSWEEP=<path to pcmap-sweep> -DEXPECTED=<recorded jsonl> \
#         -DOUT=<scratch dir> -P tier_mac_jsonl.cmake
#
# A change that moves simulated results on purpose re-records the file
# with the same command line:
#
#   pcmap-sweep workloads=MP1,canneal modes=Baseline,RWoW-RDE org=qlc \
#       tier=dram:32K:8:mac insts=100000 tenants=2 attrib=1 \
#       jsonl=tests/cli/tier_mac_qlc.jsonl

file(MAKE_DIRECTORY ${OUT})
set(jsonl ${OUT}/tier_mac_qlc.jsonl)
file(REMOVE ${jsonl})
execute_process(
    COMMAND ${SWEEP} workloads=MP1,canneal modes=Baseline,RWoW-RDE
            org=qlc tier=dram:32K:8:mac insts=100000 tenants=2 attrib=1
            jsonl=${jsonl}
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "pcmap-sweep: exit ${rc}")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${EXPECTED} ${jsonl}
    RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
    message(FATAL_ERROR "${jsonl} differs from ${EXPECTED}")
endif()
