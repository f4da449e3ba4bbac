# Runs the pcmap simulator with per-channel stats on the write paths
# that no sweep, golden or benchmark digest turns on, and fails unless
# the concatenated stdout is byte-identical to the recorded file:
#
#   - the Section IV-B4 multi-step RoW write (multiword=1 under RoW-NR,
#     whose pass-through coalescer is the only one that splits
#     multi-word writes) at org=slc and at org=tlc, where each step
#     runs a full round train;
#   - RWoW-RD at org=slc and org=tlc (two-step writes, WoW groups,
#     round chains and round-boundary pauses);
#   - the write-cancellation comparator at org=qlc (round-boundary
#     cancellation of coarse writes);
#   - the PreSET comparator at org=tlc.
#
#   cmake -DSIM=<path to pcmap> -DEXPECTED=<recorded txt> \
#         -DOUT=<scratch dir> -P write_paths.cmake
#
# A change that moves simulated results on purpose re-records the file
# from the repository root:
#
#   for a in "mode=RoW-NR multiword=1 org=slc" \
#            "mode=RoW-NR multiword=1 org=tlc" \
#            "mode=RWoW-RD org=slc" \
#            "mode=RWoW-RD org=tlc" \
#            "mode=Baseline cancel=1 org=qlc" \
#            "mode=Baseline preset=1 org=tlc"; do
#       pcmap $a insts=50000 stats=1
#   done > tests/cli/write_paths.txt

set(runs
    "mode=RoW-NR multiword=1 org=slc"
    "mode=RoW-NR multiword=1 org=tlc"
    "mode=RWoW-RD org=slc"
    "mode=RWoW-RD org=tlc"
    "mode=Baseline cancel=1 org=qlc"
    "mode=Baseline preset=1 org=tlc")

file(MAKE_DIRECTORY ${OUT})
set(actual ${OUT}/write_paths.txt)
file(WRITE ${actual} "")
foreach(run IN LISTS runs)
    separate_arguments(run_args UNIX_COMMAND "${run}")
    execute_process(
        COMMAND ${SIM} ${run_args} insts=50000 stats=1
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "pcmap ${run}: exit ${rc}")
    endif()
    file(APPEND ${actual} "${out}")
endforeach()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${EXPECTED} ${actual}
    RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
    message(FATAL_ERROR "${actual} differs from ${EXPECTED}")
endif()
