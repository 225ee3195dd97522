# Simulator throughput floor (ctest -L gate -R perfbench_floor).
#
#   cmake -DPERFBENCH=<paradox_perfbench> [-DREF=<BENCH_perfbench.json>]
#         -P perfbench_gate.cmake
#
# Runs `paradox_perfbench --workload fault_free --seed 1 --seconds 2
# --trace 0`.  It must exit 0 (perfbench's own check: every job correct
# and every repetition reproducing its digest), report "failed": 0 on
# its last stdout line, and read a wall_s of at most 5x the fault_free
# wall_s change_median of the highest-"pr" record in REF.
# The floor is loose on purpose: it catches a throughput collapse on a
# slow or shared host, not noise.  Without REF the wall_s bound is not
# checked.
cmake_minimum_required(VERSION 3.19)

if(NOT PERFBENCH)
    message(FATAL_ERROR "usage: cmake -DPERFBENCH=<exe> [-DREF=<json>] "
                        "-P perfbench_gate.cmake")
endif()

# Seconds as a decimal string ("0.4260", "2") -> integer microseconds
# (truncated), since math(EXPR) is integer-only.
function(to_us seconds out)
    if(NOT seconds MATCHES "^([0-9]+)(\\.([0-9]*))?$")
        message(FATAL_ERROR "not a plain decimal: '${seconds}'")
    endif()
    set(whole ${CMAKE_MATCH_1})
    string(SUBSTRING "${CMAKE_MATCH_3}000000" 0 6 frac)
    # The leading 1 keeps a zero-padded fraction decimal.
    math(EXPR us "${whole} * 1000000 + 1${frac} - 1000000")
    set(${out} ${us} PARENT_SCOPE)
endfunction()

execute_process(COMMAND ${PERFBENCH} --workload fault_free --seed 1
                        --seconds 2 --trace 0
                OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "paradox_perfbench exited ${rc}:\n${out}")
endif()
string(STRIP "${out}" out)
string(FIND "${out}" "\n" eol REVERSE)
math(EXPR eol "${eol} + 1")
string(SUBSTRING "${out}" ${eol} -1 result)
string(JSON failed GET "${result}" failed)
if(NOT failed EQUAL 0)
    message(FATAL_ERROR "perfbench: ${failed} failed checks:\n${out}")
endif()
string(JSON wall GET "${result}" metrics wall_s value)
if(NOT REF)
    message(STATUS "fault_free wall_s ${wall} s (not bounded)")
    return()
endif()

# The reference: fault_free of the newest (highest "pr") record.
file(READ ${REF} ref)
string(JSON n LENGTH "${ref}" records)
math(EXPR last "${n} - 1")
set(ref_pr -1)
foreach(i RANGE ${last})
    string(JSON key MEMBER "${ref}" records ${i})
    string(JSON pr GET "${ref}" records ${key} pr)
    if(pr GREATER ref_pr)
        set(ref_pr ${pr})
        set(ref_key ${key})
    endif()
endforeach()
string(JSON ref_median GET "${ref}" records ${ref_key} workloads fault_free
       wall_s change_median)
to_us(${ref_median} ref_us)
math(EXPR limit_us "${ref_us} * 5")

to_us(${wall} wall_us)
if(wall_us GREATER limit_us)
    message(FATAL_ERROR "fault_free wall_s ${wall} s is above 5x the "
                        "median ${ref_median} s of record ${ref_key}")
endif()
message(STATUS "fault_free wall_s ${wall} s (limit ${limit_us} us, "
               "5x the median ${ref_median} s of record ${ref_key})")
