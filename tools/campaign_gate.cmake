# Differential fault-campaign gate (ctest -L gate -R campaign).
#
#   cmake -DCAMPAIGN=<fault_campaign> -DOUT=<report prefix>
#         [-DCORRELATED=ON] -P campaign_gate.cmake
#
# Runs `fault_campaign --smoke` serially and at --jobs 2.  The serial
# sweep must exit 0 (no silent corruption, no crash) and the parallel
# report must match it byte for byte.  With CORRELATED (the chip
# model) the report must also break down >= 2 chips, each with zero
# silent corruptions and zero crashes, and every AIMD run must have
# converged.
cmake_minimum_required(VERSION 3.19)

if(NOT CAMPAIGN OR NOT OUT)
    message(FATAL_ERROR "usage: cmake -DCAMPAIGN=<exe> -DOUT=<prefix> "
                        "[-DCORRELATED=ON] -P campaign_gate.cmake")
endif()

set(args --smoke)
if(CORRELATED)
    list(APPEND args --correlated)
endif()

execute_process(COMMAND ${CAMPAIGN} ${args} --out ${OUT}.jsonl
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "fault_campaign ${args} exited ${rc}: silent corruption or crash")
endif()
execute_process(COMMAND ${CAMPAIGN} ${args} --jobs 2
                        --out ${OUT}-par.jsonl
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fault_campaign ${args} --jobs 2 exited ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${OUT}.jsonl ${OUT}-par.jsonl
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "--jobs 2 report ${OUT}-par.jsonl differs from ${OUT}.jsonl")
endif()

if(NOT CORRELATED)
    return()
endif()

# Zero-SDC gate over the per-chip breakdown.  Report lines carry no
# ';', so each line is one list element.
file(STRINGS ${OUT}.jsonl lines)
set(header_ok OFF)
set(chips 0)
set(runs 0)
set(aimd 0)
foreach(line IN LISTS lines)
    string(JSON record GET "${line}" record)
    if(record STREQUAL "header")
        string(JSON header_ok GET "${line}" correlated)
    elseif(record STREQUAL "chip_summary")
        math(EXPR chips "${chips} + 1")
        foreach(field silent_corruption crash)
            string(JSON n GET "${line}" ${field})
            if(NOT n EQUAL 0)
                message(FATAL_ERROR "chip with ${field} = ${n}: ${line}")
            endif()
        endforeach()
    elseif(record STREQUAL "run")
        math(EXPR runs "${runs} + 1")
        string(JSON converged ERROR_VARIABLE missing
               GET "${line}" aimd_converged)
        if(missing STREQUAL "NOTFOUND")
            math(EXPR aimd "${aimd} + 1")
            if(NOT converged)
                message(FATAL_ERROR
                    "AIMD failed to converge on a weak chip: ${line}")
            endif()
        endif()
    endif()
endforeach()
if(NOT header_ok)
    message(FATAL_ERROR "report header does not say correlated")
endif()
if(chips LESS 2)
    message(FATAL_ERROR "expected per-chip breakdowns, got ${chips}")
endif()
if(aimd EQUAL 0)
    message(FATAL_ERROR "no AIMD run in the correlated sweep")
endif()
message(STATUS "${runs} runs, ${chips} chips, "
               "${aimd} AIMD runs converged, zero SDC")
