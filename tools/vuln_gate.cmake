# Static vulnerability model vs fault injection (ctest -L gate -R
# vuln_crossval).
#
#   cmake -DLINT=<isa_lint> -DCAMPAIGN=<fault_campaign> -DOUT=<dir>
#         -P vuln_gate.cmake
#
# Emits the live-bit model with `isa_lint --all --vuln --json --scale 2`
# and runs `fault_campaign --smoke --correlated --vuln` on it, serially
# and at --jobs 2.  Every fault the campaign lands on a statically dead
# (provably masked) site must stay architecturally invisible: the
# report must say vuln, count zero vuln violations, and break down at
# least one chip, each with its four vuln keys and zero dead-site
# divergences.  The --jobs 2 report must match the serial one byte for
# byte.  A violation means a mask claimed deadness it could not prove
# or the model is stale.
cmake_minimum_required(VERSION 3.19)

if(NOT LINT OR NOT CAMPAIGN OR NOT OUT)
    message(FATAL_ERROR "usage: cmake -DLINT=<exe> -DCAMPAIGN=<exe> "
                        "-DOUT=<dir> -P vuln_gate.cmake")
endif()

file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})

execute_process(COMMAND ${LINT} --all --vuln --json --scale 2
                OUTPUT_FILE ${OUT}/vuln.jsonl
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "isa_lint --vuln exited ${rc}")
endif()

set(args --smoke --correlated --vuln ${OUT}/vuln.jsonl)
execute_process(COMMAND ${CAMPAIGN} ${args} --out ${OUT}/campaign.jsonl
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fault_campaign ${args} exited ${rc}")
endif()
execute_process(COMMAND ${CAMPAIGN} ${args} --jobs 2
                        --out ${OUT}/campaign-par.jsonl
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fault_campaign ${args} --jobs 2 exited ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${OUT}/campaign.jsonl ${OUT}/campaign-par.jsonl
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "--jobs 2 report differs from the serial one")
endif()

# Report lines carry no ';', so each line is one list element.
file(STRINGS ${OUT}/campaign.jsonl lines)
set(header_ok OFF)
set(summary_seen OFF)
set(chips 0)
set(dead 0)
set(masked 0)
foreach(line IN LISTS lines)
    string(JSON record GET "${line}" record)
    if(record STREQUAL "header")
        string(JSON header_ok GET "${line}" vuln)
    elseif(record STREQUAL "summary")
        set(summary_seen ON)
        string(JSON n GET "${line}" vuln_violations)
        if(NOT n EQUAL 0)
            message(FATAL_ERROR "vuln_violations = ${n}: ${line}")
        endif()
    elseif(record STREQUAL "chip_summary")
        math(EXPR chips "${chips} + 1")
        foreach(key masked_rollbacks vuln_dead_fired vuln_live_fired
                    vuln_dead_divergences)
            string(JSON n ERROR_VARIABLE missing GET "${line}" ${key})
            if(NOT missing STREQUAL "NOTFOUND")
                message(FATAL_ERROR "chip without ${key}: ${line}")
            endif()
            set(${key} ${n})
        endforeach()
        if(NOT vuln_dead_divergences EQUAL 0)
            message(FATAL_ERROR "chip with dead-site divergences: ${line}")
        endif()
        math(EXPR dead "${dead} + ${vuln_dead_fired}")
        math(EXPR masked "${masked} + ${masked_rollbacks}")
    endif()
endforeach()
if(NOT header_ok)
    message(FATAL_ERROR "report header does not say vuln")
endif()
if(NOT summary_seen)
    message(FATAL_ERROR "report has no summary record")
endif()
if(chips EQUAL 0)
    message(FATAL_ERROR "expected per-chip breakdowns, got none")
endif()
message(STATUS "${chips} chips, ${dead} statically-dead faults fired, "
               "${masked} provably-masked rollbacks, "
               "zero dead-site divergences")
