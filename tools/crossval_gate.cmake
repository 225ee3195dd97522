# Static-model vs execution-trace cross-validation gate
# (ctest -L gate -R crossval).
#
#   cmake -DMODEL=cost|memdep -DLINT=<isa_lint> -DSIM=<paradox_sim>
#         -DREPORT=<trace_report> -DOUT=<work dir> -P crossval_gate.cmake
#
# Emits the static model with isa_lint and checks its records, takes
# fault-free ParaDox traces of stream, mcf, tonto and milc, and
# requires trace_report to find zero violations:
#
#  - cost (scale 1): the interval engine's instruction bounds contain
#    every traced run's committed-instruction count;
#  - memdep (scale 2): no segment logs more bytes than the static
#    per-run bound the superblock gate admitted it under, and a model
#    with a tampered decoded_hash is rejected as stale.
#
# Either way the --jobs 2 report must match the serial one byte for
# byte.
cmake_minimum_required(VERSION 3.19)

if(NOT MODEL OR NOT LINT OR NOT SIM OR NOT REPORT OR NOT OUT)
    message(FATAL_ERROR "usage: cmake -DMODEL=cost|memdep -DLINT=<exe> "
                        "-DSIM=<exe> -DREPORT=<exe> -DOUT=<dir> "
                        "-P crossval_gate.cmake")
endif()
if(MODEL STREQUAL "cost")
    set(scale 1)
    set(lint_args --ranges --cost)
    set(schema paradox-cost/1)
elseif(MODEL STREQUAL "memdep")
    set(scale 2)
    set(lint_args --memdep --scale 2)
    set(schema paradox-memdep/1)
else()
    message(FATAL_ERROR "MODEL must be cost or memdep, not '${MODEL}'")
endif()
file(MAKE_DIRECTORY ${OUT})
set(model ${OUT}/${MODEL}.jsonl)

# ---- Emit the model and check its records ---------------------------
execute_process(COMMAND ${LINT} --all ${lint_args} --json
                OUTPUT_FILE ${model} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "isa_lint --all ${lint_args} --json exited ${rc}")
endif()
# Model lines carry no ';', so each line is one list element.
file(STRINGS ${model} lines)
list(GET lines 0 header)
string(JSON got ERROR_VARIABLE err GET "${header}" schema)
if(NOT got STREQUAL schema)
    message(FATAL_ERROR "model schema '${got}', expected '${schema}'")
endif()
set(records 0)
set(bounded 0)
foreach(line IN LISTS lines)
    string(JSON record ERROR_VARIABLE err GET "${line}" record)
    if(NOT record STREQUAL MODEL)
        continue()
    endif()
    math(EXPR records "${records} + 1")
    if(MODEL STREQUAL "cost")
        string(JSON converged GET "${line}" converged)
        if(NOT converged EQUAL 1)
            message(FATAL_ERROR "cost model did not converge: ${line}")
        endif()
        string(JSON b GET "${line}" bounded)
        if(b)
            math(EXPR bounded "${bounded} + 1")
        endif()
    else()
        foreach(key program scale decoded_uops decoded_hash static_loads
                    static_stores runs)
            string(JSON v ERROR_VARIABLE err GET "${line}" ${key})
            if(err)
                message(FATAL_ERROR "memdep record lacks ${key}: ${line}")
            endif()
        endforeach()
        string(JSON run_bytes GET "${line}" max_run_log_bytes)
        string(JSON uop_bytes GET "${line}" max_uop_log_bytes)
        if(run_bytes LESS uop_bytes)
            message(FATAL_ERROR
                "per-run log bound below the per-op one: ${line}")
        endif()
    endif()
endforeach()
if(NOT records EQUAL 21)
    message(FATAL_ERROR "${records} ${MODEL} records, expected 21")
endif()
if(MODEL STREQUAL "cost" AND bounded LESS 3)
    message(FATAL_ERROR "only ${bounded} workloads have bounded cost")
endif()

# ---- Fault-free traced runs -----------------------------------------
set(traces)
foreach(w stream mcf tonto milc)
    execute_process(COMMAND ${SIM} --workload ${w} --scale ${scale}
                            --mode paradox --rate 0
                            --trace ${OUT}/trace-${w}.json -q
                    OUTPUT_VARIABLE log ERROR_VARIABLE log
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "traced run of ${w} exited ${rc}\n${log}")
    endif()
    list(APPEND traces ${OUT}/trace-${w}.jsonl)
endforeach()

# ---- Cross-validate: zero violations, serial and --jobs 2 ------------
foreach(jobs 1 2)
    execute_process(COMMAND ${REPORT} --${MODEL} ${model} --jobs ${jobs}
                            ${traces}
                    OUTPUT_FILE ${OUT}/report-j${jobs}.txt
                    ERROR_FILE ${OUT}/summary-j${jobs}.txt
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        file(READ ${OUT}/summary-j${jobs}.txt summary)
        message(FATAL_ERROR
            "trace_report --${MODEL} --jobs ${jobs} exited ${rc}: "
            "static bound violated or model stale\n${summary}")
    endif()
endforeach()
# Every trace must actually be checked, not skipped.
file(READ ${OUT}/summary-j1.txt summary)
if(NOT summary MATCHES "4 trace\\(s\\) checked, 0 violation")
    message(FATAL_ERROR "expected 4 checked traces:\n${summary}")
endif()
foreach(part report summary)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            ${OUT}/${part}-j1.txt ${OUT}/${part}-j2.txt
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "--jobs 2 ${part} differs from the serial one")
    endif()
endforeach()
if(MODEL STREQUAL "cost")
    message(STATUS "cost: ${bounded} bounded workloads, 4 traces within "
                   "the static bounds, --jobs 2 identical")
    return()
endif()

# ---- A stale model (tampered decoded_hash) is rejected ---------------
file(READ ${model} text)
string(REGEX REPLACE "\"decoded_hash\":[0-9]*" "\"decoded_hash\":1"
       text "${text}")
file(WRITE ${OUT}/memdep-stale.jsonl "${text}")
execute_process(COMMAND ${REPORT} --memdep ${OUT}/memdep-stale.jsonl
                        ${OUT}/trace-stream.jsonl
                OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR
        "trace_report accepted a stale memdep model (exit ${rc})")
endif()
message(STATUS "memdep: 4 traces within the static bounds, "
               "--jobs 2 identical, stale model rejected")
