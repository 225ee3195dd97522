# Memory-dependence model vs execution-trace cross-validation gate
# (ctest -L gate -R crossval).
#
#   cmake -DLINT=<isa_lint> -DSIM=<paradox_sim> -DREPORT=<trace_report>
#         -DOUT=<work dir> -P crossval_gate.cmake
#
# Emits the memdep model with `isa_lint --memdep --scale 2` and checks
# its records, takes fault-free ParaDox traces of stream, mcf, tonto
# and milc at scale 2, and requires `trace_report --memdep` to find
# zero violations: no segment logs more bytes than the static per-run
# bound the superblock gate admitted it under, nor more than its
# committed instructions ("seg-insts") times the per-op bound.  The
# --jobs 2 report must match the serial one byte for byte, and a
# model with a tampered decoded_hash is rejected as stale.
cmake_minimum_required(VERSION 3.19)

if(NOT LINT OR NOT SIM OR NOT REPORT OR NOT OUT)
    message(FATAL_ERROR "usage: cmake -DLINT=<exe> -DSIM=<exe> "
                        "-DREPORT=<exe> -DOUT=<dir> "
                        "-P crossval_gate.cmake")
endif()
file(MAKE_DIRECTORY ${OUT})
set(model ${OUT}/memdep.jsonl)

# ---- Emit the model and check its records ---------------------------
execute_process(COMMAND ${LINT} --all --memdep --scale 2 --json
                OUTPUT_FILE ${model} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "isa_lint --all --memdep --scale 2 --json exited ${rc}")
endif()
# Model lines carry no ';', so each line is one list element.
file(STRINGS ${model} lines)
list(GET lines 0 header)
string(JSON got ERROR_VARIABLE err GET "${header}" schema)
if(NOT got STREQUAL "paradox-memdep/1")
    message(FATAL_ERROR "model schema '${got}', expected 'paradox-memdep/1'")
endif()
set(records 0)
foreach(line IN LISTS lines)
    string(JSON record ERROR_VARIABLE err GET "${line}" record)
    if(NOT record STREQUAL "memdep")
        continue()
    endif()
    math(EXPR records "${records} + 1")
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
endforeach()
if(NOT records EQUAL 21)
    message(FATAL_ERROR "${records} memdep records, expected 21")
endif()

# ---- Fault-free traced runs -----------------------------------------
set(traces)
foreach(w stream mcf tonto milc)
    execute_process(COMMAND ${SIM} --workload ${w} --scale 2
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
    execute_process(COMMAND ${REPORT} --memdep ${model} --jobs ${jobs}
                            ${traces}
                    OUTPUT_FILE ${OUT}/report-j${jobs}.txt
                    ERROR_FILE ${OUT}/summary-j${jobs}.txt
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        file(READ ${OUT}/summary-j${jobs}.txt summary)
        message(FATAL_ERROR
            "trace_report --memdep --jobs ${jobs} exited ${rc}: "
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
