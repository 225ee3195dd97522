# Decoded-engine throughput floor (ctest -L gate -R bench_decoded_floor).
#
#   cmake -DBENCH=<bench_baseline> -DREF=<BENCH_decoded.json> -DOUT=<dir>
#         -P bench_gate.cmake
#
# Runs `bench_baseline --engine decoded --reps 5` and
# `bench_baseline --engine reference --reps 1`.  Every workload must
# finish correct on both engines, both engines must report identical
# `executed` counts, and the decoded throughput of each workload in REF
# must be at least 1/5 of the checked-in figure.  The floor is loose on
# purpose: it catches a throughput collapse on a slow or shared host,
# not noise.
cmake_minimum_required(VERSION 3.19)

if(NOT BENCH OR NOT REF OR NOT OUT)
    message(FATAL_ERROR "usage: cmake -DBENCH=<exe> -DREF=<json> "
                        "-DOUT=<dir> -P bench_gate.cmake")
endif()

file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})

foreach(engine decoded reference)
    if(engine STREQUAL "decoded")
        set(reps 5)
    else()
        set(reps 1)
    endif()
    execute_process(COMMAND ${BENCH} --engine ${engine} --reps ${reps}
                            --out ${OUT}/${engine}.json
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "bench_baseline --engine ${engine} exited ${rc}")
    endif()
    file(READ ${OUT}/${engine}.json ${engine})
    string(JSON schema GET "${${engine}}" schema)
    string(JSON kind GET "${${engine}}" engine)
    if(NOT schema STREQUAL "paradox-bench/1" OR NOT kind STREQUAL engine)
        message(FATAL_ERROR "${engine}.json: schema ${schema}, "
                            "engine ${kind}")
    endif()
endforeach()
file(READ ${REF} ref)

# Workload name -> index, for the reference engine and the baseline.
foreach(doc reference ref)
    string(JSON n LENGTH "${${doc}}" workloads)
    math(EXPR last "${n} - 1")
    foreach(i RANGE ${last})
        string(JSON name GET "${${doc}}" workloads ${i} name)
        set(${doc}_${name} ${i})
    endforeach()
endforeach()

string(JSON n LENGTH "${decoded}" workloads)
if(n EQUAL 0)
    message(FATAL_ERROR "decoded.json lists no workloads")
endif()
math(EXPR last "${n} - 1")
foreach(i RANGE ${last})
    string(JSON name GET "${decoded}" workloads ${i} name)
    string(JSON ok GET "${decoded}" workloads ${i} correct)
    string(JSON executed GET "${decoded}" workloads ${i} executed)
    string(JSON ips GET "${decoded}" workloads ${i} inst_per_sec)
    if(NOT ok)
        message(FATAL_ERROR "${name}: decoded engine result not correct")
    endif()
    if(NOT DEFINED reference_${name})
        message(FATAL_ERROR "${name}: missing from the reference run")
    endif()
    set(j ${reference_${name}})
    string(JSON ref_ok GET "${reference}" workloads ${j} correct)
    string(JSON ref_executed GET "${reference}" workloads ${j} executed)
    if(NOT ref_ok)
        message(FATAL_ERROR "${name}: reference engine result not correct")
    endif()
    if(NOT executed EQUAL ref_executed)
        message(FATAL_ERROR "${name}: decoded executed ${executed}, "
                            "reference ${ref_executed}")
    endif()
    if(DEFINED ref_${name})
        string(JSON base GET "${ref}" workloads ${ref_${name}}
                              inst_per_sec)
        # ips >= base / 5, in integers.
        math(EXPR scaled "${ips} * 5")
        if(scaled LESS base)
            message(FATAL_ERROR "${name}: ${ips} inst/s is below 1/5 of "
                                "the decoded baseline ${base}")
        endif()
        message(STATUS "${name}: ${ips} inst/s (baseline ${base}), "
                       "executed ${executed} on both engines")
    else()
        message(STATUS "${name}: ${ips} inst/s (no baseline), "
                       "executed ${executed} on both engines")
    endif()
endforeach()
