# Simulator throughput floor (ctest -L gate -R bench_decoded_floor).
#
#   cmake -DBENCH=<bench_baseline> -DREF=<BENCH_decoded.json> -DOUT=<dir>
#         -P bench_gate.cmake
#
# Runs `bench_baseline --reps 5`.  Every workload must finish correct,
# and the throughput of each workload in REF must be at least 1/5 of
# the checked-in figure.  The floor is loose on purpose: it catches a
# throughput collapse on a slow or shared host, not noise.
cmake_minimum_required(VERSION 3.19)

if(NOT BENCH OR NOT REF OR NOT OUT)
    message(FATAL_ERROR "usage: cmake -DBENCH=<exe> -DREF=<json> "
                        "-DOUT=<dir> -P bench_gate.cmake")
endif()

file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})

execute_process(COMMAND ${BENCH} --reps 5 --out ${OUT}/decoded.json
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_baseline exited ${rc}")
endif()
file(READ ${OUT}/decoded.json decoded)
string(JSON schema GET "${decoded}" schema)
if(NOT schema STREQUAL "paradox-bench/1")
    message(FATAL_ERROR "decoded.json: schema ${schema}")
endif()
file(READ ${REF} ref)

# Workload name -> index in the baseline.
string(JSON n LENGTH "${ref}" workloads)
math(EXPR last "${n} - 1")
foreach(i RANGE ${last})
    string(JSON name GET "${ref}" workloads ${i} name)
    set(ref_${name} ${i})
endforeach()

string(JSON n LENGTH "${decoded}" workloads)
if(n EQUAL 0)
    message(FATAL_ERROR "decoded.json lists no workloads")
endif()
math(EXPR last "${n} - 1")
foreach(i RANGE ${last})
    string(JSON name GET "${decoded}" workloads ${i} name)
    string(JSON ok GET "${decoded}" workloads ${i} correct)
    string(JSON ips GET "${decoded}" workloads ${i} inst_per_sec)
    if(NOT ok)
        message(FATAL_ERROR "${name}: result not correct")
    endif()
    if(DEFINED ref_${name})
        string(JSON base GET "${ref}" workloads ${ref_${name}}
                              inst_per_sec)
        # ips >= base / 5, in integers.
        math(EXPR scaled "${ips} * 5")
        if(scaled LESS base)
            message(FATAL_ERROR "${name}: ${ips} inst/s is below 1/5 of "
                                "the baseline ${base}")
        endif()
        message(STATUS "${name}: ${ips} inst/s (baseline ${base})")
    else()
        message(STATUS "${name}: ${ips} inst/s (no baseline)")
    endif()
endforeach()
