# Execution-trace smoke gate (ctest -L gate -R trace_smoke).
#
#   cmake -DSIM=<paradox_sim> -DREPORT=<trace_report> -DOUT=<work dir>
#         -P trace_gate.cmake
#
# Takes a traced, fault-injected run (stream, rate 1e-4, escalation,
# seed 7) and checks both trace formats:
#
#  - Chrome JSON: the document parses, otherData.schema is
#    paradox-trace/1, the phases include M, X and C, the fill, check,
#    voltage and inject events are present, and every non-metadata
#    timestamp is in order;
#  - JSONL: the first record is the paradox-trace/1 header, the record
#    kinds are exactly header, track and event, and every event
#    carries ph, ts and track.
#
# trace_report must then summarise the JSONL, as text and as JSON that
# parses.
cmake_minimum_required(VERSION 3.19)

if(NOT SIM OR NOT REPORT OR NOT OUT)
    message(FATAL_ERROR "usage: cmake -DSIM=<exe> -DREPORT=<exe> "
                        "-DOUT=<dir> -P trace_gate.cmake")
endif()
file(MAKE_DIRECTORY ${OUT})
set(chrome ${OUT}/trace.json)
set(jsonl ${OUT}/trace.jsonl)
file(REMOVE ${chrome} ${jsonl})

execute_process(COMMAND ${SIM} --workload stream --rate 1e-4 --escalate
                        --seed 7 --trace ${chrome}
                OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "traced paradox_sim run exited ${rc}")
endif()

# ---- Chrome JSON -----------------------------------------------------
file(READ ${chrome} doc)
string(JSON schema ERROR_VARIABLE err GET "${doc}" otherData schema)
if(err)
    message(FATAL_ERROR "${chrome} does not parse: ${err}")
endif()
if(NOT schema STREQUAL "paradox-trace/1")
    message(FATAL_ERROR "Chrome trace schema '${schema}'")
endif()
string(JSON events LENGTH "${doc}" traceEvents)
set(doc "")
# The writer puts one event per line, and the whole document parsed
# above, so each event's fields can be read off its line.  Event
# lines carry no ';', so each line is one list element.
file(STRINGS ${chrome} lines REGEX "^{\"ph\":")
list(LENGTH lines n)
if(NOT n EQUAL events)
    message(FATAL_ERROR "${events} events but ${n} event lines")
endif()
set(phases "")
set(names "")
set(prev_ts -1)
string(REPEAT "[0-9]" 9 nine_digits)  # CMake regexes have no {9}
foreach(line IN LISTS lines)
    string(REGEX MATCH "^{\"ph\":\"([A-Za-z])\"" _ "${line}")
    set(ph ${CMAKE_MATCH_1})
    list(APPEND phases ${ph})
    if(line MATCHES "\"name\":\"([^\"]*)\"")
        list(APPEND names ${CMAKE_MATCH_1})
    endif()
    if(ph STREQUAL "M")
        continue()
    endif()
    # ts is microseconds with exactly 9 decimals (femtosecond
    # resolution): compare it as an integer count of femtoseconds.
    if(NOT line MATCHES "\"ts\":([0-9]+)\\.(${nine_digits}),")
        message(FATAL_ERROR "event without a 9-decimal ts: ${line}")
    endif()
    set(ts "${CMAKE_MATCH_1}${CMAKE_MATCH_2}")
    if(ts LESS prev_ts)
        message(FATAL_ERROR "events not time-sorted at: ${line}")
    endif()
    set(prev_ts ${ts})
endforeach()
list(REMOVE_DUPLICATES phases)
list(REMOVE_DUPLICATES names)
foreach(ph M X C)
    if(NOT ph IN_LIST phases)
        message(FATAL_ERROR "no '${ph}' events; phases: ${phases}")
    endif()
endforeach()
foreach(name fill check voltage inject)
    if(NOT name IN_LIST names)
        message(FATAL_ERROR "missing ${name} events")
    endif()
endforeach()

# ---- JSONL twin ------------------------------------------------------
file(STRINGS ${jsonl} lines)
list(GET lines 0 header)
string(JSON kind ERROR_VARIABLE err GET "${header}" record)
string(JSON schema ERROR_VARIABLE err GET "${header}" schema)
if(NOT kind STREQUAL "header" OR NOT schema STREQUAL "paradox-trace/1")
    message(FATAL_ERROR "bad JSONL header: ${header}")
endif()
set(kinds "")
set(records 0)
foreach(line IN LISTS lines)
    math(EXPR records "${records} + 1")
    string(JSON kind ERROR_VARIABLE err GET "${line}" record)
    if(err)
        message(FATAL_ERROR "JSONL record ${records} does not parse: "
                            "${err}: ${line}")
    endif()
    list(APPEND kinds ${kind})
    if(kind STREQUAL "event")
        foreach(key ph ts track)
            string(JSON _ ERROR_VARIABLE err GET "${line}" ${key})
            if(err)
                message(FATAL_ERROR "event without '${key}': ${line}")
            endif()
        endforeach()
    endif()
endforeach()
list(REMOVE_DUPLICATES kinds)
list(SORT kinds)
if(NOT kinds STREQUAL "event;header;track")
    message(FATAL_ERROR "JSONL record kinds: ${kinds}")
endif()

# ---- trace_report ----------------------------------------------------
execute_process(COMMAND ${REPORT} ${jsonl} OUTPUT_QUIET
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "trace_report ${jsonl} exited ${rc}")
endif()
execute_process(COMMAND ${REPORT} --json ${jsonl}
                OUTPUT_VARIABLE report RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "trace_report --json ${jsonl} exited ${rc}")
endif()
string(JSON _ ERROR_VARIABLE err TYPE "${report}")
if(err)
    message(FATAL_ERROR "trace_report --json output does not parse: ${err}")
endif()
message(STATUS "${events} Chrome events, ${records} JSONL records ok")
