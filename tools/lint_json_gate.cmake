# Machine-readable lint report gate (ctest -L gate -R isa_lint_json).
#
#   cmake -DLINT=<isa_lint> -P lint_json_gate.cmake
#
# Runs `isa_lint --all --stats --json`, which must exit 0, and parses
# every output line as JSON.  Each must be a paradox-lint/1 record
# whose `passes` array names the linter's whole pipeline in order, and
# the records must name every `isa_lint --list` workload exactly once.
# Usage errors must exit 2: an unknown workload name, and --chip-seed
# without --vuln.
cmake_minimum_required(VERSION 3.19)

if(NOT LINT)
    message(FATAL_ERROR "usage: cmake -DLINT=<exe> -P lint_json_gate.cmake")
endif()

set(pipeline cfg reach dataflow decoded ranges memdep termination vuln)

execute_process(COMMAND ${LINT} --list
                OUTPUT_VARIABLE listed RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "isa_lint --list exited ${rc}")
endif()
string(STRIP "${listed}" listed)
string(REPLACE "\n" ";" listed "${listed}")
list(LENGTH listed nlisted)
if(nlisted EQUAL 0)
    message(FATAL_ERROR "isa_lint --list printed no workloads")
endif()

execute_process(COMMAND ${LINT} --all --stats --json
                OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "isa_lint --json exited ${rc}")
endif()

# Walk the output line by line with string(FIND): a line may hold a
# ';', which a CMake list would split.
set(records 0)
set(seen "")
while(NOT out STREQUAL "")
    string(FIND "${out}" "\n" eol)
    if(eol EQUAL -1)
        set(line "${out}")
        set(out "")
    else()
        string(SUBSTRING "${out}" 0 ${eol} line)
        math(EXPR next "${eol} + 1")
        string(SUBSTRING "${out}" ${next} -1 out)
    endif()
    if(line STREQUAL "")
        continue()
    endif()
    math(EXPR records "${records} + 1")
    string(JSON schema ERROR_VARIABLE err GET "${line}" schema)
    if(err)
        message(FATAL_ERROR "line ${records} is not JSON: ${err}")
    endif()
    string(JSON program ERROR_VARIABLE err GET "${line}" program)
    if(NOT schema STREQUAL "paradox-lint/1" OR err)
        message(FATAL_ERROR "line ${records}: schema '${schema}', "
                            "program: ${err}")
    endif()
    if(NOT program IN_LIST listed)
        message(FATAL_ERROR "line ${records}: '${program}' is not an "
                            "isa_lint --list workload")
    endif()
    if(program IN_LIST seen)
        message(FATAL_ERROR "line ${records}: second record for "
                            "'${program}'")
    endif()
    list(APPEND seen "${program}")

    set(passes "")
    string(JSON npasses ERROR_VARIABLE err LENGTH "${line}" passes)
    if(err)
        message(FATAL_ERROR "${program}: no passes array: ${err}")
    endif()
    if(npasses GREATER 0)
        math(EXPR last "${npasses} - 1")
        foreach(i RANGE ${last})
            string(JSON name GET "${line}" passes ${i} name)
            list(APPEND passes "${name}")
        endforeach()
    endif()
    if(NOT passes STREQUAL pipeline)
        message(FATAL_ERROR "${program}: passes '${passes}', expected "
                            "'${pipeline}'")
    endif()
endwhile()
list(LENGTH seen nseen)
if(NOT nseen EQUAL nlisted)
    message(FATAL_ERROR "${nseen} records for ${nlisted} listed "
                        "workloads")
endif()

# Usage errors exit 2, never 1 (which means "lint found an error").
list(GET listed 0 known)
foreach(args "no-such-workload" "${known};--chip-seed;101")
    execute_process(COMMAND ${LINT} ${args}
                    OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE rc)
    if(NOT rc EQUAL 2)
        string(REPLACE ";" " " shown "${args}")
        message(FATAL_ERROR "isa_lint ${shown} exited ${rc}, "
                            "expected 2 (usage error)")
    endif()
endforeach()
message(STATUS "${records} paradox-lint/1 records parse, one per "
               "workload, each with the full pass pipeline")
