# Machine-readable lint report gate (ctest -L gate -R isa_lint_json).
#
#   cmake -DLINT=<isa_lint> -P lint_json_gate.cmake
#
# Runs `isa_lint --all --ranges --stats --json`, which must exit 0,
# and parses every output line as JSON: each must be a paradox-lint/1
# record naming its program, and there must be at least one.
cmake_minimum_required(VERSION 3.19)

if(NOT LINT)
    message(FATAL_ERROR "usage: cmake -DLINT=<exe> -P lint_json_gate.cmake")
endif()

execute_process(COMMAND ${LINT} --all --ranges --stats --json
                OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "isa_lint --json exited ${rc}")
endif()

# Walk the output line by line with string(FIND): a line may hold a
# ';', which a CMake list would split.
set(records 0)
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
endwhile()
if(records EQUAL 0)
    message(FATAL_ERROR "isa_lint --json printed no records")
endif()
message(STATUS "${records} paradox-lint/1 records parse")
