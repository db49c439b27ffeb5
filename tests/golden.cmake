# Golden end-to-end checks of the command-line tools, registered in
# tests/CMakeLists.txt under the ctest label "golden" and run as
#
#   cmake -DCASE=<case> -DCSRSIM=<csrsim> -DCSRTRACE=<csrtrace>
#         -DSOURCE_DIR=<repo> -DWORK_DIR=<scratch dir> -P golden.cmake
#
# Cases:
#   trace_csrt      `csrsim trace --policy dcl --scale test` prints the
#                   same study with no trace flag, with --save-trace F
#                   and with --load-trace F, for every benchmark.
#   replay_example  `csrtrace convert` of examples/traces/example.csv
#                   is byte-identical to example.csrt, and `csrsim
#                   replay` of it prints example_replay.txt at --jobs 1
#                   and --jobs 4.

cmake_minimum_required(VERSION 3.16)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Run a command and store its stdout in OUT_VAR; a nonzero exit fails
# the test with the command's stderr.
function(run out_var)
    execute_process(COMMAND ${ARGN}
        OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "exit ${rc}: ${ARGN}\n${err}")
    endif()
    set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

function(expect_same what want got)
    if(NOT "${want}" STREQUAL "${got}")
        message(FATAL_ERROR
            "${what} differs\n--- expected\n${want}\n--- got\n${got}")
    endif()
endfunction()

if(CASE STREQUAL "trace_csrt")
    foreach(bench barnes lu ocean raytrace)
        set(cmd "${CSRSIM}" trace --benchmark ${bench} --policy dcl
            --scale test)
        set(file "${WORK_DIR}/${bench}.csrt")
        run(plain ${cmd})
        run(saved ${cmd} --save-trace "${file}")
        run(loaded ${cmd} --load-trace "${file}")
        expect_same("${bench} --save-trace stdout" "${plain}" "${saved}")
        expect_same("${bench} --load-trace stdout" "${plain}" "${loaded}")
    endforeach()
elseif(CASE STREQUAL "replay_example")
    set(traces "${SOURCE_DIR}/examples/traces")
    set(csrt "${WORK_DIR}/example.csrt")
    run(ignored "${CSRTRACE}" convert --in "${traces}/example.csv"
        --out "${csrt}" --preset generic --col-ts 0 --col-key 1
        --col-op 2 --col-size 3 --col-cost 4 --ts-unit us
        --block-size 64)
    execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
        "${traces}/example.csrt" "${csrt}" RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "converted ${csrt} differs from the committed "
            "${traces}/example.csrt")
    endif()
    run(ignored "${CSRTRACE}" verify --file "${csrt}")

    set(cmd "${CSRSIM}" replay --file "${csrt}" --policy acl
        --cache-bytes 4096 --assoc 4)
    run(jobs1 ${cmd} --jobs 1)
    run(jobs4 ${cmd} --jobs 4)
    file(READ "${traces}/example_replay.txt" golden)
    expect_same("replay --jobs 1 summary" "${golden}" "${jobs1}")
    expect_same("replay --jobs 4 summary" "${golden}" "${jobs4}")
else()
    message(FATAL_ERROR "unknown golden case '${CASE}'")
endif()
