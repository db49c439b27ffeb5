# Golden end-to-end checks of the command-line tools, registered in
# tests/CMakeLists.txt under the ctest label "golden" and run as
#
#   cmake -DCASE=<case> -DCSRSIM=<csrsim> -DCSRTRACE=<csrtrace>
#         -DCSRSERVE=<csrserve> -DSERVE_OPS=<ops>
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
#   sweep_jobs      `csrsim sweep` of a 24-cell test-scale grid prints
#                   the same table at --jobs 1 and --jobs 4.
#   serve_workers   Under shard affinity the `csrserve` summary is
#                   byte-identical for any worker count (DESIGN.md
#                   §3.4) and any stripe count (§3.6): for lru and acl,
#                   SERVE_OPS ops at seed 7, workers 1 vs 8 at stripes
#                   1 and 4, and stripes 1 vs 4 at one worker.

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
elseif(CASE STREQUAL "sweep_jobs")
    # The grid's ';' would split it as a CMake list if it went through
    # run()'s ARGN, so the sweep is run here, quoted.
    string(CONCAT grid "benchmarks=lu,barnes;policies=gd,dcl;"
        "mappings=random,first-touch;ratios=4,inf;hafs=0.1,0.3;scale=test")
    foreach(jobs 1 4)
        execute_process(COMMAND "${CSRSIM}" sweep --grid "${grid}"
            --jobs ${jobs}
            OUTPUT_VARIABLE jobs${jobs} ERROR_VARIABLE err
            RESULT_VARIABLE rc)
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR "exit ${rc}: sweep --jobs ${jobs}\n${err}")
        endif()
    endforeach()
    expect_same("sweep --jobs 4 table" "${jobs1}" "${jobs4}")
elseif(CASE STREQUAL "serve_workers")
    foreach(policy lru acl)
        foreach(stripes 1 4)
            foreach(workers 1 8)
                run(s${stripes}_w${workers} "${CSRSERVE}" --policy ${policy}
                    --workload zipf --ops ${SERVE_OPS} --keys 65536
                    --seed 7 --workers ${workers} --stripes ${stripes})
            endforeach()
            expect_same("${policy} --stripes ${stripes} --workers 8 summary"
                "${s${stripes}_w1}" "${s${stripes}_w8}")
        endforeach()
        expect_same("${policy} --stripes 4 summary" "${s1_w1}" "${s4_w1}")
    endforeach()
else()
    message(FATAL_ERROR "unknown golden case '${CASE}'")
endif()
