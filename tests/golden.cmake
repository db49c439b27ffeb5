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
#   sweep_trace     A trace saved by `csrsim trace --scale test
#                   --save-trace F` runs the same study under
#                   `--load-trace F` and as the sweep cell
#                   `traces=F;policies=lru`: equal sampled refs and L2
#                   misses, for every benchmark.
#   sweep_resume    The same grid at --jobs 4, crippled by injected
#                   faults (--fault-rate 0.3 --fault-seed 7
#                   --retries 1) with a --checkpoint journal, exits 0
#                   or 10 and journals at least one failed cell; a
#                   --resume of that journal with injection off prints
#                   the clean run's table byte for byte (DESIGN.md
#                   "Robustness"), and a --validate run exits 0.
#   serve_workers   Under shard affinity the `csrserve` summary is
#                   byte-identical for any worker count (DESIGN.md
#                   §3.4) and any stripe count (§3.6): for lru and acl,
#                   SERVE_OPS ops at seed 7, workers 1 vs 8 at stripes
#                   1 and 4, and stripes 1 vs 4 at one worker.
#   serve_wire      Over RESP on loopback (DESIGN.md §3.7), `csrserve
#                   --connect` against a fresh `csrserve --listen`
#                   prints the in-process acl summary for 200k ops at
#                   seed 7 (3 connections, pipeline 64), and so does
#                   the server's own shutdown summary, at 1 and 4
#                   stripes.  The server's --metrics must show at most
#                   0.5 net.sends per GET/SET: a decode pass sends its
#                   replies in one send(2), where one send per reply
#                   reads exactly 1.0.
#   serve_replay    `csrserve --replay T` over RESP on loopback prints
#                   the in-process summary (client and server, acl,
#                   4 shards, seed 7) for two traces: a 200k-op Zipf
#                   recording (`csrtrace record`, checksum verified)
#                   and the LU sampled trace at --scale test, 71% of
#                   whose records are DELs.  The client takes no
#                   --shards (it reads the server's from INFO, and
#                   `--connect --shards 4` must exit 2), and its
#                   --expect-fresh counts DELs too.
#   serve_chaos     A loopback `csrserve --listen --validate` with
#                   deterministic fault injection live (--chaos-rate
#                   0.02: short writes, deferred accepts, backend
#                   errors, latency spikes) survives a 200k-op client
#                   run (DESIGN.md §3.8), twice for each of the chaos
#                   seeds 42 and 1337.  Each chaos decision is a pure
#                   function of the seed, so the two runs of a seed
#                   print byte-identical server and client summaries,
#                   and the two seeds' server summaries differ.  Once
#                   the client is gone the server's /proc/<pid>/fd
#                   table must be back at its pre-client size.

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

# Store TEXT minus its first N lines in OUT_VAR.
function(drop_lines out_var text n)
    foreach(i RANGE 1 ${n})
        string(FIND "${text}" "\n" nl)
        math(EXPR nl "${nl} + 1")
        string(SUBSTRING "${text}" ${nl} -1 text)
    endforeach()
    set(${out_var} "${text}" PARENT_SCOPE)
endfunction()

# The sweep cases' 24-cell test-scale grid.  Its ';' would split it
# as a CMake list if it went through run()'s ARGN, so sweep() passes
# it quoted.
string(CONCAT grid "benchmarks=lu,barnes;policies=gd,dcl;"
    "mappings=random,first-touch;ratios=4,inf;hafs=0.1,0.3;scale=test")

# Run `csrsim sweep --grid <grid>` with the flags in ARGN and store its
# stdout in OUT_VAR; an exit code not in the list OK fails the test.
function(sweep out_var ok)
    execute_process(COMMAND "${CSRSIM}" sweep --grid "${grid}" ${ARGN}
        OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
    if(NOT rc IN_LIST ok)
        message(FATAL_ERROR "exit ${rc}: sweep ${ARGN}\n${err}")
    endif()
    set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

function(expect_same what want got)
    if(NOT "${want}" STREQUAL "${got}")
        message(FATAL_ERROR
            "${what} differs\n--- expected\n${want}\n--- got\n${got}")
    endif()
endfunction()

# Serve RESP on loopback.  Start `csrserve --listen 127.0.0.1:0
# <SERVER args>` in the background (only a shell can keep it running
# while the client drives it), wait for its "listening HOST:PORT"
# line, run `csrserve --connect HOST:PORT <CLIENT args>`, then stop
# the server with SIGTERM, which prints its summary.  With CHECK_FDS
# the server's /proc/<pid>/fd table must also be back at its
# pre-client size once the client is gone.  A failure fails the test
# with both logs; otherwise the client's and the server's summaries
# minus their endpoint-naming first lines ("listening ..." and the
# server's title) go to `wire` and `server`.
function(loopback dir)
    cmake_parse_arguments(PARSE_ARGV 1 arg "CHECK_FDS" "" "SERVER;CLIENT")
    list(LENGTH arg_SERVER nserver)
    file(MAKE_DIRECTORY "${dir}")
    if(arg_CHECK_FDS)
        set(check_fds 1)
    else()
        set(check_fds 0)
    endif()
    execute_process(COMMAND sh -c [=[
        bin=$1 dir=$2 check_fds=$3 n=$4
        shift 4
        # "$@" holds the server's n arguments, then the client's; the
        # subshell keeps the first n and becomes the server.
        (
            i=0
            for a do
                shift
                [ $i -lt "$n" ] && set -- "$@" "$a"
                i=$((i + 1))
            done
            exec "$bin" --listen 127.0.0.1:0 "$@"
        ) > "$dir/server.txt" 2> "$dir/server.log" &
        srv=$!
        shift "$n"
        port= tries=0
        while [ -z "$port" ] && [ $tries -lt 100 ]; do
            sleep 0.1
            tries=$((tries + 1))
            port=$(sed -n 's/^listening .*:\([0-9]*\)$/\1/p' \
                "$dir/server.txt")
        done
        rc=1
        if [ -n "$port" ]; then
            fds_before=$(ls "/proc/$srv/fd" | wc -l)
            "$bin" --connect "127.0.0.1:$port" "$@" \
                > "$dir/wire.txt" 2> "$dir/wire.log"
            rc=$?
            if [ "$check_fds" = 1 ]; then
                # Let the server reap the closed connections (and any
                # still-parked deferred accepts) first.
                sleep 1
                fds_after=$(ls "/proc/$srv/fd" | wc -l)
                if [ "$fds_after" -ne "$fds_before" ]; then
                    echo "fd leak: $fds_before fds before the client," \
                        "$fds_after after" >> "$dir/wire.log"
                    ls -l "/proc/$srv/fd" >> "$dir/wire.log"
                    rc=1
                fi
            fi
        else
            echo "server never printed its port" > "$dir/wire.log"
        fi
        kill -TERM "$srv"
        wait "$srv" || rc=1
        exit $rc
        ]=] sh "${CSRSERVE}" "${dir}" ${check_fds} ${nserver}
            ${arg_SERVER} ${arg_CLIENT}
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        file(READ "${dir}/wire.log" client_log)
        file(READ "${dir}/server.log" server_log)
        message(FATAL_ERROR "loopback run in ${dir} failed (exit ${rc})\n"
            "--- client\n${client_log}\n--- server\n${server_log}")
    endif()
    file(READ "${dir}/wire.txt" wire)
    file(READ "${dir}/server.txt" server)
    drop_lines(wire "${wire}" 1)
    drop_lines(server "${server}" 2)
    set(wire "${wire}" PARENT_SCOPE)
    set(server "${server}" PARENT_SCOPE)
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
    sweep(jobs1 0 --jobs 1)
    sweep(jobs4 0 --jobs 4)
    expect_same("sweep --jobs 4 table" "${jobs1}" "${jobs4}")
elseif(CASE STREQUAL "sweep_trace")
    if(CMAKE_VERSION VERSION_LESS 3.19)
        message(FATAL_ERROR "sweep_trace reads JSON with string(JSON), "
            "which needs CMake 3.19")
    endif()
    foreach(bench barnes lu ocean raytrace)
        set(file "${WORK_DIR}/${bench}.csrt")
        set(cmd "${CSRSIM}" trace --benchmark ${bench} --policy lru
            --scale test)
        run(ignored ${cmd} --save-trace "${file}")
        run(ignored ${cmd} --load-trace "${file}"
            --metrics "${WORK_DIR}/${bench}_trace.json")
        set(grid "traces=${file};policies=lru")
        sweep(ignored 0 --jobs 1 --json "${WORK_DIR}/${bench}_sweep.json")
        file(READ "${WORK_DIR}/${bench}_trace.json" trace)
        file(READ "${WORK_DIR}/${bench}_sweep.json" cell)
        foreach(pair "sampled_refs;sampledRefs" "l2_misses;l2Misses")
            list(GET pair 0 counter)
            list(GET pair 1 field)
            string(JSON want GET "${trace}" counters trace.${counter})
            string(JSON got GET "${cell}" cells 0 ${field})
            expect_same("${bench} traces= cell ${field}" "${want}" "${got}")
        endforeach()
    endforeach()
elseif(CASE STREQUAL "sweep_resume")
    set(journal "${WORK_DIR}/ckpt.jsonl")
    sweep(clean 0 --jobs 4)
    # 0 (every cell survived its retry) and 10 (cells failed) are both
    # legitimate; anything else is a real failure.
    sweep(ignored "0;10" --jobs 4 --fault-rate 0.3 --fault-seed 7
        --retries 1 --checkpoint "${journal}")
    # Exit 0 alone would also pass with every probe dead.
    file(STRINGS "${journal}" failures REGEX "\"type\":\"failure\"")
    if(NOT failures)
        message(FATAL_ERROR "the fault-injected sweep journaled no failed "
            "cell -- no probe fired")
    endif()
    sweep(resumed 0 --jobs 4 --checkpoint "${journal}" --resume)
    expect_same("resumed sweep table" "${clean}" "${resumed}")
    sweep(ignored 0 --jobs 4 --validate)
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
elseif(CASE STREQUAL "serve_wire")
    if(CMAKE_VERSION VERSION_LESS 3.19)
        message(FATAL_ERROR "serve_wire reads --metrics JSON with "
            "string(JSON), which needs CMake 3.19")
    endif()
    run(inproc "${CSRSERVE}" --policy acl --workload zipf
        --ops 200000 --keys 65536 --seed 7 --workers 1)
    # The title row names the endpoint, not the policy, by design.
    drop_lines(want "${inproc}" 1)
    foreach(stripes 1 4)
        set(dir "${WORK_DIR}/s${stripes}")
        loopback("${dir}"
            SERVER --net-workers 2 --policy acl --seed 7
                --stripes ${stripes} --validate
                --metrics "${dir}/metrics.json"
            CLIENT --connections 3 --pipeline 64 --workload zipf
                --ops 200000 --keys 65536 --seed 7 --expect-fresh)
        expect_same("--stripes ${stripes} client summary" "${want}"
            "${wire}")
        expect_same("--stripes ${stripes} server summary" "${want}"
            "${server}")

        # The client sends each command on its own, so how many one
        # recv picks up, and thus the ratio, varies with scheduling;
        # batching read 0.05-0.37 on a 4-vCPU VM.
        file(READ "${dir}/metrics.json" metrics)
        string(JSON sends GET "${metrics}" counters net.sends)
        string(JSON gets GET "${metrics}" counters net.cmd.get)
        string(JSON sets GET "${metrics}" counters net.cmd.set)
        math(EXPR twice "2 * ${sends}")
        math(EXPR commands "${gets} + ${sets}")
        if(twice GREATER commands)
            message(FATAL_ERROR "--stripes ${stripes}: ${sends} sends "
                "for ${gets} GET + ${sets} SET is more than 0.5 per "
                "command")
        endif()
    endforeach()
elseif(CASE STREQUAL "serve_replay")
    set(zipf "${WORK_DIR}/zipf.csrt")
    run(ignored "${CSRTRACE}" record --out "${zipf}" --ops 200000
        --workload zipf --keys 65536 --write-frac 0.25 --seed 7)
    run(ignored "${CSRTRACE}" verify --file "${zipf}")
    run(ignored "${CSRTRACE}" info --file "${zipf}")
    set(lu "${WORK_DIR}/lu.csrt")
    run(ignored "${CSRSIM}" trace --benchmark lu --policy lru
        --scale test --save-trace "${lu}")
    foreach(name zipf lu)
        run(inproc "${CSRSERVE}" --replay "${${name}}" --policy acl
            --shards 4 --workers 1 --seed 7)
        # The title row names the trace path or the endpoint.
        drop_lines(want "${inproc}" 1)
        loopback("${WORK_DIR}/${name}"
            SERVER --net-workers 2 --policy acl --shards 4 --seed 7
                --validate
            CLIENT --replay "${${name}}" --connections 3 --pipeline 64
                --seed 7 --expect-fresh)
        expect_same("${name} client summary" "${want}" "${wire}")
        expect_same("${name} server summary" "${want}" "${server}")
    endforeach()
    execute_process(COMMAND "${CSRSERVE}" --connect 127.0.0.1:1 --shards 4
        RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR "csrserve --connect --shards 4 exited ${rc}, "
            "not 2 (ConfigError):\n${err}")
    endif()
elseif(CASE STREQUAL "serve_chaos")
    foreach(seed 42 1337)
        foreach(run a b)
            loopback("${WORK_DIR}/${seed}_${run}" CHECK_FDS
                SERVER --net-workers 2 --policy acl --seed 7 --stripes 4
                    --validate --chaos-rate 0.02 --chaos-seed ${seed}
                CLIENT --connections 3 --pipeline 64 --workload zipf
                    --ops 200000 --keys 65536 --seed 7 --allow-errors)
            # The client's title and the server's "listening" line
            # name the ephemeral port; the server's title names the
            # chaos seed, which the cross-seed check must not lean on.
            set(wire_${seed}_${run} "${wire}")
            set(server_${seed}_${run} "${server}")
        endforeach()
        expect_same("chaos seed ${seed} server summary"
            "${server_${seed}_a}" "${server_${seed}_b}")
        expect_same("chaos seed ${seed} client summary"
            "${wire_${seed}_a}" "${wire_${seed}_b}")
    endforeach()
    # Different seeds inject different faults, so their summaries must
    # differ too.
    if("${server_42_a}" STREQUAL "${server_1337_a}")
        message(FATAL_ERROR "chaos seeds 42 and 1337 produced identical "
            "server summaries -- injection is not keyed on the seed")
    endif()
else()
    message(FATAL_ERROR "unknown golden case '${CASE}'")
endif()
