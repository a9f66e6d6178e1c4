# The golden record: the files in tests/golden/ hold every simulated
# result the tree produces, the vic_bench sweep and the four
# verify_policy reports. The <entry>_args below are the one place the
# producers' flags live: ci.sh archives the ctest entries' outputs
# (build/tests/golden_<entry>.json) instead of rerunning the producers.
#
# Check one entry (the ctest entries golden_<entry>):
#   cmake -DENTRY=<entry> -DOUT_DIR=<dir> <paths> -P golden.cmake
# Regenerate every file (the `golden` build target):
#   cmake -DREGENERATE=ON <paths> -P golden.cmake
# where <paths> is -DVIC_BENCH=<binary> -DVERIFY_POLICY=<binary>
# -DGOLDEN_DIR=<tests/golden>.
#
# The sweep is compared with vic_bench --diff, which ignores the
# wall-clock fields; the regenerated file has every wall_seconds
# zeroed, so it changes only where a result does. The reports carry
# no timing and are compared byte for byte.

set(sweep_file full.json)
set(sweep_args --jobs 2)
set(verify_report_file VERIFY_report.json)
set(verify_report_args --necessity --cost --diff-policy Utah CMU)
set(verify_interleave_file VERIFY_interleave.json)
set(verify_interleave_args --interleave --budget 5000 --jobs 2)
set(verify_weak_file VERIFY_weak.json)
set(verify_weak_args --interleave --memory-order weak --fuzz 200
    --fuzz-seed 42 --budget 20000 --jobs 2)
set(verify_coherence_file VERIFY_coherence.json)
set(verify_coherence_args --interleave --coherence --budget 5000
    --jobs 2)

# Run @p entry's producer, writing its JSON to @p path.
function(produce entry path)
    if(entry STREQUAL "sweep")
        set(tool ${VIC_BENCH})
    else()
        set(tool ${VERIFY_POLICY})
    endif()
    execute_process(COMMAND ${tool} ${${entry}_args} --json ${path}
                    RESULT_VARIABLE rc
                    OUTPUT_VARIABLE log ERROR_VARIABLE log)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "${log}${tool} ${${entry}_args} exited with ${rc}")
    endif()
endfunction()

if(REGENERATE)
    foreach(entry sweep verify_report verify_interleave verify_weak
                  verify_coherence)
        set(golden ${GOLDEN_DIR}/${${entry}_file})
        produce(${entry} ${golden})
        if(entry STREQUAL "sweep")
            file(READ ${golden} text)
            string(REGEX REPLACE "\"wall_seconds\": [-+.0-9eE]+"
                   "\"wall_seconds\": 0" text "${text}")
            file(WRITE ${golden} "${text}")
        endif()
        message(STATUS "regenerated ${golden}")
    endforeach()
else()
    if(NOT DEFINED ${ENTRY}_file)
        message(FATAL_ERROR "unknown golden entry '${ENTRY}'")
    endif()
    set(golden ${GOLDEN_DIR}/${${ENTRY}_file})
    set(out ${OUT_DIR}/golden_${ENTRY}.json)
    produce(${ENTRY} ${out})
    if(ENTRY STREQUAL "sweep")
        execute_process(COMMAND ${VIC_BENCH} --diff ${golden} ${out}
                        RESULT_VARIABLE rc
                        OUTPUT_VARIABLE why ERROR_VARIABLE why)
    else()
        execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                                ${golden} ${out}
                        RESULT_VARIABLE rc)
        set(why "${out} differs from ${golden}\n")
    endif()
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${why}A change that moves a result on "
                "purpose regenerates the record with the golden build "
                "target and declares the change.")
    endif()
endif()
