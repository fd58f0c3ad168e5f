# End-to-end kill-and-rerun check for `esteem_cli --sweep --journal DIR`: a
# journaled sweep SIGKILLed by a crashpoint right after its first row is
# durable, rerun in a fresh process, must restore that row and write a CSV
# byte-identical to an uninterrupted run's. The same DIR then refuses a
# different sweep. Invoked by the cli_resume_bitwise ctest with
# -DCLI=<binary> -DWORKDIR=<scratch dir>.
set(sweep_args --sweep gamess,gobmk --techniques rpv --instr 30000 --warmup 5000)
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})

# 1. Reference: the uninterrupted sweep.
execute_process(COMMAND ${CLI} ${sweep_args} --csv ${WORKDIR}/full.csv
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "reference sweep failed (exit ${rc})")
endif()

# 2. Killed leg: lease-domain append 0 is the svc header and append 1 the
#    first row's cell, so the crashpoint SIGKILLs the process right after
#    exactly one row is durable (--jobs 1 keeps the order deterministic).
set(ENV{ESTEEM_CHAOS_SCHEDULE} "lease.crash.after_append@1=crash")
execute_process(COMMAND ${CLI} ${sweep_args} --jobs 1 --journal ${WORKDIR}/sweep.dir
                        --csv ${WORKDIR}/killed.csv
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
unset(ENV{ESTEEM_CHAOS_SCHEDULE})
if(rc MATCHES "^[0-9]+$")
  message(FATAL_ERROR "journaled sweep was not killed by the crashpoint (exit ${rc})")
endif()

# 3. Rerun the same command in a fresh process, without chaos.
execute_process(COMMAND ${CLI} ${sweep_args} --journal ${WORKDIR}/sweep.dir
                        --csv ${WORKDIR}/resumed.csv
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "rerun sweep failed (exit ${rc}): ${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "resume: 1 row\\(s\\) restored")
  message(FATAL_ERROR "rerun did not restore the journaled row: ${out}${err}")
endif()

# 4. The rerun CSV must match the uninterrupted one byte for byte.
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${WORKDIR}/full.csv ${WORKDIR}/resumed.csv
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "rerun CSV differs from the uninterrupted sweep's")
endif()

# 5. The dir now belongs to that sweep: a different workload list is refused.
execute_process(COMMAND ${CLI} --sweep gamess --techniques rpv --instr 30000
                        --warmup 5000 --journal ${WORKDIR}/sweep.dir
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT "${err}" MATCHES "different sweep")
  message(FATAL_ERROR "a different sweep on the dir was not refused (exit ${rc}): ${err}")
endif()
file(REMOVE_RECURSE ${WORKDIR})
