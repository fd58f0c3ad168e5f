# `esteem_validate --check` or `--results` with a truncated golden file must
# stop with the loader's message and exit 2 before simulating any figure.
# Invoked by the validate_rejects_truncated_golden and
# validate_results_rejects_truncated_golden ctests with -DVALIDATE=<binary>
# -DMODE=<check|results> -DGOLDEN=<golden.json> -DWORKDIR=<scratch dir>; the
# bench scale it asks for would run for minutes, which the tests' TIMEOUT
# turns into a failure.
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})
file(READ ${GOLDEN} golden)
string(SUBSTRING "${golden}" 0 120 head)
file(WRITE ${WORKDIR}/truncated.json "${head}")

execute_process(COMMAND ${VALIDATE} --${MODE} --scale bench
                        --golden ${WORKDIR}/truncated.json
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "--${MODE}: expected exit 2 for a truncated golden file, got ${rc}:\n${err}")
endif()
if(NOT err MATCHES "golden")
  message(FATAL_ERROR "--${MODE}: no loader message on stderr:\n${err}")
endif()
if(err MATCHES "running fig" OR NOT out STREQUAL "")
  message(FATAL_ERROR "--${MODE}: figures ran before the golden file was read:\n${err}${out}")
endif()
