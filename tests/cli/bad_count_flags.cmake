# amo_lab must reject a count flag whose value is not a non-negative decimal
# that fits, with a usage error (exit 2) before anything runs.
#
#   cmake -DAMO_LAB=<path to amo_lab> -P tests/cli/bad_count_flags.cmake
#
# One case per list entry; '|' separates the arguments of a case.
set(bad_args
  "--replicas=abc|--seeds=xyz"
  "--replicas=-1"
  "--n="
  "--m=4x"
  "--beta=+3"
  "--eps=4294967296"
  "--seed=18446744073709551616"
  "--seeds=1.5"
  "--retries=-2"
  "--pool=1e3"
  "--shards=three")
foreach(args IN LISTS bad_args)
  string(REPLACE "|" " " shown "${args}")
  string(REPLACE "|" ";" argv "${args}")
  execute_process(COMMAND ${AMO_LAB} run kk/random --n=64 --m=2 ${argv}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "amo_lab run kk/random ${shown}: exit ${rc}, want 2")
  endif()
  if(NOT err MATCHES "bad --")
    message(FATAL_ERROR "amo_lab run kk/random ${shown}: no flag error in\n${err}")
  endif()
endforeach()

# The same flags with well-formed values still run.
execute_process(COMMAND ${AMO_LAB} run kk/random --n=64 --m=2 --beta=2 --eps=2
                        --seed=3 --seeds=1 --replicas=2 --pool=1
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "well-formed count flags: exit ${rc}\n${err}")
endif()
