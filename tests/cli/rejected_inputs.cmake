# amo_lab must refuse, with a usage error (exit 2), inputs that would
# otherwise run something other than what was asked for.
#
#   cmake -DAMO_LAB=<path to amo_lab> -P tests/cli/rejected_inputs.cmake

# submit: an --out value holding whitespace or '#' would make the job line
# read back as a different job (an extra key, an extra scenario, a cut-off
# path), so nothing may be printed or appended.
set(bad_outs
  "x.json n=999"
  "x.json\tkk/random"
  "x.json # tail")
foreach(out IN LISTS bad_outs)
  execute_process(COMMAND ${AMO_LAB} submit kk/round_robin --n=64 "--out=${out}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE printed ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "amo_lab submit --out='${out}': exit ${rc}, want 2\n"
                        "printed: ${printed}")
  endif()
  if(NOT printed STREQUAL "")
    message(FATAL_ERROR "amo_lab submit --out='${out}' printed a job line: "
                        "${printed}")
  endif()
  if(NOT err MATCHES "differs in: [^;]*out=")
    message(FATAL_ERROR "amo_lab submit --out='${out}': error does not name "
                        "out=:\n${err}")
  endif()
endforeach()

# A well-formed submit still prints its canonical job line.
execute_process(COMMAND ${AMO_LAB} submit kk/round_robin --n=64 --out=x.json
                RESULT_VARIABLE rc OUTPUT_VARIABLE printed ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT printed MATCHES "^kk/round_robin n=64 .* out=x.json\n$")
  message(FATAL_ERROR "amo_lab submit --out=x.json: exit ${rc}\n${printed}${err}")
endif()

# The replica-block width flag is gone; its old spelling is an unknown option.
execute_process(COMMAND ${AMO_LAB} run kk/random --n=64 --m=2 --batch-replicas=4
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "unknown option")
  message(FATAL_ERROR "amo_lab run --batch-replicas=4: exit ${rc}, want 2 with "
                      "'unknown option'\n${err}")
endif()
