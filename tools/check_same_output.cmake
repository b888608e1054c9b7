# Two runs must agree byte for byte on stdout and on the exit code, and
# must print something.  Every determinism and differential test reduces
# to this: back-to-back reruns, --jobs 8 vs 1, memo on vs off, and the
# fast vs slow exact-arithmetic builds.
#
#   cmake -DTOOL=<tool> "-DARGS1=<args>" [-DTOOL2=<tool>] ["-DARGS2=<args>"]
#         [-DINPUT=<stdin file>] [-DEXPECTED=<exit code>]
#         [-DNORMALIZE_FINGERPRINT=1] -P check_same_output.cmake
#
# TOOL2 and ARGS2 default to TOOL and ARGS1 (two identical runs).
# EXPECTED also pins both exit codes.  NORMALIZE_FINGERPRINT blanks the
# wire format's "fingerprint" field before comparing: option knobs fold
# into the fingerprint by design, so two option sets that must agree on
# *results* still differ there.
set(TOOL1 ${TOOL})
if(NOT DEFINED TOOL2)
  set(TOOL2 ${TOOL})
endif()
if(NOT DEFINED ARGS2)
  set(ARGS2 "${ARGS1}")
endif()
set(STDIN)
if(INPUT)
  set(STDIN INPUT_FILE ${INPUT})
endif()
foreach(I 1 2)
  separate_arguments(ARG_LIST UNIX_COMMAND "${ARGS${I}}")
  execute_process(COMMAND ${TOOL${I}} ${ARG_LIST} ${STDIN}
                  OUTPUT_VARIABLE OUT${I} RESULT_VARIABLE RC${I} ERROR_QUIET)
  if(NORMALIZE_FINGERPRINT)
    string(REGEX REPLACE "\"fingerprint\":\"[0-9a-f]+\"" "\"fingerprint\":\"\""
           OUT${I} "${OUT${I}}")
  endif()
  if(DEFINED EXPECTED AND NOT RC${I} STREQUAL EXPECTED)
    message(FATAL_ERROR "${TOOL${I}} ${ARGS${I}} exited ${RC${I}}, "
                        "expected ${EXPECTED}")
  endif()
endforeach()
if(NOT RC1 STREQUAL RC2)
  message(FATAL_ERROR "exit codes differ: ${TOOL1} ${ARGS1} -> ${RC1}, "
                      "${TOOL2} ${ARGS2} -> ${RC2}")
endif()
if(NOT OUT1 STREQUAL OUT2)
  message(FATAL_ERROR "output differs:\n--- ${TOOL1} ${ARGS1} ---\n${OUT1}\n"
                      "--- ${TOOL2} ${ARGS2} ---\n${OUT2}")
endif()
if(OUT1 STREQUAL "")
  message(FATAL_ERROR "nothing printed; the comparison is vacuous")
endif()
