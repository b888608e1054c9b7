# Runs TOOL once and checks its exit code and output: every REQUIRE regex
# must match, no FORBID regex may.  The regexes see stdout followed by
# stderr, so diagnostics can be pinned as well as responses.
#
#   cmake -DTOOL=<tool> ["-DARGS=<args>"] [-DINPUT=<stdin file>]
#         [-DEXPECTED=<exit code, default 0>] ["-DREQUIRE=<re>;<re>..."]
#         ["-DFORBID=<re>;<re>..."] -P check_output.cmake
if(NOT DEFINED EXPECTED)
  set(EXPECTED 0)
endif()
set(STDIN)
if(INPUT)
  set(STDIN INPUT_FILE ${INPUT})
endif()
separate_arguments(ARG_LIST UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${TOOL} ${ARG_LIST} ${STDIN}
                OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR RESULT_VARIABLE RC)
if(NOT RC STREQUAL EXPECTED)
  message(FATAL_ERROR "${TOOL} exited ${RC}, expected ${EXPECTED}\n"
                      "stdout:\n${OUT}\nstderr:\n${ERR}")
endif()
foreach(PATTERN IN LISTS REQUIRE)
  if(NOT "${OUT}${ERR}" MATCHES "${PATTERN}")
    message(FATAL_ERROR "output missing /${PATTERN}/\n"
                        "stdout:\n${OUT}\nstderr:\n${ERR}")
  endif()
endforeach()
foreach(PATTERN IN LISTS FORBID)
  if("${OUT}${ERR}" MATCHES "${PATTERN}")
    message(FATAL_ERROR "output matches forbidden /${PATTERN}/\n"
                        "stdout:\n${OUT}\nstderr:\n${ERR}")
  endif()
endforeach()
