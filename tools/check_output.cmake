# Runs TOOL once and checks its exit code and output: the exit code must be
# one of EXPECTED, stdout must equal the GOLDEN file byte for byte, every
# REQUIRE regex must match and no FORBID regex may.  The regexes see
# stdout followed by stderr, so diagnostics can be pinned as well as
# responses.  DIR sets the working directory, so paths on the command line
# (and in the output) can stay relative.
#
#   cmake -DTOOL=<tool> ["-DARGS=<args>"] [-DINPUT=<stdin file>]
#         ["-DEXPECTED=<code>;<code>..." (default 0)] [-DGOLDEN=<file>]
#         [-DDIR=<working directory>] ["-DREQUIRE=<re>;<re>..."]
#         ["-DFORBID=<re>;<re>..."] -P check_output.cmake
if(NOT DEFINED EXPECTED)
  set(EXPECTED 0)
endif()
set(STDIN)
if(INPUT)
  set(STDIN INPUT_FILE ${INPUT})
endif()
set(CWD)
if(DIR)
  set(CWD WORKING_DIRECTORY ${DIR})
endif()
separate_arguments(ARG_LIST UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${TOOL} ${ARG_LIST} ${STDIN} ${CWD}
                OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR RESULT_VARIABLE RC)
list(FIND EXPECTED "${RC}" RC_INDEX)
if(RC_INDEX EQUAL -1)
  message(FATAL_ERROR "${TOOL} exited ${RC}, expected ${EXPECTED}\n"
                      "stdout:\n${OUT}\nstderr:\n${ERR}")
endif()
if(GOLDEN)
  file(READ ${GOLDEN} WANT)
  if(NOT OUT STREQUAL WANT)
    message(FATAL_ERROR "stdout diverges from golden ${GOLDEN}:\n"
                        "--- expected ---\n${WANT}\n--- actual ---\n${OUT}\n"
                        "--- stderr ---\n${ERR}")
  endif()
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
