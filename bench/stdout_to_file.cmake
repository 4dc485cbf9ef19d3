# Runs PROGRAM and writes its standard output to OUT, failing if the
# program exits non-zero, so a ctest can compare a report with a
# checked-in golden file (cmake -E compare_files):
#   cmake -DPROGRAM=<exe> -DOUT=<file> -P stdout_to_file.cmake
execute_process(COMMAND ${PROGRAM} OUTPUT_FILE ${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${rc}")
endif()
