# Byte-identity check against a recorded digest:
#   cmake -DFILE=<artifact> -DDIGESTS=<sha256sum-style list> -P check_digest.cmake
# The list holds "<sha256>  <file name>" lines (sha256sum output); the
# artifact's SHA-256 must equal the line for its file name. Digests
# rather than copies keep the megabyte of golden telemetry out of the
# tree; regenerate a list with `sha256sum <files> > list`.
get_filename_component(name "${FILE}" NAME)
file(STRINGS "${DIGESTS}" lines)
set(want "")
foreach(line IN LISTS lines)
  if(line MATCHES "^([0-9a-f]+)  (.+)$" AND CMAKE_MATCH_2 STREQUAL name)
    set(want "${CMAKE_MATCH_1}")
  endif()
endforeach()
if(want STREQUAL "")
  message(FATAL_ERROR "no digest for ${name} in ${DIGESTS}")
endif()
if(NOT EXISTS "${FILE}")
  message(FATAL_ERROR "missing artifact ${FILE}")
endif()
file(SHA256 "${FILE}" got)
if(NOT got STREQUAL want)
  message(FATAL_ERROR "${name} differs from its golden:\n"
                      "  got  ${got}\n  want ${want}")
endif()
