# Writes a digest with `pcd_diff run`, mutates one line of it, and checks
# that `pcd_diff compare` refuses the mutant as a usage error (exit 2) with
# the "not a pcd-digest v1 file" message.
#
#   cmake -DBIN=<pcd_diff> -DDIR=<scratch dir> -DMUTANT=<name> -P digest_mutant.cmake
#
# MUTANT: every_junk (trailing text after checkpoint_every), every_signed
# (a negative checkpoint_every), every_repeated (two checkpoint_every
# lines), root_trailing (trailing text after the root hash).
file(MAKE_DIRECTORY "${DIR}")
set(good "${DIR}/good.txt")
set(bad "${DIR}/mutant.txt")
execute_process(COMMAND "${BIN}" run --workload ft --scale 0.05 --out "${good}"
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "pcd_diff run exited with ${rc}\n${err}")
endif()
file(READ "${good}" text)
if(MUTANT STREQUAL "every_junk")
  string(REGEX REPLACE "(checkpoint_every [0-9]+)" "\\1junk" mutant "${text}")
elseif(MUTANT STREQUAL "every_signed")
  string(REGEX REPLACE "checkpoint_every [0-9]+" "checkpoint_every -5" mutant "${text}")
elseif(MUTANT STREQUAL "every_repeated")
  string(REGEX REPLACE "(checkpoint_every [0-9]+\n)" "\\1\\1" mutant "${text}")
elseif(MUTANT STREQUAL "root_trailing")
  string(REGEX REPLACE "(root [0-9a-f]+)" "\\1 trailing" mutant "${text}")
else()
  message(FATAL_ERROR "unknown MUTANT '${MUTANT}'")
endif()
if(mutant STREQUAL text)
  message(FATAL_ERROR "mutant ${MUTANT} changed nothing in the digest")
endif()
file(WRITE "${bad}" "${mutant}")
execute_process(COMMAND "${BIN}" compare "${good}" "${bad}"
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "is not a pcd-digest v1 file")
  message(FATAL_ERROR "pcd_diff compare took mutant ${MUTANT} (exit ${rc}):\n${err}")
endif()
