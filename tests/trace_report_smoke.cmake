# Post-mortem report smoke, run via `cmake -P` from ctest: drive the shell
# binary through the acceptance scenario (a bounded query, one governor
# trip, exit), post-mortem-dump on exit, then have a fresh shell session
# (empty journal) render `certify <dump>` — the seal check plus the report —
# and check that it verifies every seal and lists the tripped query.
# Variables passed in by tests/CMakeLists.txt:
#   SHELL_BIN  — path to the scalein_shell example binary
#   WORK_DIR   — scratch directory for the script/dump files

set(script "${WORK_DIR}/trace_report_smoke_input.txt")
set(dump "${WORK_DIR}/trace_report_smoke_dump.json")
file(WRITE "${script}" "schema relation person(id, name, city)
schema relation friend(id1, id2)
access access friend(id1) N=50
access key person(id)
row person 1,\"ada\",\"NYC\"
row person 2,\"bob\",\"NYC\"
row friend 1,2
eval p=1 Q(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")
limit fetch=1
eval p=1 Q(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")
quit
")
file(REMOVE "${dump}")

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env "SCALEIN_DUMP_PATH=${dump}" "${SHELL_BIN}"
  INPUT_FILE "${script}"
  RESULT_VARIABLE shell_rc
  OUTPUT_VARIABLE shell_out
  ERROR_VARIABLE shell_err)
if(NOT shell_rc EQUAL 0)
  message(FATAL_ERROR "shell session failed (rc=${shell_rc}): ${shell_err}")
endif()
if(NOT EXISTS "${dump}")
  message(FATAL_ERROR "shell exit did not write the post-mortem dump")
endif()

set(certify_script "${WORK_DIR}/trace_report_smoke_certify.txt")
file(WRITE "${certify_script}" "certify ${dump}
quit
")
execute_process(
  COMMAND "${SHELL_BIN}"
  INPUT_FILE "${certify_script}"
  RESULT_VARIABLE certify_rc
  OUTPUT_VARIABLE report_out
  ERROR_VARIABLE certify_err)
if(NOT certify_rc EQUAL 0)
  message(FATAL_ERROR "offline certify failed (rc=${certify_rc}): ${certify_err}")
endif()
foreach(needle "dump reason: shell-exit" "[tripped]" "governor-trip"
        "within-bound" "2/2 certificates verify" "signature-ok")
  string(FIND "${report_out}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR
            "report is missing '${needle}':\n${report_out}")
  endif()
endforeach()
message(STATUS "trace_report smoke OK")
