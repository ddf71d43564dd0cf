# Smoke test for the workload observatory, run via `cmake -P` from ctest:
# session 1 drives the shell through controllable evals plus a recurring
# non-controllable query under a tiny journal size (forcing rotation);
# session 2 replays the rotated journal — the offline workload report — and
# must count every entry sealed, render `workload top`, and rank the
# non-controllable fingerprint first under `workload advice`'s "views would
# help". Then `certify` must pass the intact journal and fail a tampered one.
# Variables passed in by tests/CMakeLists.txt:
#   SHELL_BIN  — path to the scalein_shell example binary
#   WORK_DIR   — scratch directory for script/journal files

set(script "${WORK_DIR}/workload_smoke_input.txt")
set(journal "${WORK_DIR}/workload_smoke_journal.jsonl")
file(REMOVE "${journal}" "${journal}.1" "${journal}.2")

# The secret relation has no access statement, so its query is rejected as
# non-controllable — three times, which must outrank the two controllable
# evals in the report. The shell binary prints the error and continues.
file(WRITE "${script}" "schema relation person(id, name, city)
schema relation friend(id1, id2)
schema relation secret(a, b)
access access friend(id1) N=50
access key person(id)
row person 1,\"ada\",\"NYC\"
row person 2,\"bob\",\"NYC\"
row friend 1,2
row secret 1,2
eval p=1 Q(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")
eval p=1 Q(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")
eval a=1 S(a, b) := secret(a, b)
eval a=1 S(a, b) := secret(a, b)
eval a=1 S(a, b) := secret(a, b)
quit
")

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env
          "SCALEIN_JOURNAL_PATH=${journal}"
          "SCALEIN_JOURNAL_MAX_BYTES=400"
          "SCALEIN_SESSION_ID=workload-smoke"
          "${SHELL_BIN}"
  INPUT_FILE "${script}"
  RESULT_VARIABLE shell_rc
  OUTPUT_VARIABLE shell_out
  ERROR_VARIABLE shell_err)
if(NOT shell_rc EQUAL 0)
  message(FATAL_ERROR "shell session 1 failed (rc=${shell_rc}): ${shell_err}")
endif()
if(NOT EXISTS "${journal}")
  message(FATAL_ERROR "shell did not write the persistent journal")
endif()
if(NOT EXISTS "${journal}.1")
  message(FATAL_ERROR "400-byte cap did not rotate the journal")
endif()

# Session 2: replay the rotated journal and render the workload report.
set(workload_script "${WORK_DIR}/workload_smoke_workload.txt")
file(WRITE "${workload_script}" "workload
workload top 5
workload advice
quit
")
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env
          "SCALEIN_JOURNAL_PATH=${journal}"
          "SCALEIN_JOURNAL_MAX_BYTES=400"
          "${SHELL_BIN}"
  INPUT_FILE "${workload_script}"
  RESULT_VARIABLE workload_rc
  OUTPUT_VARIABLE workload_out
  ERROR_VARIABLE workload_err)
if(NOT workload_rc EQUAL 0)
  message(FATAL_ERROR
          "shell session 2 failed (rc=${workload_rc}): ${workload_err}")
endif()
foreach(needle "replayed journal:" " 0 tampered" "non-controllable"
        "nonctrl=3")
  string(FIND "${workload_out}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR
            "workload output is missing '${needle}':\n${workload_out}")
  endif()
endforeach()
string(REGEX MATCHALL "\n(  [a-f0-9]+ n=[^\n]*)" class_lines "${workload_out}")
list(LENGTH class_lines class_line_count)
if(class_line_count EQUAL 0)
  message(FATAL_ERROR
          "no per-fingerprint lines in the workload output:\n${workload_out}")
endif()

# The non-controllable class must lead the "views would help" ranking.
string(FIND "${workload_out}" "views would help" views_pos)
if(views_pos EQUAL -1)
  message(FATAL_ERROR
          "workload advice has no 'views would help' section:\n${workload_out}")
endif()
string(SUBSTRING "${workload_out}" ${views_pos} -1 views_section)
string(REGEX MATCH "\n  [^\n]*" views_first "${views_section}")
string(FIND "${views_first}" "nonctrl=3" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR
          "first 'views would help' line does not rank the recurring "
          "non-controllable class (nonctrl=3):\n${views_first}\n"
          "${workload_out}")
endif()
message(STATUS "workload report smoke OK (${class_line_count} classes)")

# ---------------------------------------------------------------------------
# Certify exit codes: `certify <file>` must exit 0 on an intact journal and
# non-zero once any seal fails verification — the offline integrity gate CI
# relies on. (A tampered journal replayed at *startup* stays rc 0: replay
# reports tampering as a warning, it does not fail the session.)

set(certify_script "${WORK_DIR}/workload_smoke_certify.txt")
file(WRITE "${certify_script}" "certify ${journal}
quit
")
execute_process(
  COMMAND "${SHELL_BIN}"
  INPUT_FILE "${certify_script}"
  RESULT_VARIABLE certify_rc
  OUTPUT_VARIABLE certify_out)
if(NOT certify_rc EQUAL 0)
  message(FATAL_ERROR
          "certify exited ${certify_rc} on an intact journal:\n${certify_out}")
endif()
string(FIND "${certify_out}" "certificates verify" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "certify did not verify the journal:\n${certify_out}")
endif()

# Bump every sealed fetch counter on disk: the seals must catch it.
set(tampered "${WORK_DIR}/workload_smoke_tampered.jsonl")
file(READ "${journal}" journal_text)
string(REGEX REPLACE "\"actual_fetches\":[0-9]+" "\"actual_fetches\":424242"
       tampered_text "${journal_text}")
if(tampered_text STREQUAL journal_text)
  message(FATAL_ERROR "tampering produced no change — journal format drift?")
endif()
file(WRITE "${tampered}" "${tampered_text}")
set(tamper_script "${WORK_DIR}/workload_smoke_tamper_certify.txt")
file(WRITE "${tamper_script}" "certify ${tampered}
quit
")
execute_process(
  COMMAND "${SHELL_BIN}"
  INPUT_FILE "${tamper_script}"
  RESULT_VARIABLE tamper_rc
  OUTPUT_VARIABLE tamper_out)
if(tamper_rc EQUAL 0)
  message(FATAL_ERROR
          "certify exited 0 on a tampered journal:\n${tamper_out}")
endif()
string(FIND "${tamper_out}" "failed seal verification" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR
          "tampered certify did not name the seal failure:\n${tamper_out}")
endif()

# Startup replay of the tampered file: tampering is reported, not fatal.
set(replay_script "${WORK_DIR}/workload_smoke_tamper_replay.txt")
file(WRITE "${replay_script}" "workload
quit
")
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env
          "SCALEIN_JOURNAL_PATH=${tampered}"
          "${SHELL_BIN}"
  INPUT_FILE "${replay_script}"
  RESULT_VARIABLE replay_rc
  OUTPUT_VARIABLE replay_out)
if(NOT replay_rc EQUAL 0)
  message(FATAL_ERROR
          "startup replay of a tampered journal must warn, not fail "
          "(rc=${replay_rc}):\n${replay_out}")
endif()
string(FIND "${replay_out}" "tampered" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR
          "replay did not report the tampered entries:\n${replay_out}")
endif()
message(STATUS "certify exit-code smoke OK")
