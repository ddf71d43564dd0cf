# Offline serve-report smoke, run via `cmake -P` from ctest: a scripted
# scalein_served session writes a structured access log plus the certificate
# journal and renders its live per-class tallies with the `classes` command;
# then `scalein_served --report` folds the access log offline through the
# same tallies (serve::ClassTallies) and must reproduce those lines, join
# every record to a sealed, fetch-consistent certificate, and exit 2 on a
# missing log. Variables passed in by tests/CMakeLists.txt:
#   SERVED_BIN — path to the scalein_served example binary
#   WORK_DIR   — scratch directory for catalog/script/log files

set(catalog "${WORK_DIR}/serve_report_catalog.txt")
set(script "${WORK_DIR}/serve_report_script.txt")
set(journal "${WORK_DIR}/serve_report_journal.jsonl")
set(access_log "${WORK_DIR}/serve_report_access.jsonl")
file(REMOVE "${journal}" "${journal}.1" "${journal}.2")
file(REMOVE "${access_log}" "${access_log}.1" "${access_log}.2")

file(WRITE "${catalog}" "schema relation person(id, name, city)
schema relation friend(id1, id2)
schema relation secret(a, b)
access access friend(id1) N=50
access key person(id)
row person 1,\"ada\",\"NYC\"
row person 2,\"bob\",\"NYC\"
row person 3,\"cyd\",\"NYC\"
row friend 1,2
row friend 1,3
row secret 1,2
")

# One request per admission outcome (admit / degrade / reject / shed), all
# tagged, so every report section has something to say.
file(WRITE "${script}" "a hello smoke
a eval p=1 F(p, id) := friend(p, id)
a eval @req1 p=1 Q(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")
a eval a=1 S(a, b) := secret(a, b)
a #busy 1
a eval p=1 F(p, id) := friend(p, id)
a #busy 0
a classes
a bye
quit
")

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env
          "SCALEIN_JOURNAL_PATH=${journal}"
          "SCALEIN_ACCESS_LOG_PATH=${access_log}"
          "SCALEIN_SESSION_ID=serve-report-smoke"
          "SCALEIN_SLA_SESSION_BUDGET=50"
          "SCALEIN_SLA_MAX_RUNNING=1"
          "SCALEIN_SLA_QUEUE_TIMEOUT_MS=20"
          "${SERVED_BIN}" --script "${catalog}"
  INPUT_FILE "${script}"
  RESULT_VARIABLE served_rc
  OUTPUT_VARIABLE served_out
  ERROR_VARIABLE served_err)
if(NOT served_rc EQUAL 0)
  message(FATAL_ERROR
          "scripted serve session failed (rc=${served_rc}): "
          "${served_out}\n${served_err}")
endif()
if(NOT EXISTS "${access_log}")
  message(FATAL_ERROR "serve session did not write the access log")
endif()

# Pull the shell's own `classes` rendering out of the transcript: the
# header plus the four per-class lines.
string(REGEX MATCH "classes: [0-9]+ request\\(s\\)" classes_header
       "${served_out}")
if(classes_header STREQUAL "")
  message(FATAL_ERROR
          "serve transcript has no classes header:\n${served_out}")
endif()
string(REGEX MATCHALL
       "\n(  (small|medium|large|huge) n=[^\n]*)" class_lines
       "${served_out}")
list(LENGTH class_lines class_line_count)
if(NOT class_line_count EQUAL 4)
  message(FATAL_ERROR
          "expected 4 per-class lines in the serve transcript, got "
          "${class_line_count}:\n${served_out}")
endif()

execute_process(
  COMMAND "${SERVED_BIN}" --report "${access_log}" --journal "${journal}"
  RESULT_VARIABLE report_rc
  OUTPUT_VARIABLE report_out
  ERROR_VARIABLE report_err)
if(NOT report_rc EQUAL 0)
  message(FATAL_ERROR
          "scalein_served --report failed (rc=${report_rc}): "
          "${report_out}\n${report_err}")
endif()

# The offline fold of the access log must reproduce the live per-class
# lines verbatim — header and all four rows, byte for byte.
foreach(needle "${classes_header}" ${class_lines})
  string(FIND "${report_out}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR
            "serve report does not reproduce the shell's classes line "
            "'${needle}'.\nshell transcript:\n${served_out}\n"
            "report output:\n${report_out}")
  endif()
endforeach()

# And the rest of the report's contract: clean load, phase percentiles,
# tag tallies, and a journal join where every record finds a sealed,
# fetch-consistent certificate.
foreach(needle
        "records: 4 (0 malformed)"
        "phase latency (ms):"
        "slowest requests"
        "bound slack"
        "client tags:"
        "  smoke n=3"
        "  req1 n=1"
        "journal join"
        "tampered=0"
        "missing=0"
        "fetch_mismatches=0")
  string(FIND "${report_out}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR
            "serve report is missing '${needle}':\n${report_out}")
  endif()
endforeach()

# No generation of the access log: nothing to report, exit 2.
execute_process(
  COMMAND "${SERVED_BIN}" --report "${WORK_DIR}/serve_report_nothere.jsonl"
  RESULT_VARIABLE missing_rc
  OUTPUT_QUIET ERROR_QUIET)
if(NOT missing_rc EQUAL 2)
  message(FATAL_ERROR
          "--report on a missing access log exited ${missing_rc}, want 2")
endif()
message(STATUS "serve report smoke OK")
