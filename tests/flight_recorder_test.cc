#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "io/shell.h"
#include "obs/dump.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "util/failpoint.h"

namespace scalein::obs {
namespace {

/// Fixed clock for deterministic dump bytes: monotonically increasing but
/// reproducible across runs.
uint64_t FixedClock() {
  static uint64_t t = 0;
  return t += 1000;
}

uint64_t ZeroClock() { return 0; }

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Uninstalls the global recorder when a test exits, so a failing test does
/// not leak an installed sink into later tests.
struct GlobalRecorderGuard {
  ~GlobalRecorderGuard() { FlightRecorder::InstallGlobal(nullptr); }
};

/// The sealed certificates of a journal's records, oldest first.
std::vector<AccessCertificate> Certs(const QueryJournal& journal) {
  std::vector<AccessCertificate> out;
  for (JournalEntry& e : journal.entries()) out.push_back(std::move(e.cert));
  return out;
}

TEST(FlightRecorderTest, AppendAndSnapshot) {
  FlightRecorder rec(8);
  rec.Append(EventKind::kQueryStart, "q1", {EventArg("bound", 100.0)});
  rec.Append(EventKind::kQueryFinish, "q1", {EventArg("fetched", uint64_t{7})});
  std::vector<FlightEvent> events = rec.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].kind, EventKind::kQueryStart);
  EXPECT_EQ(events[0].label, "q1");
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(rec.total_appended(), 2u);
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(FlightRecorderTest, WraparoundEvictsOldestFirst) {
  FlightRecorder rec(4);
  for (int i = 0; i < 10; ++i) {
    rec.Append(EventKind::kChaseStep, "e" + std::to_string(i));
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.total_appended(), 10u);
  EXPECT_EQ(rec.dropped(), 6u);
  // Strict FIFO: the survivors are the newest four, oldest → newest.
  std::vector<FlightEvent> events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].seq, 6 + i);
    EXPECT_EQ(events[i].label, "e" + std::to_string(6 + i));
  }
}

TEST(FlightRecorderTest, CompactAppendRendersNumericArgs) {
  FlightRecorder rec(8);
  rec.set_clock(&ZeroClock);
  rec.AppendCompact(EventKind::kQueryFinish, "bounded.eval",
                    {{"fetched", 7946057.0}, {"static_bound", 100.0},
                     {"tripped", 0.0}});
  std::string json = rec.ToJson();
  // Integral counters render exactly, not in %g's rounded form.
  EXPECT_NE(json.find("\"fetched\":7946057"), std::string::npos);
  EXPECT_EQ(json.find("e+06"), std::string::npos);
  EXPECT_NE(json.find("\"static_bound\":100"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"query-finish\""), std::string::npos);
}

TEST(FlightRecorderTest, DumpBytesDeterministicUnderFixedClock) {
  auto record = [](FlightRecorder* rec) {
    rec->Append(EventKind::kShellCommand, "eval");
    rec->Append(EventKind::kPlan, "abcd1234abcd1234",
                {EventArg("query", "Q(x) := r(x)")});
    rec->AppendCompact(EventKind::kQueryFinish, "bounded.eval",
                       {{"fetched", 7.0}, {"static_bound", 100.0}});
    rec->Append(EventKind::kGovernorTrip, "fetch",
                {EventArg("detail", "fetch budget"), EventArg("fetched",
                                                             uint64_t{100})});
  };
  FlightRecorder a(16);
  a.set_clock(&ZeroClock);
  FlightRecorder b(16);
  b.set_clock(&ZeroClock);
  record(&a);
  record(&b);
  EXPECT_EQ(a.ToJson(), b.ToJson());
  // The joined dump is byte-identical too (metrics omitted: the registry is
  // not clocked).
  EXPECT_EQ(RenderDump("test", &a, nullptr, nullptr),
            RenderDump("test", &b, nullptr, nullptr));
}

TEST(FlightRecorderTest, FailpointFiresAreRecordedWhileInstalled) {
  GlobalRecorderGuard guard;
  util::Failpoints::Global().Clear();
  FlightRecorder rec(8);
  FlightRecorder::InstallGlobal(&rec);
  ASSERT_TRUE(util::Failpoints::Global().Configure("scan_next=error").ok());
  EXPECT_FALSE(SCALEIN_FAILPOINT("scan_next").ok());
  util::Failpoints::Global().Clear();
  FlightRecorder::InstallGlobal(nullptr);
  std::vector<FlightEvent> events = rec.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, EventKind::kFailpointFire);
  EXPECT_EQ(events[0].label, "scan_next");
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_EQ(events[0].args[0].second, "\"error\"");
}

TEST(JournalTest, VerdictDerivation) {
  AccessCertificate cert;
  cert.static_bound = 100;
  cert.actual_fetches = 60;
  EXPECT_EQ(DeriveVerdict(cert), CertVerdict::kWithinBound);
  cert.actual_fetches = 101;
  EXPECT_EQ(DeriveVerdict(cert), CertVerdict::kExceeded);
  cert.static_bound = -1;
  EXPECT_EQ(DeriveVerdict(cert), CertVerdict::kNoStaticBound);
  cert.tripped = true;
  EXPECT_EQ(DeriveVerdict(cert), CertVerdict::kTripped);
}

TEST(JournalTest, SealAndVerifyDetectsTampering) {
  AccessCertificate cert;
  cert.query_fingerprint = Fingerprint("Q(x) := r(x)");
  cert.query_text = "Q(x) := r(x)";
  cert.static_bound = 100;
  cert.actual_fetches = 42;
  cert.index_lookups = 3;
  CertOp op;
  op.label = "atom(r)";
  op.tuples_fetched = 42;
  op.static_bound = 50;
  cert.ops.push_back(op);
  SealCertificate(&cert);
  EXPECT_EQ(cert.verdict, CertVerdict::kWithinBound);
  EXPECT_NE(cert.signature, 0u);
  EXPECT_TRUE(VerifyCertificate(cert));

  AccessCertificate forged = cert;
  forged.actual_fetches = 7;  // understate the fetch count
  EXPECT_FALSE(VerifyCertificate(forged));
  AccessCertificate relabeled = cert;
  relabeled.verdict = CertVerdict::kExceeded;  // wrong verdict, right counters
  EXPECT_FALSE(VerifyCertificate(relabeled));
}

TEST(JournalTest, RingEvictsOldestCertificates) {
  QueryJournal journal(2);
  for (int i = 0; i < 5; ++i) {
    AccessCertificate cert;
    cert.query_fingerprint = "fp" + std::to_string(i);
    SealCertificate(&cert);
    journal.Append(JournalEntry{std::move(cert), static_cast<double>(i),
                                false, ""});
  }
  EXPECT_EQ(journal.size(), 2u);
  EXPECT_EQ(journal.dropped(), 3u);
  std::vector<JournalEntry> entries = journal.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].cert.query_fingerprint, "fp3");
  EXPECT_EQ(entries[1].cert.query_fingerprint, "fp4");
  EXPECT_EQ(entries[1].latency_ms, 4.0);
}

TEST(DumpTest, ParseMetricsDumpSpec) {
  std::string path;
  double secs = 0;
  ASSERT_TRUE(ParseMetricsDumpSpec("/tmp/m.jsonl:2.5", &path, &secs).ok());
  EXPECT_EQ(path, "/tmp/m.jsonl");
  EXPECT_DOUBLE_EQ(secs, 2.5);
  // The split is on the LAST colon: colon-bearing paths survive.
  ASSERT_TRUE(ParseMetricsDumpSpec("C:/m.jsonl:1", &path, &secs).ok());
  EXPECT_EQ(path, "C:/m.jsonl");
  EXPECT_FALSE(ParseMetricsDumpSpec("nocolon", &path, &secs).ok());
  EXPECT_FALSE(ParseMetricsDumpSpec("/tmp/m.jsonl:0", &path, &secs).ok());
  EXPECT_FALSE(ParseMetricsDumpSpec("/tmp/m.jsonl:abc", &path, &secs).ok());
}

TEST(DumpTest, MetricsDumperWritesFirstSnapshotSynchronously) {
  const std::string path = "test_metrics_dump.jsonl";
  std::remove(path.c_str());
  MetricsRegistry registry;
  registry.GetCounter("test.counter").Increment(3);
  MetricsDumper dumper;
  ASSERT_TRUE(dumper.Start(path, 3600.0, &registry).ok());
  EXPECT_TRUE(dumper.running());
  EXPECT_GE(dumper.snapshots(), 1u);
  dumper.Stop();
  EXPECT_FALSE(dumper.running());
  std::string contents = ReadFile(path);
  EXPECT_NE(contents.find("\"test.counter\": 3"), std::string::npos);
  // JSONL contract: exactly one physical line per snapshot (the registry's
  // pretty-printed JSON is flattened before appending).
  const size_t newlines =
      static_cast<size_t>(std::count(contents.begin(), contents.end(), '\n'));
  EXPECT_EQ(newlines, dumper.snapshots());
  std::remove(path.c_str());
  // Unwritable path fails loudly at Start, not silently in the background.
  MetricsDumper bad;
  EXPECT_FALSE(bad.Start("/nonexistent-dir/m.jsonl", 1.0, &registry).ok());
}

TEST(DumpTest, PostMortemWritesArmedFile) {
  const std::string path = "test_postmortem.json";
  std::remove(path.c_str());
  FlightRecorder rec(8);
  rec.set_clock(&FixedClock);
  rec.Append(EventKind::kShellCommand, "eval");
  QueryJournal journal;
  EXPECT_FALSE(WritePostMortem("before-arming"));
  ArmPostMortem(path, &rec, &journal, nullptr);
  EXPECT_TRUE(PostMortemArmed());
  EXPECT_TRUE(WritePostMortem("governor-trip"));
  DisarmPostMortem();
  EXPECT_FALSE(WritePostMortem("after-disarm"));
  std::string dump = ReadFile(path);
  EXPECT_NE(dump.find("\"reason\":\"governor-trip\""), std::string::npos);
  EXPECT_NE(dump.find("\"recorder\":{"), std::string::npos);
  EXPECT_NE(dump.find("\"journal\":{"), std::string::npos);
  EXPECT_NE(dump.find("shell-command"), std::string::npos);
  std::remove(path.c_str());
}

/// End-to-end through the shell: a bounded query seals a within-bound
/// certificate; a governed query that trips seals a tripped one; the dump
/// carries the required distinct event kinds.
TEST(ShellObservabilityTest, EvalSealsCertificates) {
  Shell shell;
  auto must = [&shell](std::string_view line) {
    Result<std::string> out = shell.Execute(line);
    SI_CHECK_MSG(out.ok(), out.status().message().c_str());
    return *out;
  };
  must("schema relation person(id, name, city)");
  must("schema relation friend(id1, id2)");
  must("access access friend(id1) N=50");
  must("access key person(id)");
  must("row person 1,\"ada\",\"NYC\"");
  must("row person 2,\"bob\",\"NYC\"");
  must("row friend 1,2");
  const char* eval =
      "eval p=1 Q(p, name) := exists id. friend(p, id) and person(id, name, "
      "\"NYC\")";
  must(eval);

  // Certificate: sealed, within bound, verifiable offline.
  std::vector<AccessCertificate> certs = Certs(shell.journal());
  ASSERT_EQ(certs.size(), 1u);
  EXPECT_EQ(certs[0].verdict, CertVerdict::kWithinBound);
  EXPECT_LE(certs[0].actual_fetches,
            static_cast<uint64_t>(certs[0].static_bound));
  EXPECT_TRUE(VerifyCertificate(certs[0]));

  // Now trip the governor: one fetch is never enough for this query.
  must("limit fetch=1");
  std::string out = must(eval);
  EXPECT_NE(out.find("tripped"), std::string::npos);
  certs = Certs(shell.journal());
  ASSERT_EQ(certs.size(), 2u);
  EXPECT_EQ(certs[1].verdict, CertVerdict::kTripped);
  EXPECT_TRUE(certs[1].tripped);
  EXPECT_FALSE(certs[1].trip_reason.empty());
  EXPECT_TRUE(VerifyCertificate(certs[1]));

  // journal / certify render both certificates.
  std::string journal_out = must("journal");
  EXPECT_NE(journal_out.find("2 certificate(s)"), std::string::npos);
  EXPECT_NE(journal_out.find("within-bound"), std::string::npos);
  EXPECT_NE(journal_out.find("tripped"), std::string::npos);
  std::string certify_out = must("certify");
  EXPECT_NE(certify_out.find("2/2 certificates verify"), std::string::npos);

  // The session's recorder saw the required distinct event kinds.
  std::set<EventKind> kinds;
  for (const FlightEvent& e : shell.recorder().events()) kinds.insert(e.kind);
  EXPECT_TRUE(kinds.count(EventKind::kShellCommand));
  EXPECT_TRUE(kinds.count(EventKind::kQueryStart));
  EXPECT_TRUE(kinds.count(EventKind::kQueryFinish));
  EXPECT_TRUE(kinds.count(EventKind::kPlan));
  EXPECT_TRUE(kinds.count(EventKind::kCertificate));
  EXPECT_TRUE(kinds.count(EventKind::kGovernorTrip));
  EXPECT_GE(kinds.size(), 6u);

  // dump writes the joined document.
  const std::string path = "test_shell_dump.json";
  std::remove(path.c_str());
  must("dump " + std::string(path));
  std::string dump = ReadFile(path);
  EXPECT_NE(dump.find("\"reason\":\"manual\""), std::string::npos);
  EXPECT_NE(dump.find("\"certificates\":["), std::string::npos);
  EXPECT_NE(dump.find("governor-trip"), std::string::npos);
  std::remove(path.c_str());
}

/// A dump whose tripped verdict was hand-edited to within-bound must not
/// read as genuine: certify lists the record as SIGNATURE-MISMATCH, keeps it
/// out of the rankings and violations, and fails with DataLoss.
TEST(ShellObservabilityTest, CertifyReportRanksOnlySealedRecords) {
  const std::string path = "test_forged_dump.json";
  std::string forged_qid;
  {
    Shell shell;
    for (const char* line :
         {"schema relation person(id, name, city)",
          "schema relation friend(id1, id2)", "access access friend(id1) N=50",
          "access key person(id)", "row person 1,\"ada\",\"NYC\"",
          "row person 2,\"bob\",\"NYC\"", "row friend 1,2"}) {
      ASSERT_TRUE(shell.Execute(line).ok()) << line;
    }
    const std::string eval =
        "eval p=1 Q(p, name) := exists id. friend(p, id) and person(id, "
        "name, \"NYC\")";
    ASSERT_TRUE(shell.Execute(eval).ok());
    ASSERT_TRUE(shell.Execute("limit fetch=1").ok());
    ASSERT_TRUE(shell.Execute(eval).ok());
    std::vector<AccessCertificate> certs = Certs(shell.journal());
    ASSERT_EQ(certs.size(), 2u);
    ASSERT_EQ(certs[1].verdict, CertVerdict::kTripped);
    forged_qid = certs[1].query_id;
    ASSERT_TRUE(shell.Execute("dump " + path).ok());
  }
  std::string text = ReadFile(path);
  const size_t pos = text.find("\"verdict\":\"tripped\"");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 19, "\"verdict\":\"within-bound\"");
  { std::ofstream(path, std::ios::trunc) << text; }

  Shell reader;
  Result<std::string> out = reader.Execute("certify " + path);
  std::remove(path.c_str());
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kDataLoss);
  const std::string& report = out.status().message();
  EXPECT_NE(report.find("1/2 certificates failed seal verification"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("within-bound SIGNATURE-MISMATCH"), std::string::npos)
      << report;
  EXPECT_NE(report.find("1/2 certificates verify"), std::string::npos);
  const size_t rankings = report.find("== top queries by fetches");
  ASSERT_NE(rankings, std::string::npos) << report;
  EXPECT_EQ(report.find(forged_qid, rankings), std::string::npos) << report;
  EXPECT_NE(report.find("== certificate violations ==\n  none"),
            std::string::npos)
      << report;
  // The recorder section still renders: the genuine trip stays on the
  // timeline even though its certificate no longer verifies.
  EXPECT_NE(report.find("== trip timeline ==\n  +"), std::string::npos)
      << report;
}

TEST(ShellObservabilityTest, StatsWatchLifecycle) {
  const std::string path = "test_stats_watch.jsonl";
  std::remove(path.c_str());
  Shell shell;
  std::string off = *shell.Execute("stats watch off");
  EXPECT_NE(off.find("not running"), std::string::npos);
  std::string on = *shell.Execute("stats watch 3600 " + path);
  EXPECT_NE(on.find("watching"), std::string::npos);
  std::string stopped = *shell.Execute("stats watch off");
  EXPECT_NE(stopped.find("stopped"), std::string::npos);
  EXPECT_FALSE(ReadFile(path).empty());  // first snapshot was synchronous
  std::remove(path.c_str());
  EXPECT_FALSE(shell.Execute("stats watch -1").ok());
}

TEST(ShellObservabilityTest, ExplainQdsiAndAnalyzeRenderSpans) {
  Shell shell;
  auto must = [&shell](std::string_view line) {
    Result<std::string> out = shell.Execute(line);
    SI_CHECK_MSG(out.ok(), out.status().message().c_str());
    return *out;
  };
  must("schema relation friend(id1, id2)");
  must("access access friend(id1) N=50");
  must("row friend 1,2");
  std::string qdsi = must("explain qdsi 5 Q(x) :- friend(x, y)");
  EXPECT_NE(qdsi.find("spans:"), std::string::npos);
  EXPECT_NE(qdsi.find("qdsi.decide"), std::string::npos);
  EXPECT_NE(qdsi.find("verdict="), std::string::npos);
  EXPECT_NE(qdsi.find("work:"), std::string::npos);
  std::string analyze =
      must("explain analyze Q(x, y) := friend(x, y)");
  EXPECT_NE(analyze.find("controlled by {x}"), std::string::npos);
  EXPECT_NE(analyze.find("controllability.analyze"), std::string::npos);
}

}  // namespace
}  // namespace scalein::obs
