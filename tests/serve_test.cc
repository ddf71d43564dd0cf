// Tests for the multi-session serve layer: the pure admission decision
// function, session envelope accounting, the wire framing, and the Server
// itself — including the determinism contract (byte-identical admission
// transcripts across thread counts for a fixed arrival script) and the
// certify round-trip for journaled refusal verdicts — and the TCP port on its
// loopback listener: failpoint blast radius and connection-thread reaping.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/governor.h"
#include "io/shell.h"
#include "loopback_client.h"
#include "serve/admission.h"
#include "serve/message.h"
#include "serve/metrics_http.h"
#include "serve/port.h"
#include "serve/server.h"
#include "serve/session.h"
#include "util/failpoint.h"
#include "util/strings.h"

namespace scalein::serve {
namespace {

// ---------------------------------------------------------------------------
// DecideAdmission: the pure decision function.

SlaConfig BaseSla() {
  SlaConfig sla;
  sla.session_fetch_budget = 1000;
  sla.degrade_floor = 16;
  sla.queue_capacity = 4;
  sla.queue_class_capacity = 2;
  sla.queue_timeout_ms = 10;
  sla.max_running = 2;
  return sla;
}

AdmissionInput Arriving(double bound, uint64_t remaining) {
  AdmissionInput in;
  in.static_bound = bound;
  in.budget_remaining = remaining;
  return in;
}

TEST(DecideAdmissionTest, AdmitsWhenBoundFitsAndSlotFree) {
  AdmissionDecision d = DecideAdmission(Arriving(50, 1000), BaseSla());
  EXPECT_EQ(d.action, AdmitAction::kAdmit);
  EXPECT_EQ(d.sub_budget, 50u);
  EXPECT_EQ(d.reject, RejectReason::kNone);
}

TEST(DecideAdmissionTest, FractionalBoundRoundsUp) {
  AdmissionDecision d = DecideAdmission(Arriving(49.2, 1000), BaseSla());
  EXPECT_EQ(d.action, AdmitAction::kAdmit);
  EXPECT_EQ(d.sub_budget, 50u);
}

// The GovernorLimits footgun the controller must dodge: fetch_budget=0 means
// *disabled*, so a zero-bound query admitted from a finite envelope must get
// a sub-budget of at least 1 — never an accidentally-unlimited run.
TEST(DecideAdmissionTest, ZeroBoundClampsSubBudgetToOne) {
  AdmissionDecision d = DecideAdmission(Arriving(0, 1000), BaseSla());
  EXPECT_EQ(d.action, AdmitAction::kAdmit);
  EXPECT_EQ(d.sub_budget, 1u);
}

TEST(DecideAdmissionTest, UnlimitedEnvelopeRunsUnbudgeted) {
  AdmissionInput in = Arriving(1e9, 0);
  in.budget_unlimited = true;
  AdmissionDecision d = DecideAdmission(in, BaseSla());
  EXPECT_EQ(d.action, AdmitAction::kAdmit);
  EXPECT_EQ(d.sub_budget, 0u);  // 0 = no fetch budget armed
}

TEST(DecideAdmissionTest, NoStaticBoundRejects) {
  AdmissionDecision d = DecideAdmission(Arriving(-1, 1000), BaseSla());
  EXPECT_EQ(d.action, AdmitAction::kReject);
  EXPECT_EQ(d.reject, RejectReason::kNoStaticBound);
  EXPECT_EQ(d.retry_after_ms, 0u);  // retrying an unprovable query is futile
}

TEST(DecideAdmissionTest, DrainingRejectsBeforeAnythingElse) {
  AdmissionInput in = Arriving(1, 1000);
  in.draining = true;
  AdmissionDecision d = DecideAdmission(in, BaseSla());
  EXPECT_EQ(d.action, AdmitAction::kReject);
  EXPECT_EQ(d.reject, RejectReason::kDraining);
}

TEST(DecideAdmissionTest, OverBudgetDegradesToRemaining) {
  AdmissionDecision d = DecideAdmission(Arriving(5000, 200), BaseSla());
  EXPECT_EQ(d.action, AdmitAction::kDegrade);
  EXPECT_EQ(d.sub_budget, 200u);  // sound reduced sub-budget
}

TEST(DecideAdmissionTest, BelowDegradeFloorRejectsBudgetExhausted) {
  AdmissionDecision d = DecideAdmission(Arriving(5000, 15), BaseSla());
  EXPECT_EQ(d.action, AdmitAction::kReject);
  EXPECT_EQ(d.reject, RejectReason::kBudgetExhausted);
}

TEST(DecideAdmissionTest, DegradeDisabledRejectsInstead) {
  SlaConfig sla = BaseSla();
  sla.allow_degrade = false;
  AdmissionDecision d = DecideAdmission(Arriving(5000, 200), sla);
  EXPECT_EQ(d.action, AdmitAction::kReject);
  EXPECT_EQ(d.reject, RejectReason::kBudgetExhausted);
}

// Degraded runs are subject to the same run slots as full admits — overload
// must not leak unbounded concurrency through the degrade path.
TEST(DecideAdmissionTest, DegradeAlsoWaitsForRunSlot) {
  AdmissionInput in = Arriving(5000, 200);
  in.running = 2;  // == max_running
  AdmissionDecision d = DecideAdmission(in, BaseSla());
  EXPECT_EQ(d.action, AdmitAction::kQueue);
}

// ...but a query the budget provably cannot cover sheds without ever
// holding a queue slot, with a retry hint since in-flight refunds may help.
TEST(DecideAdmissionTest, UnservableBoundRejectsWithoutQueueing) {
  AdmissionInput in = Arriving(5000, 10);  // below degrade floor
  in.running = 2;
  AdmissionDecision d = DecideAdmission(in, BaseSla());
  EXPECT_EQ(d.action, AdmitAction::kReject);
  EXPECT_EQ(d.reject, RejectReason::kBudgetExhausted);
  EXPECT_GT(d.retry_after_ms, 0u);
}

TEST(DecideAdmissionTest, BusySlotsQueueAndFullQueueRejects) {
  AdmissionInput in = Arriving(50, 1000);
  in.running = 2;  // == max_running
  AdmissionDecision queued = DecideAdmission(in, BaseSla());
  EXPECT_EQ(queued.action, AdmitAction::kQueue);

  in.queued_total = 4;  // == queue_capacity
  AdmissionDecision shed = DecideAdmission(in, BaseSla());
  EXPECT_EQ(shed.action, AdmitAction::kReject);
  EXPECT_EQ(shed.reject, RejectReason::kQueueFull);
  EXPECT_GT(shed.retry_after_ms, 0u);  // backpressure hint scales with depth
}

TEST(DecideAdmissionTest, ClassShareFullRejectsEvenWithGlobalRoom) {
  AdmissionInput in = Arriving(50, 1000);
  in.running = 2;
  in.queued_total = 2;     // global FIFO has room...
  in.queued_in_class = 2;  // ...but this bound-class's share is spent
  AdmissionDecision d = DecideAdmission(in, BaseSla());
  EXPECT_EQ(d.action, AdmitAction::kReject);
  EXPECT_EQ(d.reject, RejectReason::kQueueClassFull);
}

TEST(DecideAdmissionTest, IsDeterministic) {
  AdmissionInput in = Arriving(123.7, 456);
  in.running = 1;
  in.queued_total = 1;
  AdmissionDecision a = DecideAdmission(in, BaseSla());
  AdmissionDecision b = DecideAdmission(in, BaseSla());
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_EQ(a.action, b.action);
  EXPECT_EQ(a.sub_budget, b.sub_budget);
}

TEST(ClassifyBoundTest, BucketsByMagnitude) {
  EXPECT_EQ(ClassifyBound(1), BoundClass::kSmall);
  EXPECT_EQ(ClassifyBound(100), BoundClass::kSmall);
  EXPECT_EQ(ClassifyBound(101), BoundClass::kMedium);
  EXPECT_EQ(ClassifyBound(10000), BoundClass::kMedium);
  EXPECT_EQ(ClassifyBound(10001), BoundClass::kLarge);
  EXPECT_EQ(ClassifyBound(1e6), BoundClass::kLarge);
  EXPECT_EQ(ClassifyBound(1e7), BoundClass::kHuge);
  EXPECT_EQ(ClassifyBound(-1), BoundClass::kHuge);  // unbounded
}

// ---------------------------------------------------------------------------
// SessionEnvelope accounting.

TEST(SessionEnvelopeTest, ReserveRefundRoundTrip) {
  SessionEnvelope env("s", 7, /*lease=*/100, /*ledger=*/nullptr);
  EXPECT_FALSE(env.unlimited());
  EXPECT_EQ(env.lease(), 100u);
  EXPECT_TRUE(env.Reserve(60));
  EXPECT_EQ(env.remaining(), 40u);
  EXPECT_EQ(env.reserved_inflight(), 60u);
  EXPECT_FALSE(env.Reserve(41));  // over-reserve refused
  env.Refund(/*reserved=*/60, /*spent=*/25);  // unspent 35 comes back
  EXPECT_EQ(env.remaining(), 75u);
  EXPECT_EQ(env.reserved_inflight(), 0u);
  env.Reserve(10);
  env.Refund(10, 99);  // overspend (tripped past budget probe) clamps to 0
  EXPECT_EQ(env.remaining(), 65u);
}

TEST(SessionEnvelopeTest, ZeroLeaseIsUnlimited) {
  SessionEnvelope env("s", 7, 0, nullptr);
  EXPECT_TRUE(env.unlimited());
  EXPECT_TRUE(env.Reserve(1ULL << 40));
  exec::GovernorLimits limits = env.LimitsFor(0, SlaConfig{});
  EXPECT_EQ(limits.fetch_budget, 0u);  // unbudgeted, but...
  EXPECT_TRUE(limits.has_cancel);      // ...still preemptible
}

TEST(SessionEnvelopeTest, LeaseCarvedFromLedgerAndReleasedOnClose) {
  exec::SharedLedger ledger;
  ledger.Init(150, 0);  // capacity exactly 150
  {
    SessionEnvelope a("a", 1, 100, &ledger);
    EXPECT_EQ(a.lease(), 100u);
    SessionEnvelope b("b", 2, 100, &ledger);
    EXPECT_EQ(b.lease(), 50u);  // partial: capacity bounds the sum of leases
    SessionEnvelope c("c", 3, 100, &ledger);
    EXPECT_EQ(c.lease(), 0u);
  }
  // Envelope destruction returns the leases: a new session gets a full cut.
  SessionEnvelope d("d", 4, 100, &ledger);
  EXPECT_EQ(d.lease(), 100u);
}

TEST(SessionEnvelopeTest, PreemptFlipsSharedToken) {
  SessionEnvelope env("s", 7, 100, nullptr);
  exec::GovernorLimits limits = env.LimitsFor(10, SlaConfig{});
  exec::ResourceGovernor governor;
  governor.Arm(limits);
  EXPECT_TRUE(governor.Checkpoint());
  env.Preempt();  // the copy in `limits` shares the envelope's flag
  bool tripped = false;
  for (uint32_t i = 0;
       i <= exec::ResourceGovernor::kCheckInterval && !tripped; ++i) {
    tripped = !governor.Checkpoint();
  }
  EXPECT_TRUE(tripped);
  EXPECT_EQ(governor.trip().kind, exec::LimitKind::kCancelled);
}

// ---------------------------------------------------------------------------
// Wire framing.

TEST(FrameTest, EncodeDecodeRoundTripAcrossChunks) {
  const std::string frames = EncodeFrame(true, "hello\nworld\n") +
                             EncodeFrame(false, "not-found: nope\n") +
                             EncodeFrame(true, "");
  FrameDecoder decoder;
  // Feed byte-by-byte: the decoder must reassemble across arbitrary chunking.
  for (char c : frames) decoder.Feed(std::string_view(&c, 1));
  bool ok = false;
  std::string payload;
  ASSERT_TRUE(decoder.Next(&ok, &payload));
  EXPECT_TRUE(ok);
  EXPECT_EQ(payload, "hello\nworld\n");
  ASSERT_TRUE(decoder.Next(&ok, &payload));
  EXPECT_FALSE(ok);
  EXPECT_EQ(payload, "not-found: nope\n");
  ASSERT_TRUE(decoder.Next(&ok, &payload));
  EXPECT_TRUE(ok);
  EXPECT_EQ(payload, "");
  EXPECT_FALSE(decoder.Next(&ok, &payload));
}

TEST(FrameTest, CorruptPrefixSurfacesAsErrorFrame) {
  FrameDecoder decoder;
  decoder.Feed("garbage\n");
  bool ok = true;
  std::string payload;
  ASSERT_TRUE(decoder.Next(&ok, &payload));
  EXPECT_FALSE(ok);
  EXPECT_NE(payload.find("frame error"), std::string::npos);
}

TEST(FrameTest, OverflowingLengthIsAFrameErrorAndZeroIsEmpty) {
  bool ok = false;
  std::string payload = "x";
  FrameDecoder empty;
  empty.Feed("+0\n");
  ASSERT_TRUE(empty.Next(&ok, &payload));
  EXPECT_TRUE(ok);
  EXPECT_EQ(payload, "");
  // One past 2^64-1 used to wrap to a small length and mis-frame the stream.
  FrameDecoder decoder;
  decoder.Feed("+18446744073709551616\nabc");
  ASSERT_TRUE(decoder.Next(&ok, &payload));
  EXPECT_FALSE(ok);
  EXPECT_NE(payload.find("frame error"), std::string::npos) << payload;
  EXPECT_FALSE(decoder.Next(&ok, &payload));
}

// ---------------------------------------------------------------------------
// Server: scripted end-to-end, determinism, preemption, refusal certify.

void LoadCatalog(Shell* shell) {
  const char* kCatalog[] = {
      "schema relation person(id, name, city)",
      "schema relation friend(id1, id2)",
      "schema relation secret(a, b)",
      "access access friend(id1) N=50",
      "access key person(id)",
      "row person 1,\"ada\",\"NYC\"",
      "row person 2,\"bob\",\"NYC\"",
      "row person 3,\"cyd\",\"NYC\"",
      "row friend 1,2",
      "row friend 1,3",
      "row secret 1,2",
  };
  for (const char* line : kCatalog) {
    Result<std::string> out = shell->Execute(line);
    ASSERT_TRUE(out.ok()) << line << ": " << out.status().ToString();
  }
}

constexpr const char* kFriendEval =
    "eval p=1 Q(p, name) := exists id. friend(p, id) and person(id, name, "
    "\"NYC\")";
constexpr const char* kSecretEval = "eval a=1 S(a, b) := secret(a, b)";

std::string MustLine(Server* server, const std::string& sid,
                     std::string_view line) {
  Result<std::string> out = server->HandleLine(sid, line);
  EXPECT_TRUE(out.ok()) << line << ": " << out.status().ToString();
  return out.ok() ? *out : std::string();
}

TEST(ServerTest, AdmitsEvaluatesAndAccountsBudget) {
  Shell shell;
  LoadCatalog(&shell);
  Server::Options options;
  options.sla.session_fetch_budget = 120;
  Server server(&shell, options);
  ASSERT_TRUE(server.Start().ok());
  std::string open = MustLine(&server, "a", "hello");
  EXPECT_NE(open.find("budget=120"), std::string::npos);
  std::string resp = MustLine(&server, "a", kFriendEval);
  EXPECT_NE(resp.find("admit bound=100 lease=100"), std::string::npos);
  EXPECT_NE(resp.find("2 answers"), std::string::npos);
  // Only the 4 actually-fetched tuples stay charged; the rest refunds.
  std::string budget = MustLine(&server, "a", "budget");
  EXPECT_NE(budget.find("remaining=116"), std::string::npos) << budget;
}

// Served queries journal their latency next to the sealed certificate, so
// the certify report ranks them in its slowest section.
TEST(ServerTest, CertifyReportsServedQueriesAmongTheSlowest) {
  Shell shell;
  LoadCatalog(&shell);
  Server server(&shell, Server::Options());
  ASSERT_TRUE(server.Start().ok());
  MustLine(&server, "a", "hello");
  MustLine(&server, "a", kFriendEval);
  MustLine(&server, "a", kFriendEval);
  const std::string report = MustLine(&server, "a", "certify");
  const size_t slowest = report.find("== slowest queries");
  ASSERT_NE(slowest, std::string::npos) << report;
  const std::vector<obs::JournalEntry> entries = shell.journal().entries();
  ASSERT_EQ(entries.size(), 2u);
  for (const obs::JournalEntry& e : entries) {
    ASSERT_GE(e.latency_ms, 0.0);
    EXPECT_NE(report.find(e.cert.query_id + "  " +
                              StrFormat("%.3f ms", e.latency_ms),
                          slowest),
              std::string::npos)
        << report;
  }
}

// An integer outside int64 — in a binding or a query literal — is an error
// reply on that line; it used to abort the process for every session.
TEST(ServerTest, OversizedIntegerIsAnErrorReplyAndTheSessionKeepsServing) {
  Shell shell;
  LoadCatalog(&shell);
  Server server(&shell, Server::Options());
  ASSERT_TRUE(server.Start().ok());
  MustLine(&server, "a", "hello");
  for (const char* line :
       {"eval p=99999999999999999999 F(p, id) := friend(p, id)",
        "eval p=1 F(p) := friend(p, 99999999999999999999)"}) {
    Result<std::string> refused = server.HandleLine("a", line);
    ASSERT_FALSE(refused.ok()) << line;
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument) << line;
  }
  std::string next = MustLine(&server, "a", kFriendEval);
  EXPECT_NE(next.find("2 answers"), std::string::npos) << next;
}

TEST(ServerTest, RefusalVerdictsAreJournaledAndCertifiable) {
  const std::string jpath =
      ::testing::TempDir() + "serve_refusals.jsonl";
  std::error_code ec;
  std::filesystem::remove(jpath, ec);
  ::setenv("SCALEIN_JOURNAL_PATH", jpath.c_str(), 1);
  Shell shell;
  ::unsetenv("SCALEIN_JOURNAL_PATH");
  LoadCatalog(&shell);
  Server::Options options;
  options.sla.session_fetch_budget = 8;  // below degrade floor
  Server server(&shell, options);
  ASSERT_TRUE(server.Start().ok());
  MustLine(&server, "a", "hello");
  // Non-controllable: no static bound to admit against.
  std::string r1 = MustLine(&server, "a", kSecretEval);
  EXPECT_NE(r1.find("reject(no-static-bound)"), std::string::npos) << r1;
  // Controllable but the bound exceeds a lease too small to degrade into.
  std::string r2 = MustLine(&server, "a", kFriendEval);
  EXPECT_NE(r2.find("reject(budget)"), std::string::npos) << r2;
  // Both refusals sealed into the journal; certify verifies the seals.
  std::string certify = MustLine(&server, "a", "certify");
  EXPECT_NE(certify.find("2/2 certificates verify"), std::string::npos)
      << certify;
  EXPECT_NE(certify.find("tripped"), std::string::npos);
  std::filesystem::remove(jpath, ec);
}

TEST(ServerTest, QueueTimeoutShedsAndSlotReleaseReadmits) {
  Shell shell;
  LoadCatalog(&shell);
  Server::Options options;
  options.scripted = true;
  options.sla.queue_timeout_ms = 20;
  options.sla.max_running = 1;
  Server server(&shell, options);
  ASSERT_TRUE(server.Start().ok());
  MustLine(&server, "a", "hello");
  MustLine(&server, "a", "#busy 1");  // occupy the only run slot
  std::string shed = MustLine(&server, "a", kFriendEval);
  EXPECT_NE(shed.find("reject(queue-timeout)"), std::string::npos) << shed;
  EXPECT_NE(shed.find("retry-after=20ms"), std::string::npos) << shed;
  MustLine(&server, "a", "#busy 0");
  // The directive's count is a checked decimal: bare or overflowing is a
  // usage error, not a wrapped slot count.
  for (const char* bad : {"#busy", "#busy 18446744073709551616"}) {
    Result<std::string> refused = server.HandleLine("a", bad);
    ASSERT_FALSE(refused.ok()) << bad;
    EXPECT_NE(refused.status().message().find("usage: #busy"),
              std::string::npos);
  }
  std::string ok = MustLine(&server, "a", kFriendEval);
  EXPECT_NE(ok.find("admit"), std::string::npos) << ok;
  EXPECT_EQ(server.queue_depth(), 0u);
}

// The determinism acceptance criterion: one fixed arrival script, replayed
// at different engine thread counts, must produce byte-identical admission
// transcripts (SCALEIN_SESSION_ID pins the session fingerprint half of the
// QueryIds; answer sets are canonically ordered already).
TEST(ServerTest, ScriptedTranscriptIsByteIdenticalAcrossThreadCounts) {
  ::setenv("SCALEIN_SESSION_ID", "serve-determinism", 1);
  auto run = [](unsigned threads) {
    ::setenv("SCALEIN_THREADS", std::to_string(threads).c_str(), 1);
    Shell shell;
    LoadCatalog(&shell);
    Server::Options options;
    options.scripted = true;
    options.sla.session_fetch_budget = 150;
    options.sla.queue_timeout_ms = 5;
    options.sla.max_running = 1;
    Server server(&shell, options);
    EXPECT_TRUE(server.Start().ok());
    const char* kScript[][2] = {
        {"a", "hello"},        {"b", "hello"},
        {"a", kFriendEval},    {"b", kFriendEval},
        {"a", kSecretEval},    // reject: no static bound
        {"a", kFriendEval},    // admit: refunds keep the lease alive
        {"a", "#busy 1"},      {"b", kFriendEval},  // queue-timeout shed
        {"a", "#busy 0"},      {"a", "budget"},
        {"b", "budget"},       {"a", "bye"},
        {"b", "bye"},
    };
    std::string transcript;
    for (const auto& step : kScript) {
      Result<std::string> out = server.HandleLine(step[0], step[1]);
      transcript += out.ok() ? *out : "error: " + out.status().ToString();
    }
    server.Drain();
    ::unsetenv("SCALEIN_THREADS");
    return transcript;
  };
  const std::string at1 = run(1);
  const std::string at4 = run(4);
  ::unsetenv("SCALEIN_SESSION_ID");
  EXPECT_EQ(at1, at4);
  EXPECT_NE(at1.find("reject(no-static-bound)"), std::string::npos);
  EXPECT_NE(at1.find("reject(queue-timeout)"), std::string::npos);
}

TEST(ServerTest, DrainPreemptsAndRefusesNewWork) {
  Shell shell;
  LoadCatalog(&shell);
  Server server(&shell, Server::Options{});
  ASSERT_TRUE(server.Start().ok());
  MustLine(&server, "a", "hello");
  server.Drain();
  EXPECT_TRUE(server.draining());
  std::string shed = MustLine(&server, "a", kFriendEval);
  EXPECT_NE(shed.find("reject(draining)"), std::string::npos) << shed;
  Result<std::string> reopened = server.HandleLine("z", "hello");
  EXPECT_FALSE(reopened.ok());
  server.Drain();  // idempotent
}

TEST(ServerTest, EvalBeforeHelloIsRefused) {
  Shell shell;
  LoadCatalog(&shell);
  Server server(&shell, Server::Options{});
  ASSERT_TRUE(server.Start().ok());
  Result<std::string> out = server.HandleLine("ghost", kFriendEval);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ServerTest, ConcurrentSessionsEvaluateSafely) {
  Shell shell;
  LoadCatalog(&shell);
  Server::Options options;
  options.sla.max_running = 4;
  Server server(&shell, options);
  ASSERT_TRUE(server.Start().ok());
  constexpr int kSessions = 4;
  constexpr int kQueriesEach = 8;
  std::vector<std::thread> clients;
  std::vector<int> answers(kSessions, 0);
  for (int s = 0; s < kSessions; ++s) {
    clients.emplace_back([&server, &answers, s] {
      const std::string sid = "c" + std::to_string(s);
      (void)server.HandleLine(sid, "hello");
      for (int q = 0; q < kQueriesEach; ++q) {
        Result<std::string> out = server.HandleLine(sid, kFriendEval);
        if (out.ok() && out->find("2 answers") != std::string::npos) {
          ++answers[s];
        }
      }
      (void)server.HandleLine(sid, "bye");
    });
  }
  for (std::thread& t : clients) t.join();
  for (int s = 0; s < kSessions; ++s) {
    EXPECT_EQ(answers[s], kQueriesEach) << "session " << s;
  }
  EXPECT_EQ(server.session_count(), 0u);
  EXPECT_EQ(server.running(), 0u);
}

// ---------------------------------------------------------------------------
// Port: a real loopback TCP round-trip.

TEST(PortTest, TcpRoundTripThroughFrames) {
  Shell shell;
  LoadCatalog(&shell);
  Server server(&shell, Server::Options{});
  ASSERT_TRUE(server.Start().ok());
  Port port(&server, Port::Options{});
  Status listening = port.Listen();
  if (!listening.ok()) {
    GTEST_SKIP() << "cannot bind loopback: " << listening.ToString();
  }
  const std::vector<std::pair<bool, std::string>> frames = PortExchange(
      port.port(), std::string("hello\n") + kFriendEval + "\nnonsense\nbye\n");
  port.Shutdown();
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_TRUE(frames[0].first);  // hello
  EXPECT_NE(frames[0].second.find("session"), std::string::npos);
  EXPECT_TRUE(frames[1].first);  // eval
  EXPECT_NE(frames[1].second.find("2 answers"), std::string::npos);
  EXPECT_FALSE(frames[2].first);  // protocol error travels as '-'
  EXPECT_NE(frames[2].second.find("invalid-argument"), std::string::npos);
  EXPECT_TRUE(frames[3].first);  // bye
  EXPECT_EQ(port.accepted(), 1u);
}

/// Disarms every failpoint on scope exit. Declared before the port, so Clear
/// runs after the port joined the threads that hit the site and
/// Configure/Clear never overlap a hit (failpoint.h).
struct FailpointGuard {
  ~FailpointGuard() { util::Failpoints::Global().Clear(); }
};

/// The blast-radius contract of a Port failpoint `site`: its first hit in
/// the first connection fires, so that connection closes unserved and counts
/// serve.io_faults, and the next connection is served. Every fourth hit
/// fires and three are taken here, so the served connection's few hits stay
/// clear of the next fire.
void ExpectFaultDropsOnlyThatConnection(const char* site,
                                        uint64_t accepted_after) {
  Shell shell;
  LoadCatalog(&shell);
  Server server(&shell, Server::Options{});
  ASSERT_TRUE(server.Start().ok());
  FailpointGuard guard;
  util::Failpoints& failpoints = util::Failpoints::Global();
  ASSERT_TRUE(
      failpoints.Configure(std::string(site) + "=error(every:4)").ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(failpoints.Hit(site).ok());
  Port port(&server, Port::Options{});
  Status listening = port.Listen();
  if (!listening.ok()) {
    GTEST_SKIP() << "cannot bind loopback: " << listening.ToString();
  }
  EXPECT_TRUE(PortExchange(port.port(), "hello\nbye\n").empty());
  // Blast radius: the server keeps serving fresh connections afterwards.
  const std::vector<std::pair<bool, std::string>> frames =
      PortExchange(port.port(), "hello\nbye\n");
  port.Shutdown();
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_TRUE(frames[0].first);
  EXPECT_NE(frames[0].second.find("session"), std::string::npos);
  EXPECT_EQ(port.accepted(), accepted_after);
  EXPECT_EQ(server.shell_metrics()->GetCounter("serve.io_faults").value(), 1u);
  EXPECT_EQ(failpoints.fires(), 1u);
}

TEST(PortTest, AcceptFailpointDropsConnectionNotServer) {
  // Faulted connections are not counted as accepted — they are io_faults.
  ExpectFaultDropsOnlyThatConnection("serve_accept", 1);
}

TEST(PortTest, ReadFailpointDropsConnectionNotServer) {
  ExpectFaultDropsOnlyThatConnection("serve_read", 2);
}

TEST(PortTest, WriteFailpointDropsConnectionNotServer) {
  ExpectFaultDropsOnlyThatConnection("serve_write", 2);
}

// ---------------------------------------------------------------------------
// Listener: finished connection threads are joined while serving.

/// Lines of /proc/self/maps; 0 when it cannot be read. A thread stack the C
/// library keeps for an unjoined thread is a mapping plus its guard page.
size_t MappingCount() {
  std::ifstream maps("/proc/self/maps");
  return static_cast<size_t>(std::count(std::istreambuf_iterator<char>(maps),
                                        std::istreambuf_iterator<char>(),
                                        '\n'));
}

TEST(ListenerTest, FinishedConnectionThreadsAreReaped) {
  if (MappingCount() == 0) GTEST_SKIP() << "no /proc/self/maps";
  Shell shell;
  LoadCatalog(&shell);
  Server server(&shell, Server::Options{});
  ASSERT_TRUE(server.Start().ok());
  Port port(&server, Port::Options{});
  MetricsHttp http(server.shell_metrics(), nullptr, MetricsHttp::Options{});
  if (!port.Listen().ok() || !http.Listen().ok()) {
    GTEST_SKIP() << "cannot bind loopback";
  }
  auto churn = [&port, &http](int connections) {
    for (int i = 0; i < connections; ++i) {
      EXPECT_EQ(PortExchange(port.port(), "hello\nbye\n").size(), 2u);
      EXPECT_NE(HttpGet(http.port(), "/healthz").find("200 OK"),
                std::string::npos);
    }
  };
  constexpr int kWarmup = 8;  // first-use mappings (malloc arenas) settle
  churn(kWarmup);
  const size_t before = MappingCount();
  constexpr int kConnections = 200;
  churn(kConnections);
  const size_t after = MappingCount();
  // Keeping every finished thread until Shutdown would hold one stack (two
  // mappings) per connection: 4 * kConnections more lines across both doors.
  EXPECT_LT(after, before + kConnections / 4)
      << "mappings " << before << " -> " << after;
  EXPECT_EQ(port.accepted(), static_cast<uint64_t>(kWarmup + kConnections));
  EXPECT_EQ(http.scrapes(), static_cast<uint64_t>(kWarmup + kConnections));
}

TEST(ListenerTest, ShutdownEndsLiveConnectionsWhileOthersChurn) {
  Shell shell;
  LoadCatalog(&shell);
  Server server(&shell, Server::Options{});
  ASSERT_TRUE(server.Start().ok());
  Port port(&server, Port::Options{});
  Status listening = port.Listen();
  if (!listening.ok()) {
    GTEST_SKIP() << "cannot bind loopback: " << listening.ToString();
  }
  // Held sessions: each has its hello answered and then idles in read.
  constexpr int kHeld = 4;
  std::vector<int> held;
  for (int i = 0; i < kHeld; ++i) {
    const int fd = DialLoopback(port.port());
    ASSERT_GE(fd, 0);
    held.push_back(fd);
    ASSERT_EQ(::send(fd, "hello\n", 6, MSG_NOSIGNAL), 6);
    char c;
    ASSERT_EQ(::recv(fd, &c, 1, 0), 1);  // the hello frame started arriving
  }
  // Concurrent churn: connection threads finish in any order while the
  // accept loop reaps them.
  constexpr int kClients = 4;
  constexpr int kEach = 25;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&port] {
      for (int i = 0; i < kEach; ++i) {
        EXPECT_EQ(PortExchange(port.port(), "hello\nbye\n").size(), 2u);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(server.session_count(), static_cast<size_t>(kHeld));
  // Shutdown wakes the idle reads, so their handlers close the sessions.
  port.Shutdown();
  for (int fd : held) {
    (void)ReadToEof(fd);
    ::close(fd);
  }
  EXPECT_EQ(server.session_count(), 0u);
  EXPECT_EQ(port.accepted(), static_cast<uint64_t>(kHeld + kClients * kEach));
}

}  // namespace
}  // namespace scalein::serve
