// The read workloads (point, fanout, cold_plans): the shipped server loads a
// generated catalog and is driven over loopback TCP.
#include <cerrno>
#include <cmath>
#include <cstring>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "bench.h"
#include "dataset.h"
#include "loops.h"
#include "serve/access_log.h"
#include "wire.h"

namespace perfbench {

namespace {

// Files of one server start. Each start gets its own logs: deleting a
// previous server's logs mid-run made later appends stall (ext4 discard).
struct Served {
  std::string catalog;
  std::string journal;
  std::string access_log;
  std::string stderr_path;

  Served(const std::string& run_dir, uint64_t rep)
      : catalog(run_dir + "/catalog.txt"),
        journal(run_dir + "/journal" + std::to_string(rep) + ".jsonl"),
        access_log(run_dir + "/access" + std::to_string(rep) + ".jsonl"),
        stderr_path(run_dir + "/server" + std::to_string(rep) + ".stderr") {}
};

std::vector<std::string> ServerEnv(const Served& s) {
  return {
      "SCALEIN_SERVE_PORT=0",
      "SCALEIN_METRICS_PORT=0",
      "SCALEIN_SESSION_ID=perfbench",
      "SCALEIN_THREADS=" + std::to_string(kServerThreads),
      "SCALEIN_SLA_MAX_RUNNING=" + std::to_string(kMaxRunning),
      "SCALEIN_SLA_SESSION_BUDGET=" + std::to_string(kSessionLease),
      "SCALEIN_JOURNAL_PATH=" + s.journal,
      "SCALEIN_JOURNAL_MAX_BYTES=" + std::to_string(kLogMaxBytes),
      "SCALEIN_ACCESS_LOG_PATH=" + s.access_log,
      "SCALEIN_ACCESS_LOG_MAX_BYTES=" + std::to_string(kLogMaxBytes),
  };
}

// Spawn -> listening -> session -> first answered request, in seconds.
double StartServer(const RunContext& ctx, const Served& s, const QueryMix& mix,
                   ServerProcess* server) {
  const double t0 = NowSec();
  server->Start(ctx.server_bin, s.catalog, ServerEnv(s), s.stderr_path,
                /*timeout_s=*/120.0);
  Conn conn;
  if (!conn.Connect(server->port())) {
    Die("cannot connect to the server on port " +
        std::to_string(server->port()) + ": " + std::strerror(errno));
  }
  bool ok = false;
  std::string payload;
  if (!Exchange(&conn, "hello", &ok, &payload, 30.0) || !ok) {
    Die("hello failed: " + payload);
  }
  scalein::Rng rng(ctx.seed);
  if (!Exchange(&conn, mix.Line(mix.Draw(&rng), ""), &ok, &payload, 30.0)) {
    Die("first request failed");
  }
  Response resp;
  if (!ParseResponse(ok, payload, &resp) || !resp.has_result) {
    Die("first request was not answered: " + payload.substr(0, 300));
  }
  const double elapsed = NowSec() - t0;
  (void)Exchange(&conn, "bye", &ok, &payload, 5.0);
  return elapsed;
}

LoadConfig LoadFor(uint16_t port) {
  LoadConfig cfg;
  cfg.port = port;
  cfg.connections = kConnections;
  cfg.reopen_every = kReopenEvery;
  cfg.timeout_s = kClientTimeoutS;
  return cfg;
}

// Latency percentiles of a loop, with failures as +inf; an infinite order
// statistic is reported as the client timeout (a failed request missed
// every limit the run could observe).
double LatencyAt(const LoopResult& r, double q, double timeout_ms) {
  const double v = Quantile(r.latency_ms, q);
  return std::isfinite(v) ? v : timeout_ms;
}

void PrintLoop(const char* name, const LoopResult& r, double timeout_ms) {
  const size_t n = r.latency_ms.size();
  std::printf(
      "%s: attempted=%llu answered=%llu failed=%llu (rejected=%llu "
      "shed=%llu degraded=%llu protocol=%llu timeouts=%llu lost=%llu) "
      "sessions=%llu p50_ms=%.4f p99_ms=%.4f n=%zu beyond_p99=%zu "
      "wall_s=%.2f\n",
      name, static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.answered),
      static_cast<unsigned long long>(r.failed()),
      static_cast<unsigned long long>(r.rejected),
      static_cast<unsigned long long>(r.shed),
      static_cast<unsigned long long>(r.degraded),
      static_cast<unsigned long long>(r.protocol_errors),
      static_cast<unsigned long long>(r.timeouts),
      static_cast<unsigned long long>(r.lost),
      static_cast<unsigned long long>(r.sessions),
      LatencyAt(r, 0.5, timeout_ms), LatencyAt(r, 0.99, timeout_ms), n,
      n / 100, r.wall_s);
  for (const std::string& note : r.notes) {
    std::printf("  %s: %s\n", name, note.c_str());
  }
}

double MedianWindowQps(const LoopResult& r, double seconds) {
  // Only whole one-second windows inside the measured interval.
  const size_t full = static_cast<size_t>(std::floor(seconds));
  std::vector<double> w(r.window_qps.begin(),
                        r.window_qps.begin() +
                            std::min(full, r.window_qps.size()));
  std::printf("closed loop completions per 1-s window:");
  for (double v : w) std::printf(" %.0f", v);
  std::printf("\n");
  if (w.empty()) return static_cast<double>(r.answered) / r.wall_s;
  return Median(w);
}

struct TracedJoin {
  std::vector<double> wire_ms, overhead_ms, queue_wait_ms, bytes_out;
  uint64_t unmatched = 0;
  uint64_t negative_wire = 0;
};

// Joins the client's RTT per @tag with the server's access-log record.
TracedJoin JoinAccessLog(const std::string& path,
                         const std::vector<std::pair<std::string, double>>&
                             tag_rtt) {
  scalein::serve::AccessLogLoadReport report;
  scalein::Result<std::vector<scalein::serve::AccessLogRecord>> recs =
      scalein::serve::LoadAccessLogRecords(path, &report);
  if (!recs.ok()) Die("access log: " + recs.status().ToString());
  std::map<std::string, const scalein::serve::AccessLogRecord*> by_tag;
  for (const auto& rec : *recs) {
    if (!rec.client_tag.empty()) by_tag[rec.client_tag] = &rec;
  }
  TracedJoin j;
  for (const auto& [tag, rtt] : tag_rtt) {
    auto it = by_tag.find(tag);
    if (it == by_tag.end()) {
      ++j.unmatched;
      continue;
    }
    const scalein::serve::AccessLogRecord& rec = *it->second;
    const double wire = rtt - rec.e2e_ms;
    // Identity: wire + server e2e == client RTT, and the server's interval
    // lies inside the client's, so the wire share cannot be negative.
    if (wire < 0) ++j.negative_wire;
    j.wire_ms.push_back(wire);
    j.overhead_ms.push_back(rec.e2e_ms - rec.exec_ms - rec.queue_wait_ms);
    j.queue_wait_ms.push_back(rec.queue_wait_ms);
    j.bytes_out.push_back(static_cast<double>(rec.bytes_out));
  }
  return j;
}

double Counter(const std::map<std::string, double>& m, const std::string& k) {
  auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

}  // namespace

RunOutput RunReadWorkload(const RunContext& ctx) {
  RunOutput out;
  const scalein::SocialConfig cfg = SocialConfigFor(ctx.seed);
  scalein::Database db = scalein::GenerateSocial(cfg);
  const std::string catalog =
      WriteCatalog(db, cfg, /*with_visits=*/false, ctx.run_dir);
  std::printf("data: %zu base tuples (%llu persons, friend cap %llu)\n",
              db.TotalTuples(),
              static_cast<unsigned long long>(cfg.num_persons),
              static_cast<unsigned long long>(cfg.max_friends_per_person));
  const WorkloadSpec& spec = ctx.spec;
  const QueryMix mix(spec.name, cfg);
  const Reference ref(&db, mix);
  const double timeout_ms = kClientTimeoutS * 1e3;
  // The open loop runs only as long as its figures need (rss_mb after load,
  // the generator's lateness); the closed loop, which gives qps and p50_ms,
  // gets the rest.
  const double open_s = std::min(kOpenSeconds, ctx.seconds / 2);
  const double closed_s = ctx.seconds - open_s;
  // Open-loop latency is summarised per window and the median over windows
  // printed, so one stall episode moves one window, not the run's figure.
  const size_t window_min =
      static_cast<size_t>(0.9 * spec.rate * spec.window_s);

  ServerProcess server;
  std::vector<double> setup;
  std::string status = "exit 0";  // first abnormal server exit, if any
  auto stop = [&] {
    const std::string st = server.Stop(30.0);
    if (st != "exit 0") {
      std::printf("server exit status: %s (pending requests counted "
                  "failed)\n", st.c_str());
      if (status == "exit 0") status = st;
    }
  };
  LoopResult warm, closed, open;
  // Caches fill before timing (set-up cost is reported apart). A fixed
  // request count, not a duration: the server's per-request work grows with
  // the requests it has served, so each phase starts from the same history.
  auto warm_up = [&] {
    LoopResult w = RunClosedLoop(LoadFor(server.port()), mix, ctx.seed + 1,
                                 /*seconds=*/60.0, kWarmupRequests);
    PrintLoop("warmup", w, timeout_ms);
    warm.Merge(std::move(w));
  };
  double rss = -1.0;
  std::map<std::string, double> scraped;
  std::vector<LoopResult> traced_parts;
  LoopResult untraced;  // the traced run's untraced closed loops
  std::vector<double> untraced_p50, traced_p50;
  if (!ctx.trace) {
    // Every set-up is timed; the last two servers then run one measured
    // phase each, both from a fresh server.
    static_assert(kSetupReps >= 2);
    for (uint64_t i = 0; i < kSetupReps; ++i) {
      if (i > 0) stop();
      setup.push_back(StartServer(ctx, Served(ctx.run_dir, i), mix, &server));
      LoadConfig load = LoadFor(server.port());
      load.sample_every = 25;
      load.max_samples = spec.samples_per_conn;
      if (i + 2 == kSetupReps) {
        warm_up();
        load.window_s = spec.window_s;
        open = RunOpenLoop(load, mix, ctx.seed + 3, spec.rate, open_s);
        PrintLoop("open", open, timeout_ms);
        if (server.Alive()) rss = PeakRssMb(server.pid());
      } else if (i + 1 == kSetupReps) {
        warm_up();
        closed = RunClosedLoop(load, mix, ctx.seed + 2, closed_s);
        PrintLoop("closed", closed, timeout_ms);
      }
    }
  } else {
    setup.push_back(StartServer(ctx, Served(ctx.run_dir, 0), mix, &server));
    warm_up();
    const LoadConfig load = LoadFor(server.port());
    const double slice = ctx.seconds / 5;
    // Untraced, tagged, tagged, untraced: the server slows as it serves
    // more requests, and this order cancels a linear drift.
    for (int i = 0; i < 4; ++i) {
      LoadConfig c = load;
      c.tagged = i == 1 || i == 2;
      c.tag_prefix = "t" + std::to_string(i) + "c";
      LoopResult r = RunClosedLoop(c, mix, ctx.seed + 10 + i, slice);
      PrintLoop(c.tagged ? "closed-tagged" : "closed-untraced", r, timeout_ms);
      (c.tagged ? traced_p50 : untraced_p50)
          .push_back(LatencyAt(r, 0.5, timeout_ms));
      if (!c.tagged) untraced.Merge(LoopResult(r));
      traced_parts.push_back(std::move(r));
    }
    // An open loop at the workload's rate reports the generator's lateness.
    open = RunOpenLoop(load, mix, ctx.seed + 3, spec.rate, slice);
    PrintLoop("open", open, timeout_ms);
    if (server.Alive()) scraped = ScrapeMetrics(server.metrics_port(), 10.0);
  }
  stop();

  // Correctness gate: fetched <= static bound on every response, sampled
  // answers equal to the reference evaluator's.
  uint64_t violations = warm.bound_violations + closed.bound_violations +
                        open.bound_violations;
  uint64_t checked = 0;
  uint64_t mismatches = CheckSamples(closed, mix, ref, &checked) +
                        CheckSamples(open, mix, ref, &checked);
  for (const LoopResult& r : traced_parts) {
    violations += r.bound_violations;
  }
  std::printf("correctness: bound_violations=%llu sampled=%llu "
              "mismatches=%llu server=%s\n",
              static_cast<unsigned long long>(violations),
              static_cast<unsigned long long>(checked),
              static_cast<unsigned long long>(mismatches), status.c_str());
  // A server that crashed or had to be killed fails the run, however few
  // requests it took down with it.
  out.correct = violations == 0 && mismatches == 0 && status == "exit 0";

  // Closed-loop latency: per 1-s window, median over windows. A window
  // counts for the p99 with >= 1000 requests (10 beyond it), for the p50
  // with >= 200: the server slows as it serves, so late windows of a heavy
  // workload hold fewer than 1000.
  auto closed_quantile = [&](double q) {
    return closed.WindowedQuantile(q, q > 0.5 ? 1000 : 200, timeout_ms);
  };
  if (!ctx.trace) {
    out.attempted = closed.attempted + open.attempted;
    out.failed = closed.failed() + open.failed();
    const double ok_ratio =
        1.0 - static_cast<double>(out.failed) /
                  static_cast<double>(std::max<uint64_t>(out.attempted, 1));
    std::printf("setup_s samples:");
    for (double v : setup) std::printf(" %.4f", v);
    std::printf("\nbench.gen_lag_p99_ms=%.4f (n=%zu)\n",
                Quantile(open.gen_lag_ms, 0.99), open.gen_lag_ms.size());
    std::printf("open loop windows: %.1f s each, >= %zu requests; median "
                "window p50_ms=%.4f p99_ms=%.4f\n",
                spec.window_s, window_min,
                open.WindowedQuantile(0.5, window_min, timeout_ms),
                open.WindowedQuantile(0.99, window_min, timeout_ms));
    std::printf("closed loop windows: 1 s each, >= 200 (p50) / 1000 (p99) "
                "requests; median window p50_ms=%.4f p99_ms=%.4f\n",
                closed_quantile(0.5), closed_quantile(0.99));
    out.metrics.Add("setup_s", Median(setup), "s");
    out.metrics.Add("qps", MedianWindowQps(closed, closed_s), "req/s");
    // The median latency comes from the closed loop: the open loop's at
    // these rates swung between runs of one build (idle virtual CPUs, host
    // contention). Tail quantiles of either loop swung more; they are
    // printed above with their counts, and a traced run reports the closed
    // loop's p99 (bench.closed_p99_ms).
    out.metrics.Add("p50_ms", closed_quantile(0.5), "ms");
    out.metrics.Add("ok_ratio", ok_ratio, "ratio");
    const uint64_t answered = closed.answered + open.answered;
    out.metrics.Add("fetches_per_query",
                    static_cast<double>(closed.fetched + open.fetched) /
                        static_cast<double>(std::max<uint64_t>(answered, 1)),
                    "tuples");
    out.metrics.Add("rss_mb", rss, "MiB");
    return out;
  }

  // Traced run: per-layer metrics.
  out.attempted = open.attempted;
  out.failed = open.failed();
  LoopResult tagged;
  for (LoopResult& r : traced_parts) {
    out.attempted += r.attempted;
    out.failed += r.failed();
    if (!r.tag_rtt_ms.empty()) tagged.Merge(std::move(r));
  }
  const TracedJoin j =
      JoinAccessLog(Served(ctx.run_dir, 0).access_log, tagged.tag_rtt_ms);
  std::printf("join: %zu tagged requests matched, %llu unmatched, %llu with "
              "negative wire time\n",
              j.wire_ms.size(), static_cast<unsigned long long>(j.unmatched),
              static_cast<unsigned long long>(j.negative_wire));
  MetricSink& m = out.metrics;
  AddPercentiles(&m, "serve.wire_ms", j.wire_ms, "ms", /*with_count=*/true);
  AddPercentiles(&m, "serve.overhead_ms", j.overhead_ms, "ms");
  m.Add("serve.queue_wait_ms.p99", Quantile(j.queue_wait_ms, 0.99), "ms");
  m.Add("serve.bytes_out.mean", Mean(j.bytes_out), "bytes");
  m.Add("serve.admitted", Counter(scraped, "serve.admit"), "count");
  m.Add("serve.degraded", Counter(scraped, "serve.degrade"), "count");
  m.Add("serve.rejected", Counter(scraped, "serve.reject"), "count");
  double shed = 0;
  for (const char* cls : {"small", "medium", "large", "huge"}) {
    shed += Counter(scraped, std::string("serve.shed.") + cls);
  }
  m.Add("serve.shed", shed, "count");
  m.Add("exec.compiled_hits", Counter(scraped, "exec.compiled_hits"), "count");
  m.Add("exec.compiled_fallbacks",
        Counter(scraped, "exec.compiled_fallbacks"), "count");
  m.Add("exec.index_lookups_per_query",
        Counter(scraped, "shell.index_lookups") /
            std::max(1.0, Counter(scraped, "shell.queries")),
        "lookups");
  m.Add("bench.gen_lag_p99_ms", Quantile(open.gen_lag_ms, 0.99), "ms");
  m.Add("bench.closed_p99_ms",
        untraced.WindowedQuantile(0.99, 1000, timeout_ms), "ms");
  const double u = Mean(untraced_p50);
  m.Add("trace.overhead_pct", 100.0 * (Mean(traced_p50) - u) / u, "%");
  bool identity = j.unmatched == 0 && j.negative_wire == 0 &&
                  !j.wire_ms.empty();
  // The in-process replay needs the memory the server held; it runs after
  // the server has exited.
  identity = RunReplay(ctx, mix, ReadLines(catalog), &m) && identity;
  std::printf("identity: %s\n", identity ? "ok" : "FAILED");
  out.correct = out.correct && identity;
  return out;
}

}  // namespace perfbench
