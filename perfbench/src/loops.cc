#include "loops.h"

#include <time.h>

#include <cerrno>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <thread>

#include "eval/answer_set.h"
#include "wire.h"

namespace perfbench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<std::string> SplitLines(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start < s.size()) {
    size_t nl = s.find('\n', start);
    if (nl == std::string::npos) nl = s.size();
    out.push_back(s.substr(start, nl - start));
    start = nl + 1;
  }
  return out;
}

bool IsShed(const std::string& reason) {
  return reason == "queue-full" || reason == "queue-class-full" ||
         reason == "queue-timeout" || reason == "draining";
}

void Note(LoopResult* r, const std::string& what) {
  if (r->notes.size() < 5) r->notes.push_back(what);
}

// Folds one response into the tallies. Returns true when it was answered.
bool Record(LoopResult* r, bool frame_ok, const std::string& payload,
            double latency_ms, uint32_t window,
            const std::string& expect_tag) {
  ++r->attempted;
  r->window.push_back(window);
  Response resp;
  if (!ParseResponse(frame_ok, payload, &resp) ||
      (!expect_tag.empty() && resp.tag != expect_tag)) {
    ++r->protocol_errors;
    Note(r, "protocol: " + payload.substr(0, 200));
    r->latency_ms.push_back(kInf);
    return false;
  }
  if (resp.action == "reject") {
    if (IsShed(resp.reason)) {
      ++r->shed;
    } else {
      ++r->rejected;
    }
    Note(r, "refused: " + payload.substr(0, 200));
    r->latency_ms.push_back(kInf);
    return false;
  }
  if (resp.bound >= 0 && static_cast<double>(resp.fetched) > resp.bound) {
    ++r->bound_violations;
    Note(r, "bound violated: " + payload.substr(0, 200));
  }
  if (resp.action == "degrade" || resp.partial) {
    ++r->degraded;
    Note(r, "degraded: " + payload.substr(0, 200));
    r->latency_ms.push_back(kInf);
    return false;
  }
  ++r->answered;
  r->fetched += resp.fetched;
  r->latency_ms.push_back(latency_ms);
  return true;
}

void RecordFailure(LoopResult* r, uint64_t* counter, size_t n,
                   uint32_t window) {
  r->attempted += n;
  *counter += n;
  for (size_t i = 0; i < n; ++i) {
    r->latency_ms.push_back(kInf);
    r->window.push_back(window);
  }
}

uint32_t WindowOf(uint64_t t_ns, uint64_t start_ns, double window_s) {
  if (t_ns <= start_ns) return 0;
  return static_cast<uint32_t>(static_cast<double>(t_ns - start_ns) / 1e9 /
                               window_s);
}

bool OpenSession(Conn* conn, const LoadConfig& cfg, LoopResult* r) {
  if (!conn->Connect(cfg.port)) return false;
  bool ok = false;
  std::string payload;
  if (!Exchange(conn, "hello", &ok, &payload, cfg.timeout_s) || !ok) {
    Note(r, "hello failed: " + payload.substr(0, 200));
    conn->Close();
    return false;
  }
  ++r->sessions;
  return true;
}

void CloseSession(Conn* conn, const LoadConfig& cfg) {
  bool ok = false;
  std::string payload;
  (void)Exchange(conn, "bye", &ok, &payload, cfg.timeout_s);
  conn->Close();
}

std::string TagFor(const LoadConfig& cfg, size_t conn, uint64_t k) {
  if (!cfg.tagged) return "";
  return cfg.tag_prefix + std::to_string(conn) + "-" + std::to_string(k);
}

// Sleeps until shortly before `t_ns`, then spins: a timer wake-up on an
// idle (virtual) CPU can take hundreds of microseconds, which would be the
// generator's lateness, not the server's latency.
void SleepUntil(uint64_t t_ns) {
  constexpr uint64_t kSpinNs = 300000;
  if (t_ns > kSpinNs) {
    const uint64_t wake = t_ns - kSpinNs;
    const timespec ts{static_cast<time_t>(wake / 1000000000ULL),
                      static_cast<long>(wake % 1000000000ULL)};
    while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
           EINTR) {
    }
  }
  while (NowNs() < t_ns) {
  }
}

// One connection of the closed loop. A request that fails is counted and
// never retried; while the server cannot be reached, every attempt to open a
// session counts as one lost request (one attempt per millisecond), so a
// server that dies early fails the rest of the phase, as in the open loop.
void ClosedWorker(const LoadConfig& cfg, const QueryMix& mix, uint64_t seed,
                  size_t index, uint64_t start_ns, uint64_t stop_ns,
                  uint64_t max_requests, LoopResult* r) {
  scalein::Rng rng(seed * 1000003ULL + index);
  Conn conn;
  bool up = false;
  uint64_t in_session = 0;
  const size_t windows =
      static_cast<size_t>((stop_ns - start_ns + 999999999ULL) / 1000000000ULL);
  r->window_qps.assign(windows, 0.0);
  for (uint64_t k = 0;; ++k) {
    if (NowNs() >= stop_ns || (max_requests > 0 && k >= max_requests)) break;
    if (up && in_session == cfg.reopen_every) {
      CloseSession(&conn, cfg);
      up = false;
    }
    if (!up) {
      in_session = 0;
      up = OpenSession(&conn, cfg, r);
      if (!up) {
        RecordFailure(r, &r->lost, 1,
                      WindowOf(NowNs(), start_ns, cfg.window_s));
        Note(r, "cannot open a session");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
    }
    const Request req = mix.Draw(&rng);
    const std::string tag = TagFor(cfg, index, k);
    const uint64_t sent = NowNs();
    bool ok = false;
    std::string payload;
    if (!Exchange(&conn, mix.Line(req, tag), &ok, &payload, cfg.timeout_s)) {
      // A hung or dead server: count the request, then open a new session.
      const bool timed_out = NowNs() - sent >=
                             static_cast<uint64_t>(cfg.timeout_s * 1e9);
      RecordFailure(r, timed_out ? &r->timeouts : &r->lost, 1,
                    WindowOf(sent, start_ns, cfg.window_s));
      Note(r, timed_out ? "client timeout" : "connection lost");
      conn.Close();
      up = false;
      continue;
    }
    const uint64_t done = NowNs();
    ++in_session;
    const double rtt_ms = static_cast<double>(done - sent) / 1e6;
    if (Record(r, ok, payload, rtt_ms,
               WindowOf(sent, start_ns, cfg.window_s), tag)) {
      const size_t w = static_cast<size_t>((done - start_ns) / 1000000000ULL);
      if (w < r->window_qps.size()) r->window_qps[w] += 1.0;
      if (cfg.tagged) r->tag_rtt_ms.emplace_back(tag, rtt_ms);
    }
    if (cfg.sample_every > 0 && k % cfg.sample_every == 0 &&
        r->samples.size() < cfg.max_samples) {
      r->samples.emplace_back(req, payload);
    }
  }
  if (up) CloseSession(&conn, cfg);
}

struct Arrival {
  uint64_t due_ns = 0;
  uint64_t index = 0;
  Request req;
};

// One connection of the open loop. Arrivals are taken in due order from the
// shared schedule by whichever connection is idle, and a connection carries
// one request at a time: a request that falls due while every connection is
// busy waits at the client, and that wait counts, because latency is timed
// from the due time.
void OpenWorker(const LoadConfig& cfg, const QueryMix& mix,
                const std::vector<Arrival>& arrivals,
                std::atomic<size_t>* next, size_t index, uint64_t start_ns,
                LoopResult* r) {
  Conn conn;
  bool up = OpenSession(&conn, cfg, r);
  uint64_t in_session = 0;
  for (;;) {
    const size_t i = next->fetch_add(1);
    if (i >= arrivals.size()) break;
    const Arrival& a = arrivals[i];
    const uint32_t window = WindowOf(a.due_ns, start_ns, cfg.window_s);
    if (up && in_session == cfg.reopen_every) {
      CloseSession(&conn, cfg);
      in_session = 0;
      up = OpenSession(&conn, cfg, r);
    }
    if (!up) {
      // The server is gone: everything this connection takes is lost.
      RecordFailure(r, &r->lost, 1, window);
      Note(r, "server unreachable");
      continue;
    }
    SleepUntil(a.due_ns);
    const std::string tag = TagFor(cfg, index, a.index);
    const uint64_t sent = NowNs();
    r->gen_lag_ms.push_back(static_cast<double>(sent - a.due_ns) / 1e6);
    bool ok = false;
    std::string payload;
    if (!Exchange(&conn, mix.Line(a.req, tag), &ok, &payload, cfg.timeout_s)) {
      const bool timed_out = NowNs() - sent >=
                             static_cast<uint64_t>(cfg.timeout_s * 1e9);
      RecordFailure(r, timed_out ? &r->timeouts : &r->lost, 1, window);
      Note(r, timed_out ? "client timeout" : "connection lost");
      conn.Close();
      in_session = 0;
      up = OpenSession(&conn, cfg, r);
      continue;
    }
    ++in_session;
    const uint64_t recv = NowNs();
    if (Record(r, ok, payload, static_cast<double>(recv - a.due_ns) / 1e6,
               window, tag) &&
        cfg.tagged) {
      r->tag_rtt_ms.emplace_back(tag, static_cast<double>(recv - sent) / 1e6);
    }
    if (cfg.sample_every > 0 && a.index % cfg.sample_every == 0 &&
        r->samples.size() < cfg.max_samples) {
      r->samples.emplace_back(a.req, payload);
    }
  }
  if (up) CloseSession(&conn, cfg);
}

}  // namespace

bool ParseResponse(bool frame_ok, const std::string& payload, Response* out) {
  out->frame_ok = frame_ok;
  if (!frame_ok) return false;
  const std::vector<std::string> lines = SplitLines(payload);
  if (lines.empty() || lines[0].empty() || lines[0][0] != 'q') return false;
  const std::string& d = lines[0];
  const size_t sp = d.find(' ');
  if (sp == std::string::npos) return false;
  size_t end = d.find_first_of(" (", sp + 1);
  if (end == std::string::npos) return false;
  out->action = d.substr(sp + 1, end - sp - 1);
  if (out->action != "admit" && out->action != "degrade" &&
      out->action != "reject") {
    return false;
  }
  if (d[end] == '(') {
    const size_t close = d.find(')', end);
    if (close == std::string::npos) return false;
    out->reason = d.substr(end + 1, close - end - 1);
  }
  const size_t b = d.find(" bound=");
  if (b == std::string::npos) return false;
  out->bound = d.compare(b + 7, 4, "none") == 0
                   ? -1.0
                   : std::strtod(d.c_str() + b + 7, nullptr);
  const size_t t = d.rfind(" tag=");
  if (t != std::string::npos) out->tag = d.substr(t + 5);
  if (out->action == "reject") return true;
  if (lines.size() < 3 || lines[2].empty() || lines[2][0] != '(') {
    return false;
  }
  out->rendered = lines[1];
  char* p = nullptr;
  out->answers = std::strtoull(lines[2].c_str() + 1, &p, 10);
  const size_t comma = lines[2].find(", ");
  if (comma == std::string::npos) return false;
  out->fetched = std::strtoull(lines[2].c_str() + comma + 2, nullptr, 10);
  if (lines[2].find("base tuples fetched") == std::string::npos) return false;
  out->partial = lines[2].find(", partial") != std::string::npos;
  out->has_result = true;
  return true;
}

void LoopResult::Merge(LoopResult&& o) {
  attempted += o.attempted;
  answered += o.answered;
  protocol_errors += o.protocol_errors;
  rejected += o.rejected;
  shed += o.shed;
  degraded += o.degraded;
  timeouts += o.timeouts;
  lost += o.lost;
  bound_violations += o.bound_violations;
  fetched += o.fetched;
  sessions += o.sessions;
  latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                    o.latency_ms.end());
  window.insert(window.end(), o.window.begin(), o.window.end());
  gen_lag_ms.insert(gen_lag_ms.end(), o.gen_lag_ms.begin(),
                    o.gen_lag_ms.end());
  if (window_qps.size() < o.window_qps.size()) {
    window_qps.resize(o.window_qps.size(), 0.0);
  }
  for (size_t i = 0; i < o.window_qps.size(); ++i) {
    window_qps[i] += o.window_qps[i];
  }
  for (auto& s : o.samples) samples.push_back(std::move(s));
  for (auto& t : o.tag_rtt_ms) tag_rtt_ms.push_back(std::move(t));
  for (auto& n : o.notes) {
    if (notes.size() < 8) notes.push_back(std::move(n));
  }
}

double LoopResult::WindowedQuantile(double q, size_t min_samples,
                                    double fail_ms) const {
  std::vector<double> v(latency_ms);
  for (double& x : v) {
    if (!std::isfinite(x)) x = fail_ms;
  }
  const double out = perfbench::WindowedQuantile(v, window, q, min_samples);
  return std::isfinite(out) ? out : fail_ms;
}

LoopResult RunClosedLoop(const LoadConfig& cfg, const QueryMix& mix,
                         uint64_t seed, double seconds,
                         uint64_t max_per_conn) {
  std::vector<LoopResult> per(cfg.connections);
  std::vector<std::thread> threads;
  const uint64_t start = NowNs();
  const uint64_t stop = start + static_cast<uint64_t>(seconds * 1e9);
  for (size_t c = 0; c < cfg.connections; ++c) {
    threads.emplace_back([&, c] {
      ClosedWorker(cfg, mix, seed, c, start, stop, max_per_conn, &per[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  LoopResult total;
  for (LoopResult& r : per) total.Merge(std::move(r));
  total.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  return total;
}

LoopResult RunOpenLoop(const LoadConfig& cfg, const QueryMix& mix,
                       uint64_t seed, double rate, double seconds) {
  // The whole schedule is drawn up front from the seed: arrival times do
  // not depend on how fast the server answers.
  scalein::Rng rng(seed * 7919ULL + 17);
  std::vector<Arrival> arrivals;
  const uint64_t start = NowNs() + 20000000ULL;  // let the workers connect
  double t = 0.0;
  for (uint64_t k = 0;; ++k) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= seconds) break;
    Arrival a;
    a.due_ns = start + static_cast<uint64_t>(t * 1e9);
    a.index = k;
    a.req = mix.Draw(&rng);
    arrivals.push_back(a);
  }
  std::atomic<size_t> next{0};
  std::vector<LoopResult> per(cfg.connections);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < cfg.connections; ++c) {
    threads.emplace_back([&, c] {
      OpenWorker(cfg, mix, arrivals, &next, c, start, &per[c]);
    });
  }
  for (std::thread& th : threads) th.join();
  LoopResult total;
  for (LoopResult& r : per) total.Merge(std::move(r));
  const uint64_t now = NowNs();
  total.wall_s = now > start ? static_cast<double>(now - start) / 1e9 : 0.0;
  return total;
}

uint64_t CheckSamples(const LoopResult& r, const QueryMix& mix,
                      const Reference& ref, uint64_t* checked) {
  uint64_t mismatches = 0;
  for (const auto& [req, payload] : r.samples) {
    Response resp;
    if (!ParseResponse(true, payload, &resp) || !resp.has_result ||
        resp.partial) {
      continue;  // refused or failed: already counted as a failure
    }
    ++*checked;
    const scalein::AnswerSet expect = ref.Answers(mix, req);
    const std::string rendered = scalein::AnswerSetToString(expect, 50);
    if (expect.size() != resp.answers || rendered != resp.rendered) {
      ++mismatches;
      if (mismatches <= 3) {
        std::fprintf(stderr,
                     "perfbench: answer mismatch for '%s': got %llu answers "
                     "%s, reference has %zu answers %s\n",
                     mix.Line(req, "").c_str(),
                     static_cast<unsigned long long>(resp.answers),
                     resp.rendered.substr(0, 200).c_str(), expect.size(),
                     rendered.substr(0, 200).c_str());
      }
    }
  }
  return mismatches;
}

}  // namespace perfbench
