// Traced in-process replay of a read workload: the per-layer split of one
// request's server time. Spans are recorded by this file around calls into
// each module's public functions (the engine's own tracing stays off), kept
// in memory and written out as a Chrome trace at the end.
//
// Two twin shells load the same catalog. For each request of the stream,
// twin A serves it through Server::HandleLine (the whole request as the
// port runs it, then EncodeFrame), and twin B runs the same request as the
// public calls HandleLine is made of: PlanForServe (with ParseFoQuery timed
// on its own), DecideAdmission on a SessionEnvelope, and EvalForServe. The
// twins see identical cache states and must produce the same answers and
// fetch count. Per request, the unattributed rest
//   unattributed = handle - (plan + admission + eval)
// (locking, session lookup, lifecycle bookkeeping, the access-log line,
// response formatting) is reported, not dropped. The parts are a subset of
// HandleLine's work, so the check is that they do not exceed it: summed over
// the stream, and at the median request. Either failing means the twins'
// timings are not of the same work.
// Last, CompiledEvaluator::Evaluate is timed on the cached programs.
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "bench.h"
#include "core/analysis_cache.h"
#include "exec/vm.h"
#include "io/shell.h"
#include "loops.h"
#include "obs/trace.h"
#include "par/worker_pool.h"
#include "query/parser.h"
#include "serve/admission.h"
#include "serve/message.h"
#include "serve/server.h"
#include "serve/session.h"

namespace perfbench {

namespace {

using scalein::obs::ScopedSpan;
using scalein::obs::Tracer;

constexpr const char* kCategory = "perfbench";

std::unique_ptr<scalein::Shell> LoadShell(
    const std::vector<std::string>& catalog_lines) {
  auto shell = std::make_unique<scalein::Shell>();
  for (const std::string& line : catalog_lines) {
    scalein::Result<std::string> r = shell->Execute(line);
    if (!r.ok()) Die("replay catalog: " + r.status().ToString());
  }
  return shell;
}

// Durations (µs) of this file's spans named `name`, in call order.
std::vector<double> SpanUs(const std::vector<scalein::obs::TraceEvent>& events,
                           const std::string& name) {
  std::vector<double> out;
  for (const auto& e : events) {
    if (e.category == kCategory && e.name == name) {
      out.push_back(static_cast<double>(e.duration_ns) / 1e3);
    }
  }
  return out;
}

scalein::VarSet ParamVars(const scalein::Binding& params) {
  scalein::VarSet vars;
  for (const auto& [v, val] : params) {
    (void)val;
    vars.insert(v);
  }
  return vars;
}

}  // namespace

bool RunReplay(const RunContext& ctx, const QueryMix& mix,
               const std::vector<std::string>& catalog_lines,
               MetricSink* out) {
  const uint64_t warm = kReplayWarmup;
  const uint64_t n = kReplayRequests;
  const uint64_t reopen = kReopenEvery;
  scalein::Rng rng(ctx.seed + 99);
  std::vector<Request> stream;
  for (uint64_t i = 0; i < warm + n; ++i) stream.push_back(mix.Draw(&rng));
  auto tag_of = [](uint64_t i) { return "x" + std::to_string(i); };

  scalein::serve::SlaConfig sla;
  sla.session_fetch_budget = kSessionLease;
  // Twin A serves whole requests through Server::HandleLine; twin B runs
  // the same requests as the calls HandleLine is made of. Both journal like
  // the server does, each to a fresh file of its own.
  setenv("SCALEIN_JOURNAL_PATH", (ctx.run_dir + "/replay_a.journal").c_str(),
         1);
  std::unique_ptr<scalein::Shell> shell_a = LoadShell(catalog_lines);
  setenv("SCALEIN_JOURNAL_PATH", (ctx.run_dir + "/replay_b.journal").c_str(),
         1);
  std::unique_ptr<scalein::Shell> shell_b = LoadShell(catalog_lines);
  scalein::serve::Server::Options options;
  options.sla = sla;
  options.access_log_path = ctx.run_dir + "/replay.access";
  options.access_log_max_bytes = kLogMaxBytes;
  scalein::serve::Server server(shell_a.get(), options);
  if (scalein::Status s = server.Start(); !s.ok()) {
    Die("replay server: " + s.ToString());
  }
  if (scalein::Status s = shell_b->PrepareServe(); !s.ok()) {
    Die("replay prepare: " + s.ToString());
  }

  Tracer tracer;
  scalein::AnalysisCacheStats cache0;
  scalein::par::WorkerPool& pool = scalein::par::WorkerPool::Global();
  uint64_t pf0 = 0, tasks0 = 0;
  uint64_t violations = 0, disagreements = 0;
  std::vector<double> slack;
  std::vector<bool> miss;
  const std::string sid = "replay";
  std::unique_ptr<scalein::serve::SessionEnvelope> env;
  uint64_t in_session = reopen;
  for (uint64_t i = 0; i < stream.size(); ++i) {
    if (i == warm) {
      cache0 = shell_a->analysis_cache().stats();
      pf0 = pool.parallel_for_calls();
      tasks0 = pool.tasks_executed();
    }
    if (in_session == reopen) {
      if (env != nullptr) (void)server.HandleLine(sid, "bye");
      (void)server.HandleLine(sid, "hello");
      env = std::make_unique<scalein::serve::SessionEnvelope>(
          sid, 1, sla.session_fetch_budget, nullptr);
      in_session = 0;
    }
    ++in_session;
    Tracer* t = i >= warm ? &tracer : nullptr;

    // Twin A: the whole request, then the port's framing.
    const std::string line = mix.Line(stream[i], tag_of(i));
    scalein::Result<std::string> resp = [&] {
      ScopedSpan span(t, "serve.handle", kCategory);
      return server.HandleLine(sid, line);
    }();
    {
      ScopedSpan span(t, "serve.frame", kCategory);
      (void)(resp.ok() ? scalein::serve::EncodeFrame(true, *resp)
                       : scalein::serve::EncodeFrame(
                             false, resp.status().ToString()));
    }
    Response parsed;
    if (!resp.ok() || !ParseResponse(true, *resp, &parsed) ||
        !parsed.has_result || parsed.partial) {
      Die("replay request not answered: " + line + " -> " +
          (resp.ok() ? resp->substr(0, 200) : resp.status().ToString()));
    }
    if (parsed.bound >= 0 &&
        static_cast<double>(parsed.fetched) > parsed.bound) {
      ++violations;
    }

    // Twin B: parse, plan, admission, evaluation.
    const Shape& shape = mix.shapes()[stream[i].shape];
    {
      ScopedSpan span(t, "query.parse", kCategory);
      if (!scalein::ParseFoQuery(shape.fo, &shell_b->schema()).ok()) {
        Die("replay parse failed: " + shape.fo);
      }
    }
    const uint64_t misses = shell_b->analysis_cache().stats().misses;
    scalein::Result<scalein::ServePlan> plan = [&] {
      ScopedSpan span(t, "shell.plan", kCategory);
      return shell_b->PlanForServe(mix.Binding(stream[i]) + " " + shape.fo);
    }();
    if (!plan.ok()) Die("replay plan: " + plan.status().ToString());
    if (i >= warm) {
      miss.push_back(shell_b->analysis_cache().stats().misses > misses);
    }
    scalein::serve::AdmissionInput in;
    in.static_bound = plan->static_bound;
    in.budget_remaining = env->remaining();
    in.budget_unlimited = env->unlimited();
    const scalein::serve::AdmissionDecision d = [&] {
      ScopedSpan span(t, "serve.admission", kCategory);
      return scalein::serve::DecideAdmission(in, sla);
    }();
    if (d.action != scalein::serve::AdmitAction::kAdmit ||
        !env->Reserve(d.sub_budget)) {
      Die("replay admission refused: " + d.ToString());
    }
    scalein::Result<scalein::ServeEvalOutcome> o = [&] {
      ScopedSpan span(t, "shell.eval", kCategory);
      return shell_b->EvalForServe(*plan, env->LimitsFor(d.sub_budget, sla),
                                   scalein::obs::QueryId{1, i + 1},
                                   tag_of(i));
    }();
    if (!o.ok()) Die("replay eval: " + o.status().ToString());
    env->Refund(d.sub_budget, o->fetched);
    // The twins must agree, or their timings are not of the same work.
    if (o->answers != parsed.answers || o->fetched != parsed.fetched) {
      ++disagreements;
    }
    if (i >= warm && o->fetched > 0 && plan->static_bound >= 0) {
      slack.push_back(plan->static_bound / static_cast<double>(o->fetched));
    }
  }
  const scalein::AnalysisCacheStats cache1 = shell_a->analysis_cache().stats();
  const uint64_t pf1 = pool.parallel_for_calls();
  const uint64_t tasks1 = pool.tasks_executed();

  // The VM alone on each request's cached program (requests whose plan is
  // not compiled, e.g. interpreter fallbacks, have no sample).
  std::vector<double> vm_us;
  scalein::Database* db = const_cast<scalein::Database*>(shell_b->db());
  for (uint64_t i = warm; i < stream.size(); ++i) {
    const Shape& shape = mix.shapes()[stream[i].shape];
    scalein::Result<scalein::ServePlan> plan =
        shell_b->PlanForServe(mix.Binding(stream[i]) + " " + shape.fo);
    if (!plan.ok() || plan->compiled == nullptr) continue;
    std::string why;
    std::shared_ptr<const scalein::exec::CompiledProgram> program =
        plan->compiled->GetOrCompilePlain(
            scalein::exec::CompiledPlanSet::Mode::kAuto, plan->query,
            plan->analysis, ParamVars(plan->params), &why);
    if (program == nullptr) continue;
    scalein::exec::CompiledEvaluator vm(db);
    const uint64_t t0 = NowNs();
    scalein::Result<scalein::AnswerSet> answers =
        vm.Evaluate(*program, plan->params);
    vm_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    if (!answers.ok()) Die("replay vm: " + answers.status().ToString());
  }

  const std::vector<scalein::obs::TraceEvent> events = tracer.events();
  const std::vector<double> handle = SpanUs(events, "serve.handle");
  const std::vector<double> frame = SpanUs(events, "serve.frame");
  const std::vector<double> parse = SpanUs(events, "query.parse");
  const std::vector<double> plan = SpanUs(events, "shell.plan");
  const std::vector<double> adm = SpanUs(events, "serve.admission");
  const std::vector<double> eval = SpanUs(events, "shell.eval");
  bool ok = violations == 0 && disagreements == 0 && handle.size() == n &&
            plan.size() == n && adm.size() == n && eval.size() == n;
  if (disagreements > 0) {
    std::fprintf(stderr, "perfbench: replay twins disagree on %llu requests\n",
                 static_cast<unsigned long long>(disagreements));
  }
  std::vector<double> plan_miss_us, unattributed;
  double sum_handle = 0, sum_parts = 0;
  for (size_t i = 0; ok && i < n; ++i) {
    const double parts = plan[i] + adm[i] + eval[i];
    unattributed.push_back(handle[i] - parts);
    sum_handle += handle[i];
    sum_parts += parts;
  }
  const double sum_unattr = sum_handle - sum_parts;
  const double median_unattr = unattributed.empty() ? 0 : Median(unattributed);
  const bool parts_fit = sum_unattr >= 0 && median_unattr >= 0;
  ok = ok && parts_fit;
  std::printf("replay: n=%llu handle_sum_us=%.1f parts_sum_us=%.1f "
              "unattributed_sum_us=%.1f unattributed_p50_us=%.3f parts "
              "within handle: %s\n",
              static_cast<unsigned long long>(n), sum_handle, sum_parts,
              sum_unattr, median_unattr, parts_fit ? "yes" : "NO");
  for (size_t i = 0; i < miss.size() && i < plan.size(); ++i) {
    if (miss[i]) plan_miss_us.push_back(plan[i]);
  }

  MetricSink& m = *out;
  AddPercentiles(&m, "serve.handle_us", handle, "us", /*with_count=*/true);
  m.Add("serve.frame_us.p50", Median(frame), "us");
  m.Add("serve.admission_us.p50", Median(adm), "us");
  m.Add("serve.unattributed_us.p50", median_unattr, "us");
  m.Add("serve.unattributed_share",
        sum_handle > 0 ? sum_unattr / sum_handle : 0.0, "ratio");
  AddPercentiles(&m, "shell.plan_us", plan, "us");
  AddPercentiles(&m, "shell.eval_us", eval, "us");
  m.Add("query.parse_us.p50", Median(parse), "us");
  const uint64_t hits = cache1.hits - cache0.hits;
  const uint64_t misses = cache1.misses - cache0.misses;
  m.Add("core.analysis_cache.hit_ratio",
        hits + misses > 0 ? static_cast<double>(hits) /
                                static_cast<double>(hits + misses)
                          : 0.0,
        "ratio");
  m.Add("core.analysis_cache.misses", static_cast<double>(misses), "count");
  m.Add("core.analysis_cache.evictions",
        static_cast<double>(cache1.evictions - cache0.evictions), "count");
  m.Add("core.plan_miss_us.p50",
        plan_miss_us.empty() ? 0.0 : Median(plan_miss_us), "us");
  AddPercentiles(&m, "core.bound_slack", slack, "ratio");
  AddPercentiles(&m, "exec.vm_us", vm_us, "us", /*with_count=*/true);
  m.Add("par.parallel_for_calls", static_cast<double>(pf1 - pf0), "count");
  m.Add("par.tasks_per_call",
        pf1 > pf0 ? static_cast<double>(tasks1 - tasks0) /
                        static_cast<double>(pf1 - pf0)
                  : 0.0,
        "tasks");

  const std::string trace_path = ctx.run_dir + "/replay.trace.json";
  if (FILE* f = std::fopen(trace_path.c_str(), "w")) {
    const std::string json = tracer.ToChromeTraceJson();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
  }
  return ok;
}

}  // namespace perfbench
