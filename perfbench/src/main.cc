// Load generator of the repository benchmark. Usually started by
// perfbench/run.py, which builds it first:
//
//   perfbench_load --workload point --seed 7 --seconds 16 --trace 0
//       --server <scalein_served> --run-dir <dir>
//
// Prints human-readable progress lines, then, as the last line of stdout,
// one JSON object {"correct", "attempted", "failed", "metrics"}: with
// --trace 0 the end-to-end metrics, with --trace 1 the per-layer ones.
// Exits 1 when a correctness gate failed, 2 on a set-up error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"
#include "wire.h"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"serve.wire_ms.p50", "ms"},
      {"serve.wire_ms.p99", "ms"},
      {"serve.wire_ms.n", "count"},
      {"serve.overhead_ms.p50", "ms"},
      {"serve.overhead_ms.p99", "ms"},
      {"serve.queue_wait_ms.p99", "ms"},
      {"serve.handle_us.p50", "us"},
      {"serve.handle_us.p99", "us"},
      {"serve.handle_us.n", "count"},
      {"serve.admission_us.p50", "us"},
      {"serve.frame_us.p50", "us"},
      {"serve.unattributed_us.p50", "us"},
      {"serve.unattributed_share", "ratio"},
      {"serve.admitted", "count"},
      {"serve.degraded", "count"},
      {"serve.rejected", "count"},
      {"serve.shed", "count"},
      {"serve.bytes_out.mean", "bytes"},
      {"shell.plan_us.p50", "us"},
      {"shell.plan_us.p99", "us"},
      {"shell.eval_us.p50", "us"},
      {"shell.eval_us.p99", "us"},
      {"query.parse_us.p50", "us"},
      {"core.analysis_cache.hit_ratio", "ratio"},
      {"core.analysis_cache.misses", "count"},
      {"core.analysis_cache.evictions", "count"},
      {"core.plan_miss_us.p50", "us"},
      {"core.bound_slack.p50", "ratio"},
      {"core.bound_slack.p99", "ratio"},
      {"exec.vm_us.p50", "us"},
      {"exec.vm_us.p99", "us"},
      {"exec.vm_us.n", "count"},
      {"exec.compiled_hits", "count"},
      {"exec.compiled_fallbacks", "count"},
      {"exec.index_lookups_per_query", "lookups"},
      {"par.parallel_for_calls", "count"},
      {"par.tasks_per_call", "tasks"},
      {"relational.apply_ms.p50", "ms"},
      {"relational.apply_ms.p99", "ms"},
      {"incremental.maintain_ms.p50", "ms"},
      {"incremental.maintain_ms.p99", "ms"},
      {"incremental.fetched_per_tuple", "tuples"},
      {"views.apply_ms.p50", "ms"},
      {"views.apply_ms.p99", "ms"},
      {"views.incremental_ratio", "ratio"},
      {"maintain.read_ms.p50", "ms"},
      {"maintain.read_ms.p99", "ms"},
      {"maintain.batches", "count"},
      {"bench.gen_lag_p99_ms", "ms"},
      {"bench.closed_p99_ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return kMetrics;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {.name = "point", .rate = 500},
      {.name = "fanout", .rate = 250, .window_s = 2, .samples_per_conn = 16},
      {.name = "cold_plans", .rate = 500},
  };
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

void AddPercentiles(MetricSink* out, const std::string& name,
                    const std::vector<double>& samples, const char* unit,
                    bool with_count) {
  const bool none = samples.empty();
  out->Add(name + ".p50", none ? 0.0 : Quantile(samples, 0.5), unit);
  out->Add(name + ".p99", none ? 0.0 : Quantile(samples, 0.99), unit);
  if (with_count) {
    out->Add(name + ".n", static_cast<double>(samples.size()), "count");
  }
}

}  // namespace perfbench

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_load: %s\nusage: perfbench_load --workload W "
               "--seed N --seconds S --trace 0|1 --server PATH --run-dir DIR "
               "[--keep]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunContext ctx;
  std::string workload;
  bool keep = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      workload = value();
    } else if (a == "--seed") {
      ctx.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      ctx.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      ctx.trace = value() == "1";
    } else if (a == "--server") {
      ctx.server_bin = value();
    } else if (a == "--run-dir") {
      ctx.run_dir = value();
    } else if (a == "--keep") {
      keep = true;
    } else {
      Usage(("unknown argument " + a).c_str());
    }
  }
  if (workload.empty() || !have_seed || ctx.run_dir.empty() ||
      !(ctx.seconds > 0)) {
    Usage("--workload, --seed, --seconds and --run-dir are required");
  }
  const WorkloadSpec* spec = FindWorkload(workload);
  if (spec == nullptr) {
    Usage(("unknown workload " + workload +
           " (have point, fanout, cold_plans)").c_str());
  }
  ctx.spec = *spec;
  std::error_code ec;
  std::filesystem::create_directories(ctx.run_dir, ec);
  if (ec) Die("cannot create " + ctx.run_dir);
  // Die() exits without unwinding: no server may outlive this process.
  std::atexit(KillLiveServers);
  // The engine's worker pool is sized from the environment on first use.
  setenv("SCALEIN_THREADS", std::to_string(kServerThreads).c_str(), 1);
  setenv("SCALEIN_SESSION_ID", "perfbench", 1);

  RunOutput out = RunReadWorkload(ctx);
  if (ctx.trace && spec->name == "point") {
    // The write path's layers, measured beside the everyday reads.
    out.correct = RunMaintainTrace(ctx, &out) && out.correct;
  }
  if (ctx.trace) {
    // Every per-layer metric is reported; a layer this workload does not
    // exercise reads 0.
    for (const auto& [name, unit] : PerLayerMetrics()) {
      if (!out.metrics.Has(name)) out.metrics.Add(name, 0.0, unit);
    }
  }
  if (!keep) std::filesystem::remove_all(ctx.run_dir, ec);
  std::printf("%s\n",
              out.metrics.ResultJson(out.correct, out.attempted, out.failed)
                  .c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
