#include "par/worker_pool.h"

#include <cstdlib>

#include "util/failpoint.h"

namespace scalein::par {
namespace {

/// -1 outside the pool; 0 on a thread draining its own ParallelFor; >= 1 in a
/// worker. Doubles as the nested-call detector: any lane >= 0 runs nested
/// ParallelFor calls inline.
thread_local int tls_lane = -1;

}  // namespace

int CurrentLane() { return tls_lane; }

std::vector<std::pair<size_t, size_t>> SplitRanges(size_t total,
                                                   size_t max_pieces) {
  std::vector<std::pair<size_t, size_t>> out;
  if (total == 0) return out;
  if (max_pieces == 0) max_pieces = 1;
  const size_t pieces = total < max_pieces ? total : max_pieces;
  out.reserve(pieces);
  const size_t base = total / pieces;
  const size_t extra = total % pieces;  // first `extra` pieces get one more
  size_t begin = 0;
  for (size_t i = 0; i < pieces; ++i) {
    const size_t len = base + (i < extra ? 1 : 0);
    out.emplace_back(begin, begin + len);
    begin += len;
  }
  return out;
}

WorkerPool::WorkerPool(size_t threads) { Resize(threads); }

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : workers_) t.join();
}

size_t WorkerPool::threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return workers_.size() + 1;
}

void WorkerPool::Resize(size_t threads) {
  std::lock_guard<std::mutex> submit_lock(submit_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = false;
  }
  const size_t lanes = threads == 0 ? 1 : threads;
  workers_.reserve(lanes - 1);
  for (size_t i = 1; i < lanes; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

void WorkerPool::DrainJob(size_t n, const std::function<void(size_t)>& fn) {
  for (;;) {
    const size_t idx = job_next_.fetch_add(1, std::memory_order_relaxed);
    if (idx >= n) break;
    fn(idx);
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
    if (job_done_.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
      // Last task: wake the submitter (it may be parked in cv_done_).
      std::lock_guard<std::mutex> lock(mu_);
      cv_done_.notify_all();
    }
  }
}

void WorkerPool::WorkerLoop(size_t lane) {
  tls_lane = static_cast<int>(lane);
  uint64_t seen_generation = 0;
  for (;;) {
    size_t n = 0;
    const std::function<void(size_t)>* fn = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&] {
        return stop_ || generation_ != seen_generation;
      });
      if (stop_) return;
      seen_generation = generation_;
      // A job that already completed is closed (job_fn_ reset): joining it
      // late would drain a later job's indices with this job's closure.
      if (job_fn_ == nullptr) continue;
      n = job_n_;
      fn = job_fn_;
      ++job_active_;
    }
    // Schedule-perturbation site between wake-up and drain (chaos tests
    // delay here to make the submitter finish the job alone).
    (void)SCALEIN_FAILPOINT("pool_wake");
    DrainJob(n, *fn);
    std::lock_guard<std::mutex> lock(mu_);
    if (--job_active_ == 0) cv_done_.notify_all();
  }
}

void WorkerPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  parallel_for_calls_.fetch_add(1, std::memory_order_relaxed);
  // Sequential fallbacks: a 1-lane pool, a single task, or a nested call from
  // inside a running task (running it inline keeps composition deadlock-free
  // and deterministic).
  bool inline_run = n == 1 || tls_lane >= 0;
  if (!inline_run) {
    std::lock_guard<std::mutex> lock(mu_);
    inline_run = workers_.empty();
  }
  if (inline_run) {
    for (size_t i = 0; i < n; ++i) {
      fn(i);
      tasks_executed_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }

  std::lock_guard<std::mutex> submit_lock(submit_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_n_ = n;
    job_fn_ = &fn;
    job_next_.store(0, std::memory_order_relaxed);
    job_done_.store(0, std::memory_order_relaxed);
    ++generation_;
  }
  cv_work_.notify_all();
  // The submitting thread is lane 0 and participates in the drain.
  tls_lane = 0;
  DrainJob(n, fn);
  tls_lane = -1;
  // Wait for the tasks *and* for every worker that joined this job: a joined
  // worker still holds `fn` and reads the job's counters, which the next
  // ParallelFor resets.
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [&] {
    return job_done_.load(std::memory_order_acquire) == n && job_active_ == 0;
  });
  job_fn_ = nullptr;
}

WorkerPool& WorkerPool::Global() {
  // Leaked (Google-style static storage): worker threads must not be joined
  // during static destruction.
  static WorkerPool& pool = *new WorkerPool(EnvThreads());
  return pool;
}

size_t WorkerPool::EnvThreads() {
  const char* env = std::getenv("SCALEIN_THREADS");
  if (env == nullptr || *env == '\0') return 1;
  char* end = nullptr;
  const long parsed = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || parsed < 1) return 1;
  return parsed > 64 ? 64 : static_cast<size_t>(parsed);
}

}  // namespace scalein::par
