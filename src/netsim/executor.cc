#include "netsim/executor.h"

#include "common/check.h"

namespace dflp::net {

ParallelExecutor::ParallelExecutor(int num_threads) {
  DFLP_CHECK_MSG(num_threads >= 1, "num_threads must be >= 1");
  const auto workers = static_cast<std::size_t>(num_threads - 1);
  shards_.resize(workers);
  errors_.resize(workers);
  threads_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w)
    threads_.emplace_back([this, w] { worker_loop(w); });
}

ParallelExecutor::~ParallelExecutor() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ParallelExecutor::worker_loop(std::size_t idx) {
  std::unique_lock<std::mutex> lk(mu_);
  std::uint64_t seen = 0;
  for (;;) {
    work_cv_.wait(lk, [&] { return stop_ || epoch_ != seen; });
    if (stop_) return;
    seen = epoch_;
    const Shard shard = shards_[idx];
    const JobFn job = job_;
    void* const ctx = job_ctx_;
    lk.unlock();
    std::exception_ptr err;
    if (shard.begin < shard.end) {
      try {
        job(ctx, idx + 1, shard.begin, shard.end);
      } catch (...) {
        err = std::current_exception();
      }
    }
    lk.lock();
    errors_[idx] = err;
    if (--pending_ == 0) done_cv_.notify_all();
  }
}

void ParallelExecutor::dispatch(std::size_t n, JobFn invoke, void* ctx) {
  // Partition [0, n) into num_threads contiguous shards; the first goes
  // to the calling thread, the rest to the workers.
  const Shard own = shard(n, 0);
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (std::size_t w = 0; w < threads_.size(); ++w) {
      shards_[w] = shard(n, w + 1);
      errors_[w] = nullptr;
    }
    DFLP_CHECK(shards_.empty() || shards_.back().end == n);
    job_ = invoke;
    job_ctx_ = ctx;
    pending_ = static_cast<int>(threads_.size());
    ++epoch_;
  }
  work_cv_.notify_all();

  std::exception_ptr own_err;
  if (own.begin < own.end) {
    try {
      invoke(ctx, 0, own.begin, own.end);
    } catch (...) {
      own_err = std::current_exception();
    }
  }

  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [&] { return pending_ == 0; });
  job_ = nullptr;
  job_ctx_ = nullptr;
  if (own_err) std::rethrow_exception(own_err);
  for (const std::exception_ptr& err : errors_) {
    if (err) std::rethrow_exception(err);
  }
}

}  // namespace dflp::net
