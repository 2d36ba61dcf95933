// Deterministic fork-join executor for the round engine's step phase.
//
// Work is partitioned into contiguous index shards — one per worker — so a
// run over [0, n) touches every index exactly once and each worker's slice
// is a deterministic function of (n, num_threads). The pool is persistent:
// workers are spawned once and parked between rounds, so the per-round
// dispatch cost is two condition-variable handshakes, not thread churn.
//
// Determinism contract: the executor guarantees nothing about the relative
// timing of shards. Callers must make shard bodies independent (the step
// phase writes only per-node state) and do any order-sensitive merging
// afterwards (the commit phase runs serially in canonical order). If a
// shard throws, the remaining shards still finish and the exception of the
// lowest-indexed failing shard is rethrown — since each shard runs its
// indices in ascending order, this is exactly the error a serial in-order
// execution would have raised first.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace dflp::net {

class ParallelExecutor {
 public:
  /// Spawns `num_threads - 1` workers; the calling thread always executes
  /// the lowest shard itself. With num_threads <= 1 no threads are created
  /// and for_shards runs inline (exactly the historical serial engine).
  explicit ParallelExecutor(int num_threads);
  ~ParallelExecutor();

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  /// Runs `fn(s, begin, end)` over the contiguous shards s covering [0, n)
  /// (see shard()) and blocks until every shard finished. Rethrows the
  /// exception of the lowest-indexed failing shard, if any. The shard
  /// index is fixed by the partition, so callers can own one buffer per
  /// shard without claiming it at run time. The callable is borrowed for
  /// the duration of the call through a raw (function pointer, context)
  /// pair — no std::function, so the per-round dispatch never allocates
  /// (the steady-state zero-allocation contract in arena_alloc_test.cc
  /// covers this path).
  template <typename F>
  void for_shards(std::size_t n, F&& fn) {
    if (threads_.empty()) {
      if (n > 0) fn(std::size_t{0}, std::size_t{0}, n);
      return;
    }
    using Fn = std::remove_reference_t<F>;
    dispatch(n,
             [](void* ctx, std::size_t s, std::size_t begin,
                std::size_t end) { (*static_cast<Fn*>(ctx))(s, begin, end); },
             const_cast<std::remove_const_t<Fn>*>(&fn));
  }

  [[nodiscard]] int num_threads() const noexcept {
    return static_cast<int>(threads_.size()) + 1;
  }

  struct Shard {
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  /// Shard `s` (0 <= s < num_threads()) of for_shards(n): shard 0 runs on
  /// the caller, shard w + 1 on worker w. Every shard holds n / threads
  /// indices, the first n % threads one more; shards are empty when
  /// n < threads and for_shards never invokes `fn` on an empty one.
  [[nodiscard]] Shard shard(std::size_t n, std::size_t s) const noexcept {
    const auto total = static_cast<std::size_t>(num_threads());
    const std::size_t chunk = n / total;
    const std::size_t rem = n % total;
    const std::size_t begin = s * chunk + std::min(s, rem);
    return {begin, begin + chunk + (s < rem ? 1 : 0)};
  }

  /// Number of shards for_shards(n) invokes: they are shards
  /// [0, shards_used(n)), every one non-empty.
  [[nodiscard]] std::size_t shards_used(std::size_t n) const noexcept {
    return std::min(n, static_cast<std::size_t>(num_threads()));
  }

 private:
  /// Type-erased shard body: `invoke(ctx, s, begin, end)` calls the
  /// borrowed callable. Both stay valid for the duration of the dispatch
  /// only.
  using JobFn = void (*)(void*, std::size_t, std::size_t, std::size_t);

  void dispatch(std::size_t n, JobFn invoke, void* ctx);
  void worker_loop(std::size_t idx);

  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  JobFn job_ = nullptr;
  void* job_ctx_ = nullptr;
  std::vector<Shard> shards_;                 ///< per worker, current job
  std::vector<std::exception_ptr> errors_;    ///< per worker, current job
  std::uint64_t epoch_ = 0;
  int pending_ = 0;
  bool stop_ = false;
};

}  // namespace dflp::net
