// Process-wide observability counters (DESIGN.md §5g).
//
// A fixed registry of named monotonic counters measures the *work done* by
// the pipeline — gate-word evaluations, batches skipped, pruning savings,
// resimulation restarts — the quantities the paper's tables are claims
// about. Two properties drive the design:
//
//  * Determinism. Counts are sharded per ThreadPool worker and summed
//    serially, and every counting site sits inside work whose SET of
//    executions is thread-count independent (the pool's determinism
//    contract plus the wave-scheduled fail-fast of DESIGN.md §5g). Totals
//    are therefore bit-identical across --threads 1/2/4/8.
//  * Cost. count() on the hot paths is one predictable branch when the
//    layer is disabled (UNISCAN_OBS=0), and one relaxed fetch_add on a
//    worker-private cache line when enabled.
//
// CounterScope measures the delta a region of code contributed: inside a
// pool task it reads only the calling worker's shard (nested parallel_for
// runs inline, so a suite task's entire flow stays on one worker); at top
// level it sums all shards (the parallel_for join orders every worker's
// relaxed adds before the caller's reads).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/thread_pool.hpp"

namespace uniscan::obs {

enum class Counter : std::uint8_t {
  GateEvals = 0,        // gate-word evaluations in the fault-sim kernels
  BatchSkips,           // dead/inactive fault batches skipped unsimulated
  ConePruneHits,        // gate-word evaluations avoided by cone pruning
  ResimRestarts,        // omission trials resumed from a checkpoint
  CancelPolls,          // cooperative cancellation polls
  OmissionTrials,       // trial erasures attempted by omission
  RestorationRestores,  // widening restore attempts in restoration
  BatchesRun,           // batch advances executed (a width-dependent count:
                        // wider slot words pack more faults per batch)
  RepackEvents,         // live-fault repacks performed by the sessions
  LanesReclaimed,       // fault lanes freed by repacking (old live batches x
                        // old lanes-per-batch minus the repacked capacity)
  FaultsCollapsed,      // faults removed by equivalence collapsing
  LiveFaultsPeak,       // MAX semantics (count_max): largest concurrently
                        // live fault population seen by any session
  CacheHits,            // serve ArtifactCache lookups served from RAM/disk
  CacheMisses,          // serve ArtifactCache lookups rebuilt from source
  CacheQuarantined,     // corrupt/truncated/version-mismatched disk entries
                        // quarantined and rebuilt (never trusted, never fatal)
  JobsShed,             // jobs rejected by admission control (queue full)
  JobRetries,           // job attempts re-queued after a transient failure
  SatConflicts,         // CDCL conflicts across all SAT engine solves
  SatDecisions,         // CDCL decisions across all SAT engine solves
  SatPropagations,      // CDCL literal propagations across all SAT solves
  SatPlainSolves,       // base-miter solves run because the active-path
                        // stage did not refute the fault (the cost of
                        // keeping models exact, DESIGN.md §5l)
  PodemSearches,        // run_podem calls (every caller, proofs included)
  PodemDecisions,       // PODEM decisions (input or scan-in assignments)
  PodemBacktracks,      // PODEM backtracks (flips of the last open decision)
  FrameGateEvals,       // combinational gates evaluated by FrameModel::
                        // simulate(), kept apart from the fault-sim GateEvals
  OmissionFrames,       // batch-frames simulated by the omission engine:
                        // trace builds, trials and trace syncs
  OmissionConverged,    // omission trial batch advances stopped by a state
                        // match with the accepted run
};
inline constexpr std::size_t kNumCounters = 27;

/// Counters with max semantics: count_max() raises the shard value, totals()
/// max-reduces across shards instead of summing, and CounterScope reports a
/// zero delta (a running maximum has no meaningful per-stage delta; only the
/// process total is defined).
inline constexpr bool counter_is_max(Counter c) noexcept {
  return c == Counter::LiveFaultsPeak;
}

/// Stable snake_case name (the bench-JSON / --metrics key).
const char* counter_name(Counter c) noexcept;

using CounterArray = std::array<std::uint64_t, kNumCounters>;

namespace detail {

inline constexpr std::size_t kMaxShards = 256;  // >= any realistic pool size

struct alignas(64) Shard {
  std::atomic<std::uint64_t> v[kNumCounters] = {};
};

extern Shard g_shards[kMaxShards];
extern std::atomic<bool> g_enabled;

inline Shard& shard_here() noexcept {
  return g_shards[ThreadPool::worker_id() & (kMaxShards - 1)];
}

}  // namespace detail

/// True unless counting was turned off (UNISCAN_OBS=0 or set_enabled).
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on) noexcept;

/// Add `n` to counter `c` on the calling worker's shard. Disabled cost: one
/// predictable branch.
inline void count(Counter c, std::uint64_t n = 1) noexcept {
  if (!enabled()) return;
  detail::shard_here().v[static_cast<std::size_t>(c)].fetch_add(n, std::memory_order_relaxed);
}

/// Raise a max-semantics counter (counter_is_max) to at least `n` on the
/// calling worker's shard; totals() max-reduces the shards.
inline void count_max(Counter c, std::uint64_t n) noexcept {
  if (!enabled()) return;
  std::atomic<std::uint64_t>& v = detail::shard_here().v[static_cast<std::size_t>(c)];
  std::uint64_t cur = v.load(std::memory_order_relaxed);
  while (cur < n && !v.compare_exchange_weak(cur, n, std::memory_order_relaxed)) {
  }
}

/// Serial sum over all shards. Call only while no counted work is in
/// flight (between parallel_for joins); the join's synchronisation makes
/// every worker's relaxed adds visible.
CounterArray totals() noexcept;
std::uint64_t total(Counter c) noexcept;

/// Zero every shard (test isolation; not meant for the hot path).
void reset() noexcept;

/// Wall-clock + counter-delta record of one pipeline stage, carried on the
/// pipeline reports and emitted as the bench-JSON per-stage rows.
struct StageStat {
  std::string name;
  double wall_ms = 0;
  CounterArray counters{};  // deltas contributed by the stage
};

/// Captures the counter state at construction and reports per-counter
/// deltas. See the header comment for the shard-local vs global rule.
class CounterScope {
 public:
  CounterScope() noexcept : local_(ThreadPool::in_pool_task()) {
    if (local_) {
      const detail::Shard& s = detail::shard_here();
      for (std::size_t i = 0; i < kNumCounters; ++i)
        start_[i] = s.v[i].load(std::memory_order_relaxed);
    } else {
      start_ = totals();
    }
  }

  std::uint64_t delta(Counter c) const noexcept {
    if (counter_is_max(c)) return 0;  // running maxima have no stage delta
    const std::size_t i = static_cast<std::size_t>(c);
    const std::uint64_t now =
        local_ ? detail::shard_here().v[i].load(std::memory_order_relaxed) : total(c);
    return now - start_[i];
  }

  CounterArray deltas() const noexcept {
    CounterArray out;
    for (std::size_t i = 0; i < kNumCounters; ++i) out[i] = delta(static_cast<Counter>(i));
    return out;
  }

 private:
  bool local_;
  CounterArray start_{};
};

}  // namespace uniscan::obs
