#include "obs/counters.hpp"

#include <cstdlib>
#include <cstring>

namespace uniscan::obs {

namespace detail {

Shard g_shards[kMaxShards];

namespace {
bool enabled_from_env() {
  const char* v = std::getenv("UNISCAN_OBS");
  return v == nullptr || std::strcmp(v, "0") != 0;
}
}  // namespace

std::atomic<bool> g_enabled{enabled_from_env()};

}  // namespace detail

const char* counter_name(Counter c) noexcept {
  switch (c) {
    case Counter::GateEvals: return "gate_evals";
    case Counter::BatchSkips: return "batch_skips";
    case Counter::ConePruneHits: return "cone_prune_hits";
    case Counter::ResimRestarts: return "resim_restarts";
    case Counter::CancelPolls: return "cancel_polls";
    case Counter::OmissionTrials: return "omission_trials";
    case Counter::RestorationRestores: return "restoration_restores";
    case Counter::BatchesRun: return "batches_run";
    case Counter::RepackEvents: return "repack_events";
    case Counter::LanesReclaimed: return "lanes_reclaimed";
    case Counter::FaultsCollapsed: return "faults_collapsed";
    case Counter::LiveFaultsPeak: return "live_faults_peak";
    case Counter::SatConflicts: return "sat_conflicts";
    case Counter::SatDecisions: return "sat_decisions";
    case Counter::SatPropagations: return "sat_propagations";
    case Counter::SatPlainSolves: return "sat_plain_solves";
    case Counter::PodemSearches: return "podem_searches";
    case Counter::PodemDecisions: return "podem_decisions";
    case Counter::PodemBacktracks: return "podem_backtracks";
    case Counter::FrameGateEvals: return "frame_gate_evals";
    case Counter::OmissionFrames: return "omission_frames";
    case Counter::OmissionConverged: return "omission_converged";
  }
  return "unknown";
}

void set_enabled(bool on) noexcept { detail::g_enabled.store(on, std::memory_order_relaxed); }

CounterArray totals() noexcept {
  CounterArray out{};
  for (const detail::Shard& s : detail::g_shards)
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      const std::uint64_t v = s.v[i].load(std::memory_order_relaxed);
      if (counter_is_max(static_cast<Counter>(i))) {
        if (v > out[i]) out[i] = v;
      } else {
        out[i] += v;
      }
    }
  return out;
}

std::uint64_t total(Counter c) noexcept {
  const std::size_t i = static_cast<std::size_t>(c);
  const bool is_max = counter_is_max(c);
  std::uint64_t acc = 0;
  for (const detail::Shard& s : detail::g_shards) {
    const std::uint64_t v = s.v[i].load(std::memory_order_relaxed);
    if (is_max) {
      if (v > acc) acc = v;
    } else {
      acc += v;
    }
  }
  return acc;
}

void reset() noexcept {
  for (detail::Shard& s : detail::g_shards)
    for (std::size_t i = 0; i < kNumCounters; ++i) s.v[i].store(0, std::memory_order_relaxed);
}

}  // namespace uniscan::obs
