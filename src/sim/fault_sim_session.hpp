// Streaming fault simulation session.
//
// The sequential test generator extends one global test sequence T by
// subsequences. Re-simulating T from power-up after every extension would be
// quadratic, so the session keeps the good and faulty machine states of the
// whole fault universe and advances them incrementally. Candidate
// subsequences can be evaluated tentatively via snapshot/restore.
//
// One class template, SimSessionT<Model>, serves both fault models
// (FaultSimSession; TransitionSimSession in sim/transition_sim.hpp) as a
// pimpl over the shared SessionCoreT engine (DESIGN.md §5c/§5d/§5j): one
// BatchRunnerT + SimBatchStateT per fault batch (63/255/511 faults per
// batch — see sim/slot_word.hpp), packed hardest-first (sim/fault_order.hpp)
// so batches whose faults are all detected go cold early and are skipped
// without simulation; the live batches of every advance() fan out across
// ThreadPool::global(). Between advances the core repacks surviving faults
// into dense batches and narrows the slot word as the live population
// shrinks (sim/engine.hpp). Each batch writes only its own state and
// detection slots and the merge runs serially in batch order, so results
// are bit-identical at every thread count — and at every width and packing,
// because per-fault detection is a pure function of that fault's slot.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fault/fault.hpp"
#include "sim/checkpoint.hpp"
#include "sim/fault_sim.hpp"
#include "sim/sequence.hpp"
#include "sim/sequential_sim.hpp"

namespace uniscan {

template <class Sim>
class SessionCoreT;

template <class Model>
class SimSessionT {
 public:
  using fault_type = typename Model::fault_type;

  /// The session references (not copies) `nl`; it must outlive the session.
  SimSessionT(const Netlist& nl, std::span<const fault_type> faults);
  ~SimSessionT();
  SimSessionT(SimSessionT&&) noexcept;
  SimSessionT& operator=(SimSessionT&&) noexcept;

  /// Advance all machines by the vectors of `chunk` (which must be fully
  /// specified — no X primary inputs — so that detections are real).
  /// Returns the number of newly detected faults.
  std::size_t advance(const TestSequence& chunk);

  /// Current clock cycle (total vectors advanced so far).
  std::size_t now() const noexcept;

  std::size_t num_faults() const noexcept;
  bool is_detected(std::size_t fault_index) const;
  const std::vector<DetectionRecord>& detections() const noexcept;
  std::size_t num_detected() const noexcept;

  /// Compiled form of the netlist, shared by all of the session's runners
  /// (and reusable by FrameModels targeting the same circuit).
  const CompiledNetlist& compiled() const noexcept;

  /// Good-machine state entering the next frame.
  State good_state() const;

  /// (good, faulty) state pair of fault `fault_index` entering the next
  /// frame; faulty == good wherever no effect is latched. When
  /// `prev_driven` is non-null it receives the faulted line's previous
  /// driven value (the transition model's launch history, which seeds the
  /// ATPG window's FrameModel::set_initial_prev_driven).
  void pair_state(std::size_t fault_index, State& good, State& faulty,
                  V3* prev_driven = nullptr) const;

  /// Opaque resumable session state. Only batches that were live (some fault
  /// still undetected) at capture time carry a machine state: a batch dead
  /// at capture time was dead — and therefore skipped, untouched — ever
  /// since it died, and a batch can only return to life through a restore
  /// that also restores its state. The snapshot pins the batch pack it was
  /// captured under, so restoring across an intervening repack (even one
  /// that changed the slot width) re-installs that exact pack. Copyable;
  /// only valid for the session that produced it — restoring into a
  /// different session throws std::invalid_argument.
  class Snapshot {
   public:
    Snapshot() = default;

   private:
    friend class SimSessionT;
    std::shared_ptr<const void> state_;
  };
  Snapshot snapshot() const;
  void restore(const Snapshot& s);

 private:
  std::unique_ptr<SessionCoreT<FaultSimulatorT<Model>>> core_;
};

using FaultSimSession = SimSessionT<StuckAtModel>;

}  // namespace uniscan
