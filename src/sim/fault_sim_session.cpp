#include "sim/fault_sim_session.hpp"

#include <type_traits>

#include "sim/session_core.hpp"
#include "sim/transition_sim.hpp"

namespace uniscan {

template <class Model>
SimSessionT<Model>::SimSessionT(const Netlist& nl, std::span<const fault_type> faults)
    : core_(std::make_unique<SessionCoreT<FaultSimulatorT<Model>>>(
          nl, faults,
          std::is_same_v<Model, StuckAtModel> ? "FaultSimSession" : "TransitionSimSession")) {}

template <class Model>
SimSessionT<Model>::~SimSessionT() = default;
template <class Model>
SimSessionT<Model>::SimSessionT(SimSessionT&&) noexcept = default;
template <class Model>
SimSessionT<Model>& SimSessionT<Model>::operator=(SimSessionT&&) noexcept = default;

template <class Model>
std::size_t SimSessionT<Model>::advance(const TestSequence& chunk) { return core_->advance(chunk); }
template <class Model>
std::size_t SimSessionT<Model>::now() const noexcept { return core_->now(); }
template <class Model>
std::size_t SimSessionT<Model>::num_faults() const noexcept { return core_->num_faults(); }
template <class Model>
bool SimSessionT<Model>::is_detected(std::size_t i) const { return core_->is_detected(i); }
template <class Model>
const std::vector<DetectionRecord>& SimSessionT<Model>::detections() const noexcept {
  return core_->detections();
}
template <class Model>
std::size_t SimSessionT<Model>::num_detected() const noexcept { return core_->num_detected(); }
template <class Model>
const CompiledNetlist& SimSessionT<Model>::compiled() const noexcept { return core_->compiled(); }
template <class Model>
State SimSessionT<Model>::good_state() const { return core_->good_state(); }
template <class Model>
void SimSessionT<Model>::pair_state(std::size_t i, State& good, State& faulty,
                                    V3* prev_driven) const {
  core_->pair_state(i, good, faulty, prev_driven);
}

template <class Model>
typename SimSessionT<Model>::Snapshot SimSessionT<Model>::snapshot() const {
  Snapshot s;
  s.state_ = core_->snapshot();
  return s;
}

template <class Model>
void SimSessionT<Model>::restore(const Snapshot& s) { core_->restore(s.state_); }

template class SimSessionT<StuckAtModel>;
template class SimSessionT<TransitionModel>;

}  // namespace uniscan
