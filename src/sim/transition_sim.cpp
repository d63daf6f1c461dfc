#include "sim/transition_sim.hpp"

#include "sim/session_core.hpp"

namespace uniscan {

struct TransitionSimSession::Impl : SessionCoreT<TransitionFaultSimulator> {
  Impl(const Netlist& nl, std::span<const TransitionFault> faults)
      : SessionCoreT<TransitionFaultSimulator>(nl, faults, "TransitionSimSession") {}
};

TransitionSimSession::TransitionSimSession(const Netlist& nl,
                                           std::span<const TransitionFault> faults)
    : impl_(std::make_unique<Impl>(nl, faults)) {}

TransitionSimSession::~TransitionSimSession() = default;
TransitionSimSession::TransitionSimSession(TransitionSimSession&&) noexcept = default;
TransitionSimSession& TransitionSimSession::operator=(TransitionSimSession&&) noexcept = default;

std::size_t TransitionSimSession::advance(const TestSequence& chunk) {
  return impl_->advance(chunk);
}
std::size_t TransitionSimSession::now() const noexcept { return impl_->now(); }
std::size_t TransitionSimSession::num_faults() const noexcept { return impl_->num_faults(); }
bool TransitionSimSession::is_detected(std::size_t i) const { return impl_->is_detected(i); }
const std::vector<DetectionRecord>& TransitionSimSession::detections() const noexcept {
  return impl_->detections();
}
std::size_t TransitionSimSession::num_detected() const noexcept { return impl_->num_detected(); }
const CompiledNetlist& TransitionSimSession::compiled() const noexcept {
  return impl_->compiled();
}
State TransitionSimSession::good_state() const { return impl_->good_state(); }
void TransitionSimSession::pair_state(std::size_t i, State& good, State& faulty,
                                      V3& prev_driven) const {
  impl_->pair_state(i, good, faulty, &prev_driven);
}

TransitionSimSession::Snapshot TransitionSimSession::snapshot() const {
  Snapshot s;
  s.state_ = impl_->snapshot();
  return s;
}

void TransitionSimSession::restore(const Snapshot& s) { impl_->restore(s.state_); }

}  // namespace uniscan
