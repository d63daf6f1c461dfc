#include "sat/encode.hpp"

#include <cstddef>
#include <vector>

namespace uniscan::sat {
namespace {

/// Dual-rail value of one net in one machine copy: `one` true means the net
/// is 1, `zero` true means 0, both false means X. Mirrors the W3T plane
/// encoding (sim/logic3.hpp) literal for literal, so every gate formula
/// below is the CNF shadow of the corresponding w3_* kernel op.
struct RailPair {
  Lit one;
  Lit zero;
};

bool same(RailPair a, RailPair b) noexcept { return a.one == b.one && a.zero == b.zero; }

/// Rails are complementary exactly when the value is known-binary; binary
/// operands let every op emit one Tseitin definition instead of two and keep
/// the result binary, so a fully assignable miter degenerates to a plain
/// Boolean encoding.
bool binary(RailPair p) noexcept { return p.zero == ~p.one; }

class Builder {
 public:
  explicit Builder(Cnf& cnf) : cnf_(cnf) {
    t_ = lit(cnf_.new_var());  // var 0: constant true, pinned by a unit clause
    cnf_.add({t_});
  }

  Lit t() const noexcept { return t_; }
  Lit f() const noexcept { return ~t_; }

  RailPair pair_const(V3 v) const noexcept {
    if (v == V3::Zero) return {f(), t()};
    if (v == V3::One) return {t(), f()};
    return {f(), f()};
  }
  RailPair pair_var(Var v) const noexcept { return {lit(v), ~lit(v)}; }

  Lit mk_and2(Lit a, Lit b) {
    if (a == f() || b == f() || a == ~b) return f();
    if (a == t() || a == b) return b;
    if (b == t()) return a;
    const Lit d = lit(cnf_.new_var());
    cnf_.add({~d, a});
    cnf_.add({~d, b});
    cnf_.add({d, ~a, ~b});
    return d;
  }
  Lit mk_or2(Lit a, Lit b) {
    if (a == t() || b == t() || a == ~b) return t();
    if (a == f() || a == b) return b;
    if (b == f()) return a;
    const Lit d = lit(cnf_.new_var());
    cnf_.add({d, ~a});
    cnf_.add({d, ~b});
    cnf_.add({~d, a, b});
    return d;
  }
  Lit mk_or3(Lit a, Lit b, Lit c) { return mk_or2(mk_or2(a, b), c); }
  Lit mk_xor2(Lit a, Lit b) {
    if (a == f()) return b;
    if (b == f()) return a;
    if (a == t()) return ~b;
    if (b == t()) return ~a;
    if (a == b) return f();
    if (a == ~b) return t();
    const Lit d = lit(cnf_.new_var());
    cnf_.add({~d, a, b});
    cnf_.add({~d, ~a, ~b});
    cnf_.add({d, a, ~b});
    cnf_.add({d, ~a, b});
    return d;
  }

  // Kleene connectives over rail pairs (the w3_* ops, clause for clause).
  RailPair knot(RailPair a) { return {a.zero, a.one}; }
  RailPair kand(RailPair a, RailPair b) {
    const Lit one = mk_and2(a.one, b.one);
    if (binary(a) && binary(b)) return {one, ~one};
    return {one, mk_or2(a.zero, b.zero)};
  }
  RailPair kor(RailPair a, RailPair b) {
    const Lit one = mk_or2(a.one, b.one);
    if (binary(a) && binary(b)) return {one, ~one};
    return {one, mk_and2(a.zero, b.zero)};
  }
  RailPair kxor(RailPair a, RailPair b) {
    if (binary(a) && binary(b)) {
      const Lit one = mk_xor2(a.one, b.one);
      return {one, ~one};
    }
    return {mk_or2(mk_and2(a.one, b.zero), mk_and2(a.zero, b.one)),
            mk_or2(mk_and2(a.one, b.one), mk_and2(a.zero, b.zero))};
  }
  RailPair kmux(RailPair d0, RailPair d1, RailPair s) {
    if (binary(d0) && binary(d1) && binary(s)) {
      const Lit one = mk_or2(mk_and2(s.zero, d0.one), mk_and2(s.one, d1.one));
      return {one, ~one};
    }
    // Optimistic-X MUX: the (d0 & d1) consensus terms are what make an
    // X select with agreeing data inputs produce the agreed value.
    return {mk_or3(mk_and2(s.zero, d0.one), mk_and2(s.one, d1.one), mk_and2(d0.one, d1.one)),
            mk_or3(mk_and2(s.zero, d0.zero), mk_and2(s.one, d1.zero), mk_and2(d0.zero, d1.zero))};
  }

  RailPair eval_gate(GateType type, const std::vector<RailPair>& in) {
    switch (type) {
      case GateType::Buf: return in[0];
      case GateType::Not: return knot(in[0]);
      case GateType::And:
      case GateType::Nand: {
        RailPair acc = in[0];
        for (std::size_t p = 1; p < in.size(); ++p) acc = kand(acc, in[p]);
        return type == GateType::Nand ? knot(acc) : acc;
      }
      case GateType::Or:
      case GateType::Nor: {
        RailPair acc = in[0];
        for (std::size_t p = 1; p < in.size(); ++p) acc = kor(acc, in[p]);
        return type == GateType::Nor ? knot(acc) : acc;
      }
      case GateType::Xor:
      case GateType::Xnor: {
        RailPair acc = in[0];
        for (std::size_t p = 1; p < in.size(); ++p) acc = kxor(acc, in[p]);
        return type == GateType::Xnor ? knot(acc) : acc;
      }
      case GateType::Mux2: return kmux(in[0], in[1], in[2]);
      case GateType::Const0: return pair_const(V3::Zero);
      case GateType::Const1: return pair_const(V3::One);
      case GateType::Input:
      case GateType::Dff: break;  // boundary gates never reach eval
    }
    return pair_const(V3::X);
  }

  /// is_d_or_dbar over rails: both machines known and different.
  Lit mk_diff(RailPair g, RailPair f) {
    return mk_or2(mk_and2(g.one, f.zero), mk_and2(g.zero, f.one));
  }

 private:
  Cnf& cnf_;
  Lit t_;
};

/// The active-path group (DESIGN.md §5l), appended after the base miter and
/// read off its recorded rails. A gate whose rails are literal-identical in
/// both machines can never carry a difference, so it gets no path variable.
void add_active_path(Builder& b, const CompiledNetlist& cnl, GateId site, MiterEncoding& enc) {
  const std::size_t ng = cnl.num_gates();
  std::vector<bool> sink(ng, false);  // a difference here is observed: PO or DFF D driver
  for (GateId po : cnl.outputs()) sink[po] = true;
  for (GateId d : cnl.dff_d()) sink[d] = true;

  std::vector<Lit> s(ng);
  Clause site_frames, fanout;
  for (std::size_t f = 0; f < enc.frames; ++f) {
    const std::size_t row = f * ng;
    const auto good = [&](std::size_t g) {
      return RailPair{enc.good_one[row + g], enc.good_zero[row + g]};
    };
    const auto faulty = [&](std::size_t g) {
      return RailPair{enc.fault_one[row + g], enc.fault_zero[row + g]};
    };
    for (std::size_t g = 0; g < ng; ++g)
      s[g] = same(good(g), faulty(g)) ? kLitUndef : lit(enc.cnf.new_var());
    for (std::size_t g = 0; g < ng; ++g) {
      if (s[g] == kLitUndef) continue;
      enc.cnf.add({~s[g], b.mk_diff(good(g), faulty(g))});
      if (sink[g]) continue;
      // Not observed here, so the effect must move on to a fanout. A DFF
      // fanout would make g a D driver, so every fanout left is combinational.
      fanout.assign(1, ~s[g]);
      for (GateId h : cnl.fanouts(static_cast<GateId>(g)))
        if (s[h] != kLitUndef) fanout.push_back(s[h]);
      enc.cnf.add(fanout);
    }
    if (s[site] != kLitUndef) site_frames.push_back(s[site]);
  }
  // Some frame's path starts at the fault site. Empty when the site never
  // differs: then no test exists and the formula is trivially UNSAT.
  enc.cnf.add(std::move(site_frames));
}

MiterEncoding encode_impl(const CompiledNetlist& cnl, const Fault& fault, bool is_transition,
                          bool slow_to_rise, const EncodeOptions& options) {
  const std::size_t ng = cnl.num_gates();
  const auto& inputs = cnl.inputs();
  const auto& dffs = cnl.dffs();
  const auto& dff_d = cnl.dff_d();
  const std::uint32_t* fanin_off = cnl.fanin_offsets();
  const GateId* fanin_ids = cnl.fanin_id_data();
  const std::size_t npi = inputs.size();
  const std::size_t ndff = dffs.size();

  MiterEncoding enc;
  enc.frames = options.frames;
  enc.num_inputs = npi;
  enc.num_dffs = ndff;
  Builder b(enc.cnf);

  // The one forcing site, identical to FrameModel::forced_faulty: a stuck-at
  // fault drives a constant; a transition fault needs the faulty driven value
  // in consecutive frames (STR: this AND previous, STF: this OR previous).
  const auto force = [&](RailPair driven, RailPair prev) -> RailPair {
    if (!is_transition) return b.pair_const(fault.stuck_one ? V3::One : V3::Zero);
    return slow_to_rise ? b.kand(driven, prev) : b.kor(driven, prev);
  };

  // Per-net values this frame; the faulty copy aliases the good copy (same
  // literals) outside the fault's fanout cone, discovered on the fly: a gate
  // re-encodes in the faulty machine only if it is the fault site or reads a
  // net whose faulty rails already differ.
  std::vector<RailPair> gval(ng, b.pair_const(V3::X));
  std::vector<RailPair> fval(ng, b.pair_const(V3::X));
  std::vector<RailPair> good_state(ndff), faulty_state(ndff);
  if (options.state_assignable) {
    enc.state_var.resize(ndff);
    for (std::size_t j = 0; j < ndff; ++j) {
      enc.state_var[j] = enc.cnf.new_var();
      good_state[j] = faulty_state[j] = b.pair_var(enc.state_var[j]);
    }
  } else {
    for (std::size_t j = 0; j < ndff; ++j)
      good_state[j] = faulty_state[j] = b.pair_const(V3::X);  // all-X power-up
  }

  enc.pi_var.resize(options.frames * npi);
  RailPair prev;
  if (is_transition && options.tf_prev_assignable) {
    enc.tf_prev_var = enc.cnf.new_var();
    prev = b.pair_var(*enc.tf_prev_var);
  } else {
    prev = b.pair_const(options.tf_prev_init);
  }
  std::vector<Lit> detect;
  std::vector<RailPair> ins_g, ins_f;

  const GateType fault_gate_type = cnl.type(fault.gate);
  const bool stem_on_boundary =
      fault.pin == kStemPin &&
      (fault_gate_type == GateType::Input || fault_gate_type == GateType::Dff);

  for (std::size_t f = 0; f < options.frames; ++f) {
    // Frame boundary: PIs are fresh decision variables shared by both
    // machines; DFF outputs read the carried state pairs.
    for (std::size_t i = 0; i < npi; ++i) {
      const Var v = enc.cnf.new_var();
      enc.pi_var[f * npi + i] = v;
      gval[inputs[i]] = fval[inputs[i]] = b.pair_var(v);
    }
    for (std::size_t j = 0; j < ndff; ++j) {
      gval[dffs[j]] = good_state[j];
      fval[dffs[j]] = faulty_state[j];
    }

    RailPair driven_this = b.pair_const(V3::X);
    if (stem_on_boundary) {
      driven_this = fval[fault.gate];
      fval[fault.gate] = force(driven_this, prev);
    }

    // Combinational core in the compiled evaluation order.
    for (GateId g : cnl.eval_order()) {
      const std::uint32_t lo = fanin_off[g];
      const std::size_t n = fanin_off[g + 1] - lo;
      ins_g.clear();
      for (std::size_t p = 0; p < n; ++p) ins_g.push_back(gval[fanin_ids[lo + p]]);
      gval[g] = b.eval_gate(cnl.type(g), ins_g);

      const bool is_fault_gate = g == fault.gate;
      bool in_cone = is_fault_gate;
      for (std::size_t p = 0; p < n && !in_cone; ++p)
        in_cone = !same(fval[fanin_ids[lo + p]], gval[fanin_ids[lo + p]]);
      if (!in_cone) {
        fval[g] = gval[g];
        continue;
      }
      ins_f.clear();
      for (std::size_t p = 0; p < n; ++p) ins_f.push_back(fval[fanin_ids[lo + p]]);
      if (is_fault_gate && fault.pin != kStemPin) {
        driven_this = ins_f[static_cast<std::size_t>(fault.pin)];
        ins_f[static_cast<std::size_t>(fault.pin)] = force(driven_this, prev);
      }
      RailPair out = b.eval_gate(cnl.type(g), ins_f);
      if (is_fault_gate && fault.pin == kStemPin) {
        driven_this = out;
        out = force(out, prev);
      }
      fval[g] = out;
    }

    // Observation at a primary output of this frame.
    for (GateId po : cnl.outputs())
      if (!same(gval[po], fval[po])) detect.push_back(b.mk_diff(gval[po], fval[po]));

    for (std::size_t g = 0; g < ng; ++g) {
      enc.good_one.push_back(gval[g].one);
      enc.good_zero.push_back(gval[g].zero);
      enc.fault_one.push_back(fval[g].one);
      enc.fault_zero.push_back(fval[g].zero);
    }

    // Capture (with DFF D-pin branch forcing) and latched-effect observation.
    for (std::size_t j = 0; j < ndff; ++j) {
      const RailPair dg = gval[dff_d[j]];
      RailPair df = fval[dff_d[j]];
      if (fault.pin == 0 && fault.gate == dffs[j] && fault_gate_type == GateType::Dff) {
        driven_this = df;
        df = force(df, prev);
      }
      good_state[j] = dg;
      faulty_state[j] = df;
      if (!same(dg, df)) detect.push_back(b.mk_diff(dg, df));
    }
    prev = driven_this;
  }

  // ScanObserve: some frame's PO or latched state shows the effect. A fault
  // whose cone never reaches an observation point has no detect literals and
  // the empty clause makes the miter trivially UNSAT.
  enc.cnf.add(std::move(detect));

  enc.base_vars = enc.cnf.num_vars;
  enc.base_clauses = enc.cnf.clauses.size();
  const bool d_pin_fault = fault.pin == 0 && fault_gate_type == GateType::Dff;
  if (!enc.cnf.has_empty_clause && !d_pin_fault) add_active_path(b, cnl, fault.gate, enc);
  return enc;
}

}  // namespace

MiterEncoding encode_fault_miter(const CompiledNetlist& cnl, const Fault& fault,
                                 const EncodeOptions& options) {
  return encode_impl(cnl, fault, /*is_transition=*/false, /*slow_to_rise=*/false, options);
}

MiterEncoding encode_fault_miter(const CompiledNetlist& cnl, const TransitionFault& fault,
                                 const EncodeOptions& options) {
  return encode_impl(cnl, Fault{fault.gate, fault.pin, /*stuck_one=*/!fault.slow_to_rise},
                     /*is_transition=*/true, fault.slow_to_rise, options);
}

}  // namespace uniscan::sat
