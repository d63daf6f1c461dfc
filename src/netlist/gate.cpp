#include "netlist/gate.hpp"

#include <utility>

#include "util/string_utils.hpp"

namespace uniscan {

std::string_view gate_type_name(GateType type) noexcept {
  switch (type) {
    case GateType::Input: return "INPUT";
    case GateType::Dff: return "DFF";
    case GateType::Buf: return "BUF";
    case GateType::Not: return "NOT";
    case GateType::And: return "AND";
    case GateType::Nand: return "NAND";
    case GateType::Or: return "OR";
    case GateType::Nor: return "NOR";
    case GateType::Xor: return "XOR";
    case GateType::Xnor: return "XNOR";
    case GateType::Mux2: return "MUX";
    case GateType::Const0: return "CONST0";
    case GateType::Const1: return "CONST1";
  }
  return "?";
}

bool parse_gate_type(std::string_view keyword, GateType& out) noexcept {
  static constexpr std::pair<std::string_view, GateType> kKeywords[] = {
      {"DFF", GateType::Dff},   {"BUF", GateType::Buf},       {"BUFF", GateType::Buf},
      {"NOT", GateType::Not},   {"INV", GateType::Not},       {"AND", GateType::And},
      {"NAND", GateType::Nand}, {"OR", GateType::Or},         {"NOR", GateType::Nor},
      {"XOR", GateType::Xor},   {"XNOR", GateType::Xnor},     {"MUX", GateType::Mux2},
      {"CONST0", GateType::Const0}, {"CONST1", GateType::Const1},
  };
  for (const auto& [name, type] : kKeywords) {
    if (iequals(keyword, name)) {
      out = type;
      return true;
    }
  }
  return false;
}

int gate_type_arity(GateType type) noexcept {
  switch (type) {
    case GateType::Input:
    case GateType::Const0:
    case GateType::Const1:
      return 0;
    case GateType::Dff:
    case GateType::Buf:
    case GateType::Not:
      return 1;
    case GateType::Mux2:
      return 3;
    case GateType::And:
    case GateType::Nand:
    case GateType::Or:
    case GateType::Nor:
    case GateType::Xor:
    case GateType::Xnor:
      return -1;  // one or more
  }
  return -1;
}

}  // namespace uniscan
