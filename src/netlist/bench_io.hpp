// Reader and writer for the ISCAS-89 `.bench` netlist format.
//
// Grammar accepted (a superset of the classical format):
//   # comment
//   INPUT(name)
//   OUTPUT(name)
//   name = GATE(op1, op2, ...)       GATE in {AND,NAND,OR,NOR,XOR,XNOR,
//                                    NOT/INV,BUF/BUFF,DFF,MUX,CONST0,CONST1}
//
// OUTPUT lines may appear before the net they reference is defined.
// MUX operand order is (d0, d1, select). Keywords are case-insensitive.
// Logical lines may wrap: a line whose parenthesis is still open, or that
// ends in ',' or '=', continues on the next non-blank line (comments and
// blank lines are tolerated anywhere, including inside a wrapped line).
// Diagnostics carry <source>:<line>: duplicate INPUT, duplicate definition,
// undefined (undriven) nets, arity mismatches, and trailing junk all fail
// loudly instead of parsing to a surprising netlist.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "netlist/netlist.hpp"

namespace uniscan {

/// Parse .bench text. Throws std::runtime_error with a line number (and the
/// originating `source` — typically a file path — when one is given) on
/// malformed input. Lines may end in CRLF or trailing whitespace; echoed
/// fragments of bad lines are capped so a corrupt file cannot explode the
/// diagnostic. The returned netlist is finalized. read_bench reads the whole
/// stream and parses it as read_bench_string does, with the same diagnostics.
Netlist read_bench(std::istream& in, std::string circuit_name, const std::string& source = {});
Netlist read_bench_string(std::string_view text, std::string circuit_name,
                          const std::string& source = {});
Netlist read_bench_file(const std::string& path);

/// Serialize a netlist into .bench text (round-trips through read_bench).
void write_bench(std::ostream& out, const Netlist& nl);
std::string write_bench_string(const Netlist& nl);

}  // namespace uniscan
