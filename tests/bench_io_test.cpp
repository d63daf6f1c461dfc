#include "netlist/bench_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "workloads/circuits.hpp"
#include "workloads/synth_gen.hpp"

namespace uniscan {
namespace {

TEST(BenchIo, ParsesS27) {
  const Netlist nl = read_bench_string(s27_bench_text(), "s27");
  EXPECT_EQ(nl.num_inputs(), 4u);
  EXPECT_EQ(nl.num_dffs(), 3u);
  EXPECT_EQ(nl.num_outputs(), 1u);
  EXPECT_EQ(nl.gate(nl.outputs()[0]).name, "G17");
  // Flip-flop order matches the description order.
  EXPECT_EQ(nl.gate(nl.dffs()[0]).name, "G5");
  EXPECT_EQ(nl.gate(nl.dffs()[1]).name, "G6");
  EXPECT_EQ(nl.gate(nl.dffs()[2]).name, "G7");
}

TEST(BenchIo, RoundTripPreservesStructure) {
  const Netlist a = make_s27();
  const Netlist b = read_bench_string(write_bench_string(a), "s27");
  EXPECT_EQ(a.num_inputs(), b.num_inputs());
  EXPECT_EQ(a.num_outputs(), b.num_outputs());
  EXPECT_EQ(a.num_dffs(), b.num_dffs());
  EXPECT_EQ(a.num_comb_gates(), b.num_comb_gates());
  for (GateId g = 0; g < a.num_gates(); ++g) {
    const auto found = b.find(a.gate(g).name);
    ASSERT_TRUE(found.has_value()) << a.gate(g).name;
    EXPECT_EQ(b.gate(*found).type, a.gate(g).type);
    EXPECT_EQ(b.gate(*found).fanins.size(), a.gate(g).fanins.size());
  }
}

TEST(BenchIo, ForwardReferencesAllowed) {
  // G2 uses G3, defined later.
  const auto text = R"(
INPUT(a)
OUTPUT(G2)
G2 = NOT(G3)
G3 = BUF(a)
)";
  const Netlist nl = read_bench_string(text, "fwd");
  EXPECT_EQ(nl.num_comb_gates(), 2u);
}

TEST(BenchIo, CommentsAndBlankLinesIgnored) {
  const auto text = R"(
# a comment
INPUT(a)   # trailing comment

OUTPUT(o)
o = NOT(a)
)";
  const Netlist nl = read_bench_string(text, "c");
  EXPECT_EQ(nl.num_inputs(), 1u);
}

TEST(BenchIo, UndefinedNetReported) {
  const auto text = "INPUT(a)\nOUTPUT(o)\no = AND(a, ghost)\n";
  EXPECT_THROW(read_bench_string(text, "bad"), std::runtime_error);
}

TEST(BenchIo, UnknownGateReported) {
  const auto text = "INPUT(a)\nOUTPUT(o)\no = FOO(a)\n";
  EXPECT_THROW(read_bench_string(text, "bad"), std::runtime_error);
}

TEST(BenchIo, DuplicateDefinitionReported) {
  const auto text = "INPUT(a)\nOUTPUT(o)\no = NOT(a)\no = BUF(a)\n";
  EXPECT_THROW(read_bench_string(text, "bad"), std::runtime_error);
}

TEST(BenchIo, OutputOfUndefinedNetReported) {
  const auto text = "INPUT(a)\nOUTPUT(ghost)\nx = NOT(a)\n";
  EXPECT_THROW(read_bench_string(text, "bad"), std::runtime_error);
}

TEST(BenchIo, MalformedAssignmentReported) {
  EXPECT_THROW(read_bench_string("INPUT(a)\no NOT(a)\n", "bad"), std::runtime_error);
  EXPECT_THROW(read_bench_string("INPUT(a)\no = NOT a\n", "bad"), std::runtime_error);
}

TEST(BenchIo, ErrorsCarryLineNumbers) {
  try {
    read_bench_string("INPUT(a)\nOUTPUT(o)\no = FOO(a)\n", "bad");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
}

TEST(BenchIo, MuxAndConstParse) {
  const auto text = R"(
INPUT(a)
INPUT(s)
OUTPUT(o)
c1 = CONST1(  )
o = MUX(a, c1, s)
)";
  const Netlist nl = read_bench_string(text, "m");
  const auto o = nl.find("o");
  ASSERT_TRUE(o);
  EXPECT_EQ(nl.gate(*o).type, GateType::Mux2);
}

TEST(BenchIo, MissingFileThrows) {
  EXPECT_THROW(read_bench_file("/nonexistent/foo.bench"), std::runtime_error);
}

TEST(BenchIo, FileParseErrorsNameTheFile) {
  const std::string path = ::testing::TempDir() + "broken.bench";
  {
    std::ofstream f(path);
    f << "INPUT(a)\nOUTPUT(o)\no = FOO(a)\n";
  }
  try {
    read_bench_file(path);
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(BenchIo, DuplicateNamesInFileReportFileAndLine) {
  // A second definition of a net and a repeated OUTPUT are caught by the
  // reader itself, so the message names the file and the offending line.
  const std::string path = ::testing::TempDir() + "duplicate.bench";
  const auto what_of = [&](const char* text) -> std::string {
    {
      std::ofstream f(path);
      f << text;
    }
    try {
      read_bench_file(path);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "no error";
  };
  const std::string gate = what_of("INPUT(a)\nOUTPUT(o)\no = NOT(a)\no = BUF(a)\n");
  EXPECT_NE(gate.find(path + " at line 4: duplicate definition of net 'o'"), std::string::npos)
      << gate;
  const std::string output = what_of("INPUT(a)\nOUTPUT(o)\nOUTPUT(o)\no = NOT(a)\n");
  EXPECT_NE(output.find(path + " at line 3: duplicate OUTPUT 'o'"), std::string::npos) << output;
  std::remove(path.c_str());
}

TEST(BenchIo, CrlfLineEndingsTolerated) {
  const auto text = "INPUT(a)\r\nOUTPUT(o)\r\no = NOT(a)\r\n";
  const Netlist nl = read_bench_string(text, "crlf");
  EXPECT_EQ(nl.num_inputs(), 1u);
  EXPECT_EQ(nl.num_outputs(), 1u);
}

TEST(BenchIo, ContinuationLinesJoined) {
  // Wrapped operand lists (open paren / trailing comma) continue onto the
  // following lines; comments and blank lines may interleave the wrap.
  const auto wrapped = "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(o)\n"
                       "o = AND(a,\n        b,   # wrapped mid-list\n\n        c)\n";
  const Netlist nl = read_bench_string(wrapped, "wrap");
  const auto o = nl.find("o");
  ASSERT_TRUE(o);
  EXPECT_EQ(nl.gate(*o).fanins.size(), 3u);
}

TEST(BenchIo, ContinuationAfterEquals) {
  const auto text = "INPUT(a)\nOUTPUT(o)\no =\n  NOT(a)\n";
  const Netlist nl = read_bench_string(text, "wrap");
  EXPECT_EQ(nl.num_comb_gates(), 1u);
}

TEST(BenchIo, UnterminatedContinuationReported) {
  try {
    read_bench_string("INPUT(a)\nOUTPUT(o)\no = AND(a,\n", "bad");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("unterminated"), std::string::npos) << e.what();
  }
}

TEST(BenchIo, SpellingVariantsAccepted) {
  // BUFF/INV synonyms and lower-case keywords all parse.
  const auto text = "INPUT(a)\nOUTPUT(o)\nb1 = BUFF(a)\nb2 = buff(b1)\n"
                    "n1 = INV(b2)\nd = dff(n1)\no = not(d)\n";
  const Netlist nl = read_bench_string(text, "variants");
  EXPECT_EQ(nl.num_dffs(), 1u);
  EXPECT_EQ(nl.gate(*nl.find("n1")).type, GateType::Not);
  EXPECT_EQ(nl.gate(*nl.find("b2")).type, GateType::Buf);
}

TEST(BenchIo, MixedCaseKeywordsAccepted) {
  const auto text = "Input(a)\niNpUt(b)\noUtPuT(o)\no = NaNd(a, b)\nq = Dff(o)\n"
                    "z = xNoR(a, q)\nOUTPUT(z)\n";
  const Netlist nl = read_bench_string(text, "mixed");
  EXPECT_EQ(nl.num_inputs(), 2u);
  EXPECT_EQ(nl.num_outputs(), 2u);
  EXPECT_EQ(nl.num_dffs(), 1u);
  EXPECT_EQ(nl.gate(*nl.find("o")).type, GateType::Nand);
  EXPECT_EQ(nl.gate(*nl.find("z")).type, GateType::Xnor);
}

TEST(BenchIo, EmptyOperandReported) {
  try {
    read_bench_string("INPUT(a)\nINPUT(b)\nOUTPUT(o)\no = AND(a, , b)\n", "bad");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 4: empty operand"), std::string::npos) << e.what();
  }
}

/// What read_bench_string and read_bench (over a stream) report for `text`:
/// the written-back netlist plus its topological order and levels, or the
/// error text.
std::pair<std::string, std::string> parse_both_ways(const std::string& text) {
  const auto run = [&](bool stream) {
    try {
      std::istringstream is(text);
      const Netlist nl = stream ? read_bench(is, "c", "src.bench")
                                : read_bench_string(text, "c", "src.bench");
      std::string out = write_bench_string(nl);
      for (GateId g : nl.topo_order())
        out += std::to_string(g) + ":" + std::to_string(nl.levels()[g]) + " ";
      return out;
    } catch (const std::runtime_error& e) {
      return "error: " + std::string(e.what());
    }
  };
  return {run(false), run(true)};
}

TEST(BenchIo, StreamAndStringEntryPointsAgree) {
  // Gates defined in reverse topological order exercise forward references.
  std::string reversed = "INPUT(a)\nINPUT(b)\nOUTPUT(z)\n";
  for (const char* line : {"z = AND(y, x)", "y = OR(x, b)", "x = NOT(w)", "w = BUFF(a)"})
    reversed += std::string(line) + "\n";
  SynthSpec spec;
  spec.name = "synth";
  spec.num_inputs = 6;
  spec.num_dffs = 5;
  spec.num_gates = 80;
  const std::vector<std::string> good = {
      std::string(s27_bench_text()),
      write_bench_string(generate_synthetic(spec)),
      reversed,
      "INPUT(a)\nINPUT(b)\nOUTPUT(o)\no = AND(a,\n  # wrapped\n\n  b)\n",
      "Input(a)\noUtPuT(o)\no = NaNd(a, a)\n",
  };
  for (const std::string& text : good) {
    const auto [from_string, from_stream] = parse_both_ways(text);
    EXPECT_EQ(from_string.rfind("error: ", 0), std::string::npos) << from_string;
    EXPECT_EQ(from_string, from_stream);
  }

  // Every malformed case of this file, plus errors reported after a
  // continuation line (the line number is the logical line's first line,
  // and later lines keep their physical numbers).
  const std::string huge(500, 'Z');
  const std::vector<std::string> bad = {
      "INPUT(a)\nOUTPUT(o)\no = AND(a, ghost)\n",
      "INPUT(a)\nOUTPUT(o)\no = FOO(a)\n",
      "INPUT(a)\nOUTPUT(o)\no = NOT(a)\no = BUF(a)\n",
      "INPUT(a)\nOUTPUT(ghost)\nx = NOT(a)\n",
      "INPUT(a)\no NOT(a)\n",
      "INPUT(a)\no = NOT a\n",
      "INPUT(a)\nOUTPUT(o)\no = AND(a,\n",
      "INPUT(a)\nINPUT(a)\nOUTPUT(o)\no = NOT(a)\n",
      "INPUT(a)\nOUTPUT(a)\na = NOT(a)\n",
      "INPUT(a)\nINPUT(b)\nOUTPUT(o)\no = NOT(a, b)\n",
      "INPUT(a)\nINPUT(b)\nOUTPUT(o)\no = MUX(a, b)\n",
      "INPUT(a)\nOUTPUT(o)\no = AND()\n",
      "INPUT(a) junk\nOUTPUT(o)\no = NOT(a)\n",
      "INPUT(a)\nOUTPUT(o)\no = NOT(a) junk\n",
      "INPUT(a)\no = " + huge + "(a)\n",
      "INPUT(a)\nINPUT(b)\nOUTPUT(o)\no = AND(a, , b)\n",
      "INPUT(a)\nOUTPUT(o)\no = AND(a,\n   ghost)\n",
      "INPUT(a)\nOUTPUT(o)\no = AND(a,\n   a)\nx = FOO(a)\n",
      "INPUT(a)\nOUTPUT(o)\nq = DFF(a)\no = NOT(q)\nq = DFF(o)\n",
      "INPUT(a)\nOUTPUT(o)\nOUTPUT(o)\no = NOT(a)\n",
  };
  for (const std::string& text : bad) {
    const auto [from_string, from_stream] = parse_both_ways(text);
    EXPECT_EQ(from_string.rfind("error: ", 0), 0u) << from_string;
    EXPECT_EQ(from_string, from_stream);
  }
  EXPECT_EQ(parse_both_ways(bad[bad.size() - 4]).first,
            "error: bench parse error in src.bench at line 3: undefined net 'ghost'");
  EXPECT_EQ(parse_both_ways(bad[bad.size() - 3]).first,
            "error: bench parse error in src.bench at line 5: unknown gate type 'FOO'");
  // Names the netlist itself would reject are reported by the parser, with
  // the line of the second definition or declaration.
  EXPECT_EQ(parse_both_ways(bad[2]).first,
            "error: bench parse error in src.bench at line 4: duplicate definition of net 'o'");
  EXPECT_EQ(parse_both_ways(bad[8]).first,
            "error: bench parse error in src.bench at line 3: duplicate definition of net 'a'");
  EXPECT_EQ(parse_both_ways(bad[bad.size() - 2]).first,
            "error: bench parse error in src.bench at line 5: duplicate definition of net 'q'");
  EXPECT_EQ(parse_both_ways(bad.back()).first,
            "error: bench parse error in src.bench at line 3: duplicate OUTPUT 'o'");
}

TEST(BenchIo, DuplicateInputReported) {
  try {
    read_bench_string("INPUT(a)\nINPUT(a)\nOUTPUT(o)\no = NOT(a)\n", "bad");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("duplicate INPUT"), std::string::npos) << e.what();
  }
}

TEST(BenchIo, InputRedefinedAsGateReported) {
  EXPECT_THROW(read_bench_string("INPUT(a)\nOUTPUT(a)\na = NOT(a)\n", "bad"),
               std::runtime_error);
}

TEST(BenchIo, ArityMismatchReported) {
  // NOT with two operands, MUX with two, AND with none.
  EXPECT_THROW(read_bench_string("INPUT(a)\nINPUT(b)\nOUTPUT(o)\no = NOT(a, b)\n", "bad"),
               std::runtime_error);
  EXPECT_THROW(read_bench_string("INPUT(a)\nINPUT(b)\nOUTPUT(o)\no = MUX(a, b)\n", "bad"),
               std::runtime_error);
  EXPECT_THROW(read_bench_string("INPUT(a)\nOUTPUT(o)\no = AND()\n", "bad"),
               std::runtime_error);
}

TEST(BenchIo, TrailingJunkReported) {
  EXPECT_THROW(read_bench_string("INPUT(a) junk\nOUTPUT(o)\no = NOT(a)\n", "bad"),
               std::runtime_error);
  EXPECT_THROW(read_bench_string("INPUT(a)\nOUTPUT(o)\no = NOT(a) junk\n", "bad"),
               std::runtime_error);
}

TEST(BenchIo, ErrorExcerptsAreCapped) {
  // A pathologically long identifier must not be echoed wholesale into the
  // error message — it is cut to a short excerpt with a "..." marker.
  const std::string huge(500, 'Z');
  try {
    read_bench_string("INPUT(a)\no = " + huge + "(a)\n", "bad");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_LT(what.size(), 200u) << what;
    EXPECT_NE(what.find("..."), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace uniscan
