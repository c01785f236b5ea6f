// wavespice exit-code contract (see the code map in tools/wavespice.cpp and
// `wavespice --help`):
//
//   0 ok, 1 usage, 2 parse/elaboration error, 3 analysis failure,
//   4 run incomplete (budget/watchdog/structured abort), 5 checkpoint error.
//
// Job schedulers and the CI crash-recovery job key off these codes, so each
// one is pinned here by invoking the real binary.  WAVESPICE_BINARY is
// injected by the build (tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include "testutil/json.hpp"

namespace {

std::string Binary() { return WAVESPICE_BINARY; }

/// Runs `wavespice <args>` with stdout/stderr discarded; returns the exit
/// code (-1 when the process did not exit normally).
int RunCli(const std::string& args) {
  const std::string cmd = Binary() + " " + args + " > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  if (status == -1) return -1;
  return WEXITSTATUS(status);
}

std::string WriteDeck(const std::string& name, const std::string& contents) {
  // ctest runs each TEST as its own process, so tests sharing a deck name
  // (RcDeck) can race on the file.  Write-then-rename keeps every reader on
  // a complete deck: rename(2) is atomic within TempDir.
  const std::string path = ::testing::TempDir() + "/" + name;
  const std::string staging = path + "." + std::to_string(::getpid()) + ".tmp";
  {
    std::ofstream out(staging);
    out << contents;
  }
  std::rename(staging.c_str(), path.c_str());
  return path;
}

std::string RcDeck() {
  return WriteDeck("cli_rc.sp",
                   "rc lowpass\n"
                   "V1 in 0 DC 0 PULSE(0 1 1u 1u 1u 100u 200u)\n"
                   "R1 in out 1k\n"
                   "C1 out 0 1n\n"
                   ".tran 1u 200u\n"
                   ".print v(out)\n"
                   ".end\n");
}

TEST(CliExitCodes, CleanRunExitsZero) {
  EXPECT_EQ(RunCli(RcDeck() + " --engine serial"), 0);
}

TEST(CliExitCodes, MissingDeckIsUsageError) { EXPECT_EQ(RunCli(""), 1); }

TEST(CliExitCodes, UnknownFlagIsUsageError) {
  EXPECT_EQ(RunCli(RcDeck() + " --frobnicate"), 1);
}

TEST(CliExitCodes, FlagMissingValueIsUsageError) {
  EXPECT_EQ(RunCli(RcDeck() + " --max-steps"), 1);
}

TEST(CliExitCodes, UnreadableDeckIsParseError) {
  EXPECT_EQ(RunCli("/nonexistent/deck.sp"), 2);
}

TEST(CliExitCodes, MalformedDeckIsParseError) {
  const std::string deck = WriteDeck("cli_bad.sp",
                                     "broken deck\n"
                                     "R1 in out not_a_number\n"
                                     ".tran 1u 10u\n"
                                     ".end\n");
  EXPECT_EQ(RunCli(deck), 2);
}

/// Like RunCli but captures combined stdout+stderr into `output`.
int RunCliCapture(const std::string& args, std::string& output) {
  const std::string log = ::testing::TempDir() + "/cli_capture." +
                          std::to_string(::getpid()) + ".log";
  const std::string cmd = Binary() + " " + args + " > " + log + " 2>&1";
  const int status = std::system(cmd.c_str());
  std::ifstream in(log);
  output.assign(std::istreambuf_iterator<char>(in), {});
  std::remove(log.c_str());
  if (status == -1) return -1;
  return WEXITSTATUS(status);
}

TEST(CliExitCodes, UnknownDirectiveIsStructuredParseError) {
  const std::string deck = WriteDeck("cli_unknown_card.sp",
                                     "unknown card\n"
                                     "R1 in 0 1k\n"
                                     ".frobnicate 1 2 3\n"
                                     ".tran 1u 10u\n"
                                     ".end\n");
  std::string output;
  EXPECT_EQ(RunCliCapture(deck, output), 2);
  // Structured: names the card, the line, and the recognized-but-unsupported
  // cards so a typo is distinguishable from a missing feature.
  EXPECT_NE(output.find(".frobnicate"), std::string::npos) << output;
  EXPECT_NE(output.find("line 3"), std::string::npos) << output;
  EXPECT_NE(output.find(".subckt"), std::string::npos) << output;
}

TEST(CliExitCodes, RecognizedUnsupportedDirectiveIsParseError) {
  const std::string deck = WriteDeck("cli_unsupported_card.sp",
                                     "unsupported card\n"
                                     "R1 in 0 1k\n"
                                     ".subckt inv in out\n"
                                     ".tran 1u 10u\n"
                                     ".end\n");
  std::string output;
  EXPECT_EQ(RunCliCapture(deck, output), 2);
  EXPECT_NE(output.find("recognized but not supported"), std::string::npos)
      << output;
}

std::string SweepDeck(const std::string& step_values) {
  // One file per step list: tests running concurrently with different lists
  // must not swap each other's deck in between write and read.
  std::string tag = step_values;
  std::replace(tag.begin(), tag.end(), ' ', '_');
  return WriteDeck("cli_sweep_" + tag + ".sp",
                   "cli sweep\n"
                   ".param rload=1k\n"
                   "V1 in 0 DC 0 PULSE(0 1 1u 1u 1u 10u 20u)\n"
                   "R1 in out {rload}\n"
                   "C1 out 0 1n\n"
                   ".step param rload list " + step_values + "\n"
                   ".tran 1u 20u\n"
                   ".print v(out)\n"
                   ".end\n");
}

TEST(CliExitCodes, CleanSweepExitsZero) {
  EXPECT_EQ(RunCli(SweepDeck("500 1k") + " --sweep --threads 2"), 0);
}

TEST(CliExitCodes, SweepWithFailingVariantIsIncomplete) {
  // rload=0 elaborates to a zero resistance: that corner fails, the batch
  // finishes, and the partial result is reported as "run incomplete".
  EXPECT_EQ(RunCli(SweepDeck("1k 0") + " --sweep"), 4);
}

// --reduce only rewrites the transient path; batch and .dc/.ac runs would
// silently ignore it, so both combinations are rejected up front.
TEST(CliExitCodes, ReduceWithSweepIsUsageError) {
  std::string output;
  EXPECT_EQ(RunCliCapture(SweepDeck("500 1k") + " --sweep --reduce", output), 1);
  EXPECT_NE(output.find("--reduce cannot be combined with --sweep"), std::string::npos)
      << output;
}

TEST(CliExitCodes, ReduceOnDcOnlyDeckIsUsageError) {
  const std::string deck = WriteDeck("cli_dc_reduce.sp",
                                     "dc only\n"
                                     "V1 in 0 DC 1\n"
                                     "R1 in mid 1k\n"
                                     "R2 mid 0 1k\n"
                                     ".dc V1 0 1 0.5\n"
                                     ".print v(mid)\n"
                                     ".end\n");
  EXPECT_EQ(RunCli(deck), 0);
  std::string output;
  EXPECT_EQ(RunCliCapture(deck + " --reduce", output), 1);
  EXPECT_NE(output.find("--reduce needs a .tran analysis"), std::string::npos) << output;
}

TEST(CliExitCodes, DeckWithoutTranIsParseError) {
  const std::string deck = WriteDeck("cli_notran.sp",
                                     "no tran card\n"
                                     "V1 in 0 DC 1\n"
                                     "R1 in 0 1k\n"
                                     ".end\n");
  EXPECT_EQ(RunCli(deck), 2);
}

// Two ideal sources fighting over one node: no DC operating point exists.
// Both configurations of the serial loop (plain and fine-grained) end in a
// structured abort — exit 4 with a stats JSON marking the run incomplete —
// rather than an unwound analysis failure (exit 3, no JSON).
TEST(CliExitCodes, DcFailureIsIncompleteWithStats) {
  const std::string deck = WriteDeck("cli_dc_fight.sp",
                                     "fighting sources\n"
                                     "V1 a 0 DC 1\n"
                                     "V2 a 0 DC 2\n"
                                     "R1 a 0 1k\n"
                                     ".tran 1u 10u\n"
                                     ".end\n");
  for (const std::string engine : {"serial", "finegrained"}) {
    SCOPED_TRACE(engine);
    const std::string json = ::testing::TempDir() + "/cli_dc_fight_" + engine + "." +
                             std::to_string(::getpid()) + ".json";
    std::remove(json.c_str());
    EXPECT_EQ(RunCli(deck + " --engine " + engine + " --stats-json " + json), 4);
    std::ifstream in(json);
    ASSERT_TRUE(in.good()) << "no stats JSON written";
    const std::string text(std::istreambuf_iterator<char>(in), {});
    const wavepipe::testutil::JsonValue doc = wavepipe::testutil::ParseJson(text);
    ASSERT_EQ(doc.at("completed").kind, wavepipe::testutil::JsonValue::Kind::kBool);
    EXPECT_FALSE(doc.at("completed").boolean);
    std::remove(json.c_str());
  }
}

TEST(CliExitCodes, BudgetExhaustionIsIncomplete) {
  EXPECT_EQ(RunCli(RcDeck() + " --engine serial --max-steps 5"), 4);
}

TEST(CliExitCodes, CorruptCheckpointIsCheckpointError) {
  const std::string base = ::testing::TempDir() + "/cli_corrupt.ckpt";
  std::ofstream(base + ".a") << "not a checkpoint";
  std::ofstream(base + ".b") << "not a checkpoint";
  EXPECT_EQ(RunCli(RcDeck() + " --engine serial --resume " + base), 5);
  std::remove((base + ".a").c_str());
  std::remove((base + ".b").c_str());
}

TEST(CliExitCodes, MismatchedResumeIsCheckpointError) {
  const std::string base = ::testing::TempDir() + "/cli_mismatch.ckpt";
  // Serial checkpoint, stopped early by the step budget...
  ASSERT_EQ(RunCli(RcDeck() + " --engine serial --checkpoint " + base +
                   " --max-steps 5"),
            4);
  // ...resumed into a different engine: fingerprint mismatch, not a crash.
  EXPECT_EQ(RunCli(RcDeck() + " --engine finegrained --resume " + base), 5);
  std::remove((base + ".a").c_str());
  std::remove((base + ".b").c_str());
}

TEST(CliExitCodes, CheckpointResumeRoundTripCompletes) {
  const std::string base = ::testing::TempDir() + "/cli_roundtrip.ckpt";
  const std::string deck = RcDeck();
  ASSERT_EQ(RunCli(deck + " --engine serial --checkpoint " + base +
                   " --max-steps 7"),
            4);
  EXPECT_EQ(RunCli(deck + " --engine serial --resume " + base), 0);
  std::remove((base + ".a").c_str());
  std::remove((base + ".b").c_str());
}

}  // namespace
