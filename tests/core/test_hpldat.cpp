#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "core/hpldat.hpp"
#include "util/error.hpp"

namespace hplx::core {
namespace {

const char kClassic[] =
    "HPLinpack benchmark input file\n"
    "Innovative Computing Laboratory, University of Tennessee\n"
    "HPL.out      output file name (if any)\n"
    "6            device out (6=stdout,7=stderr,file)\n"
    "4            # of problems sizes (N)\n"
    "29 30 34 35  Ns\n"
    "4            # of NBs\n"
    "1 2 3 4      NBs\n"
    "0            PMAP process mapping (0=Row-,1=Column-major)\n"
    "3            # of process grids (P x Q)\n"
    "2 1 4        Ps\n"
    "2 4 1        Qs\n"
    "16.0         threshold\n"
    "3            # of panel fact\n"
    "0 1 2        PFACTs (0=left, 1=Crout, 2=Right)\n"
    "2            # of recursive stopping criterium\n"
    "2 4          NBMINs (>= 1)\n"
    "1            # of panels in recursion\n"
    "2            NDIVs\n"
    "3            # of recursive panel fact.\n"
    "0 1 2        RFACTs (0=left, 1=Crout, 2=Right)\n"
    "1            # of lookahead depth\n"
    "1            DEPTHs (>=0)\n"
    "2            # of broadcast\n"
    "1 3          BCASTs (0=1rg,1=1rM,2=2rg,3=2rM,4=Lng,5=LnM)\n"
    "1            SWAP (0=bin-exch,1=long,2=mix)\n"
    "64           swapping threshold\n"
    "0            L1 in (0=transposed,1=no-transposed) form\n"
    "0            U  in (0=transposed,1=no-transposed) form\n"
    "1            Equilibration (0=no,1=yes)\n"
    "8            memory alignment in double (> 0)\n";

TEST(HplDat, ParsesTheCanonicalNetlibFile) {
  const HplDat dat = parse_hpldat_string(kClassic);
  EXPECT_EQ(dat.output_file, "HPL.out");
  EXPECT_EQ(dat.device_out, 6);
  EXPECT_EQ(dat.ns, (std::vector<long>{29, 30, 34, 35}));
  EXPECT_EQ(dat.nbs, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_TRUE(dat.row_major_mapping);
  EXPECT_EQ(dat.ps, (std::vector<int>{2, 1, 4}));
  EXPECT_EQ(dat.qs, (std::vector<int>{2, 4, 1}));
  EXPECT_DOUBLE_EQ(dat.threshold, 16.0);
  ASSERT_EQ(dat.pfacts.size(), 3u);
  EXPECT_EQ(dat.pfacts[0], FactVariant::Left);
  EXPECT_EQ(dat.pfacts[1], FactVariant::Crout);
  EXPECT_EQ(dat.pfacts[2], FactVariant::Right);
  EXPECT_EQ(dat.nbmins, (std::vector<int>{2, 4}));
  EXPECT_EQ(dat.ndivs, (std::vector<int>{2}));
  EXPECT_EQ(dat.depths, (std::vector<int>{1}));
  ASSERT_EQ(dat.bcasts.size(), 2u);
  EXPECT_EQ(dat.bcasts[0], comm::BcastAlgo::Ring1Mod);
  EXPECT_EQ(dat.bcasts[1], comm::BcastAlgo::Ring2Mod);
  EXPECT_EQ(dat.swap_algo, 1);
  EXPECT_EQ(dat.swap_threshold, 64);
  EXPECT_TRUE(dat.l1_transposed);
  EXPECT_TRUE(dat.equilibration);
  EXPECT_EQ(dat.alignment, 8);
  // Extension lines absent -> defaults.
  EXPECT_DOUBLE_EQ(dat.split_fraction, 0.5);
  EXPECT_EQ(dat.fact_threads, 1);
}

TEST(HplDat, ParsesRocHplExtensionLines) {
  std::string text = kClassic;
  text += "0.625        split fraction\n4            FACT threads\n";
  const HplDat dat = parse_hpldat_string(text);
  EXPECT_DOUBLE_EQ(dat.split_fraction, 0.625);
  EXPECT_EQ(dat.fact_threads, 4);
}

TEST(HplDat, ExpandEnumeratesTheCartesianSweep) {
  const HplDat dat = parse_hpldat_string(kClassic);
  const auto cfgs = expand_configs(dat);
  // grids(3) × N(4) × NB(4) × pfact(3) × rfact(3) × nbmin(2) × ndiv(1)
  // × depth(1) × bcast(2) — PFACTs and RFACTs each sweep independently:
  // RFACT is the top-level variant, PFACT the recursion-leaf base.
  EXPECT_EQ(cfgs.size(), 3u * 4 * 4 * 3 * 3 * 2 * 1 * 1 * 2);
  // Spot-check the first config.
  const HplConfig& c = cfgs.front();
  EXPECT_EQ(c.n, 29);
  EXPECT_EQ(c.nb, 1);
  EXPECT_EQ(c.p, 2);
  EXPECT_EQ(c.q, 2);
  EXPECT_TRUE(c.row_major_grid);
  EXPECT_EQ(c.pipeline, PipelineMode::LookaheadSplit);
  EXPECT_EQ(c.fact, FactVariant::Left);
  EXPECT_EQ(c.rfact_base, FactVariant::Left);
  EXPECT_EQ(c.pivoting, PivotMode::Full);
  EXPECT_FALSE(c.diag_dominant);
  EXPECT_EQ(c.nrhs, 1);
}

TEST(HplDat, FactCodeRoundTripsEveryVariant) {
  // Code 3 (the hplx recursive extension) must survive parse → format →
  // parse like the three classic codes — fact_to_code used to fold it
  // into 2, silently rewriting recursive sweeps as Right-looking ones.
  std::string text = kClassic;
  auto pos = text.find("3            # of panel fact");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 1, "4");
  pos = text.find("0 1 2        PFACTs");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 5, "0 1 2 3");
  pos = text.find("3            # of recursive panel fact.");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 1, "4");
  pos = text.find("0 1 2        RFACTs");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 5, "3 2 1 0");

  const HplDat dat = parse_hpldat_string(text);
  const std::vector<FactVariant> all = {
      FactVariant::Left, FactVariant::Crout, FactVariant::Right,
      FactVariant::RecursiveRight};
  EXPECT_EQ(dat.pfacts, all);
  EXPECT_EQ(dat.rfacts,
            (std::vector<FactVariant>{
                FactVariant::RecursiveRight, FactVariant::Right,
                FactVariant::Crout, FactVariant::Left}));

  const HplDat again = parse_hpldat_string(format_hpldat(dat));
  EXPECT_EQ(again.pfacts, dat.pfacts);
  EXPECT_EQ(again.rfacts, dat.rfacts);
}

TEST(HplDat, BadFactCodeThrows) {
  std::string text = kClassic;
  const auto pos = text.find("0 1 2        PFACTs");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 5, "0 1 4");
  EXPECT_THROW(parse_hpldat_string(text), Error);
}

TEST(HplDat, DepthZeroMapsToSimplePipeline) {
  std::string text = kClassic;
  const auto pos = text.find("1            DEPTHs");
  ASSERT_NE(pos, std::string::npos);
  text[pos] = '0';
  const auto cfgs = expand_configs(parse_hpldat_string(text));
  for (const auto& c : cfgs) EXPECT_EQ(c.pipeline, PipelineMode::Simple);
}

TEST(HplDat, RoundTripsThroughFormat) {
  const HplDat dat = parse_hpldat_string(kClassic);
  const std::string text = format_hpldat(dat);
  const HplDat again = parse_hpldat_string(text);
  EXPECT_EQ(again.ns, dat.ns);
  EXPECT_EQ(again.nbs, dat.nbs);
  EXPECT_EQ(again.ps, dat.ps);
  EXPECT_EQ(again.qs, dat.qs);
  EXPECT_EQ(again.nbmins, dat.nbmins);
  EXPECT_EQ(again.pfacts, dat.pfacts);
  EXPECT_EQ(again.rfacts, dat.rfacts);
  EXPECT_EQ(again.bcasts, dat.bcasts);
  EXPECT_EQ(again.depths, dat.depths);
  EXPECT_EQ(again.swap_algo, dat.swap_algo);
  EXPECT_DOUBLE_EQ(again.threshold, dat.threshold);
}

// Every extension line, in order: each live knob set to a non-default
// value, each retired line to the one value it still accepts.
const char kAllExtensions[] =
    "0.625        split fraction\n"
    "4            FACT threads\n"
    "3            BLAS threads\n"
    "32768        eager threshold bytes\n"
    "128          swap tile cols\n"
    "2            kernel threads\n"
    "3            update streams\n"
    "0            update band cols\n"
    "1            hazard check\n"
    "1            swap wire format\n"
    "131072       swap chunk bytes\n"
    "mxp32        precision\n"
    "12           IR max iters\n"
    "8.0          IR tolerance\n"
    "1            pivoting\n"
    "1            diag dominant\n"
    "4            RHS count\n"
    "1            alloc pool\n"
    "-1           alloc cache bytes\n"
    "1            comm check\n";

TEST(HplDat, ParsesEveryExtensionKnob) {
  const HplDat dat = parse_hpldat_string(std::string(kClassic) +
                                         kAllExtensions);
  EXPECT_DOUBLE_EQ(dat.split_fraction, 0.625);
  EXPECT_EQ(dat.fact_threads, 4);
  EXPECT_EQ(dat.blas_threads, 3);
  EXPECT_EQ(dat.swap_tile_cols, 128);
  EXPECT_EQ(dat.kernel_threads, 2);
  EXPECT_EQ(dat.update_streams, 3);
  EXPECT_EQ(dat.hazard_check, 1);
  EXPECT_EQ(dat.swap_chunk_bytes, 131072);
  EXPECT_EQ(dat.precision, "mxp32");
  EXPECT_EQ(dat.ir_max_iters, 12);
  EXPECT_DOUBLE_EQ(dat.ir_tol, 8.0);
  EXPECT_EQ(dat.pivoting, 1);
  EXPECT_EQ(dat.diag_dominant, 1);
  EXPECT_EQ(dat.nrhs, 4);
  EXPECT_EQ(dat.comm_check, 1);
}

TEST(HplDat, EveryKnobRoundTripsThroughFormat) {
  const HplDat dat = parse_hpldat_string(std::string(kClassic) +
                                         kAllExtensions);
  const HplDat again = parse_hpldat_string(format_hpldat(dat));
  // Classic fields.
  EXPECT_EQ(again.output_file, dat.output_file);
  EXPECT_EQ(again.device_out, dat.device_out);
  EXPECT_EQ(again.ns, dat.ns);
  EXPECT_EQ(again.nbs, dat.nbs);
  EXPECT_EQ(again.row_major_mapping, dat.row_major_mapping);
  EXPECT_EQ(again.ps, dat.ps);
  EXPECT_EQ(again.qs, dat.qs);
  EXPECT_DOUBLE_EQ(again.threshold, dat.threshold);
  EXPECT_EQ(again.pfacts, dat.pfacts);
  EXPECT_EQ(again.nbmins, dat.nbmins);
  EXPECT_EQ(again.ndivs, dat.ndivs);
  EXPECT_EQ(again.rfacts, dat.rfacts);
  EXPECT_EQ(again.depths, dat.depths);
  EXPECT_EQ(again.bcasts, dat.bcasts);
  EXPECT_EQ(again.swap_algo, dat.swap_algo);
  EXPECT_EQ(again.swap_threshold, dat.swap_threshold);
  EXPECT_EQ(again.l1_transposed, dat.l1_transposed);
  EXPECT_EQ(again.u_transposed, dat.u_transposed);
  EXPECT_EQ(again.equilibration, dat.equilibration);
  EXPECT_EQ(again.alignment, dat.alignment);
  // Extension fields.
  EXPECT_DOUBLE_EQ(again.split_fraction, dat.split_fraction);
  EXPECT_EQ(again.fact_threads, dat.fact_threads);
  EXPECT_EQ(again.blas_threads, dat.blas_threads);
  EXPECT_EQ(again.swap_tile_cols, dat.swap_tile_cols);
  EXPECT_EQ(again.kernel_threads, dat.kernel_threads);
  EXPECT_EQ(again.update_streams, dat.update_streams);
  EXPECT_EQ(again.hazard_check, dat.hazard_check);
  EXPECT_EQ(again.swap_chunk_bytes, dat.swap_chunk_bytes);
  EXPECT_EQ(again.precision, dat.precision);
  EXPECT_EQ(again.ir_max_iters, dat.ir_max_iters);
  EXPECT_DOUBLE_EQ(again.ir_tol, dat.ir_tol);
  EXPECT_EQ(again.pivoting, dat.pivoting);
  EXPECT_EQ(again.diag_dominant, dat.diag_dominant);
  EXPECT_EQ(again.nrhs, dat.nrhs);
  EXPECT_EQ(again.comm_check, dat.comm_check);
}

TEST(HplDat, CommCheckExpandsIntoConfigs) {
  const HplDat dat = parse_hpldat_string(std::string(kClassic) +
                                         kAllExtensions);
  for (const HplConfig& cfg : expand_configs(dat)) {
    EXPECT_TRUE(cfg.comm_check);
  }
}

TEST(HplDat, BadCommCheckThrows) {
  std::string text = std::string(kClassic) + kAllExtensions;
  text.replace(text.rfind("1            comm check"), 1, "7");
  EXPECT_THROW(parse_hpldat_string(text), hplx::Error);
}

/// The message parse_hpldat_string throws for `text` ("" if it parses).
std::string parse_error(const std::string& text) {
  try {
    parse_hpldat_string(text);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

/// `text` with the value of the line whose comment is `comment` replaced.
std::string with_value(std::string text, const std::string& comment,
                       const std::string& value) {
  const auto end = text.find(comment);
  EXPECT_NE(end, std::string::npos) << comment;
  const auto begin = text.rfind('\n', end) + 1;
  text.replace(begin, end - begin, value + " ");
  return text;
}

/// A retired extension line and a value it used to accept.
struct RetiredLine {
  const char* comment;
  const char* old_value;
};

class HplDatRetiredLine : public ::testing::TestWithParam<RetiredLine> {};

TEST_P(HplDatRetiredLine, AcceptsOnlyItsOneValue) {
  // The line stays so the lines after it keep their places; any value
  // but the one hplx still implements is rejected with a message saying
  // why.
  const std::string text = std::string(kClassic) + kAllExtensions;
  EXPECT_EQ(parse_error(text), "");
  const std::string err =
      parse_error(with_value(text, GetParam().comment, GetParam().old_value));
  EXPECT_NE(err.find("is retired and only holds its place"),
            std::string::npos)
      << err;
}

INSTANTIATE_TEST_SUITE_P(
    AllRetiredLines, HplDatRetiredLine,
    ::testing::Values(RetiredLine{"eager threshold bytes", "65536"},
                      RetiredLine{"update band cols", "48"},
                      RetiredLine{"swap wire format", "0"},
                      RetiredLine{"alloc pool", "0"},
                      RetiredLine{"alloc cache bytes", "1048576"}),
    [](const ::testing::TestParamInfo<RetiredLine>& info) {
      std::string name = info.param.comment;
      std::replace(name.begin(), name.end(), ' ', '_');
      return name;
    });

TEST(HplDat, NonPositiveSwapSizesRejected) {
  // Both sizes must be positive: 0 is rejected like -1.
  const std::string text = std::string(kClassic) + kAllExtensions;
  for (const char* comment : {"swap tile cols", "swap chunk bytes"}) {
    for (const char* value : {"0", "-1"}) {
      const std::string err = parse_error(with_value(text, comment, value));
      EXPECT_NE(err.find(comment), std::string::npos) << err;
      EXPECT_NE(err.find("out of range"), std::string::npos) << err;
    }
  }
}

TEST(HplDat, IntegersAreWholeTokensRangeCheckedBeforeNarrowing) {
  // Reals follow the same whole-token rule and must also be finite.
  struct Case {
    const char* line;         // the text to edit
    std::size_t value_chars;  // length of its value field
    const char* value;        // the replacement
    const char* error;        // what the parse error must say
  };
  for (const Case& c : {
           // 2^32 + 64: an unchecked narrowing to int reads NB = 64.
           Case{"1 2 3 4      NBs", 7, "1 2 3 4294967360",
                "4294967360 is out of range"},
           // 2^32 + 1: an unchecked narrowing reads P = 1.
           Case{"2 1 4        Ps", 5, "4294967297 1 4",
                "4294967297 is out of range"},
           // A prefix parse reads 64.
           Case{"64           swapping threshold", 2, "64abc",
                "not an integer: `64abc`"},
           // Reals: a prefix parse reads 16 / 0.5 / 8, and strtod alone
           // accepts nan and inf.
           Case{"16.0         threshold", 4, "16.0x",
                "(threshold): not a finite number: `16.0x`"},
           Case{"16.0         threshold", 4, "nan",
                "(threshold): not a finite number: `nan`"},
           Case{"0.625        split fraction", 5, "0.5abc",
                "(split fraction): not a finite number: `0.5abc`"},
           Case{"0.625        split fraction", 5, "-inf",
                "(split fraction): not a finite number: `-inf`"},
           Case{"8.0          IR tolerance", 3, "8.0e",
                "(IR tolerance): not a finite number: `8.0e`"},
           Case{"8.0          IR tolerance", 3, "inf",
                "(IR tolerance): not a finite number: `inf`"},
           Case{"8.0          IR tolerance", 3, "1e999",
                "(IR tolerance): not a finite number: `1e999`"},
       }) {
    std::string text = std::string(kClassic) + kAllExtensions;
    const auto pos = text.find(c.line);
    ASSERT_NE(pos, std::string::npos) << c.line;
    text.replace(pos, c.value_chars, c.value);
    const std::string err = parse_error(text);
    EXPECT_NE(err.find(c.error), std::string::npos) << c.value << ": " << err;
  }
}

TEST(HplDat, PrecisionExpandsIntoConfigs) {
  const auto cfgs = expand_configs(parse_hpldat_string(
      std::string(kClassic) + kAllExtensions));
  for (const auto& c : cfgs) {
    EXPECT_EQ(c.precision, PrecisionMode::MXP32);
    EXPECT_EQ(c.ir_max_iters, 12);
    EXPECT_DOUBLE_EQ(c.ir_tol, 8.0);
    EXPECT_EQ(c.pivoting, PivotMode::None);
    EXPECT_TRUE(c.diag_dominant);
    EXPECT_EQ(c.nrhs, 4);
  }
}

TEST(HplDat, BadPivotingThrows) {
  std::string text = std::string(kClassic) + kAllExtensions;
  const auto pos = text.find("1            pivoting");
  ASSERT_NE(pos, std::string::npos);
  text[pos] = '2';
  EXPECT_THROW(parse_hpldat_string(text), Error);
}

TEST(HplDat, BadNrhsThrows) {
  std::string text = std::string(kClassic) + kAllExtensions;
  const auto pos = text.find("4            RHS count");
  ASSERT_NE(pos, std::string::npos);
  text[pos] = '0';
  EXPECT_THROW(parse_hpldat_string(text), Error);
}

TEST(HplDat, BadPrecisionThrows) {
  std::string text = kClassic;
  text += "0.5 split\n1 fact\n0 blas\n32768 eager\n256 tile\n0 kthreads\n"
          "1 streams\n0 band\n0 hazard\n1 wire\n262144 chunk\n"
          "fp42 precision\n";
  EXPECT_THROW(parse_hpldat_string(text), Error);
}

// run_hpl and the simulator both take a split fraction in [0, 1], and 1.0
// (the whole window in the right section) is a swept config.
TEST(HplDat, SplitFractionAcceptsTheClosedUnitInterval) {
  const std::string text = std::string(kClassic) + kAllExtensions;
  const std::string one = with_value(text, "split fraction", "1.0");
  EXPECT_DOUBLE_EQ(parse_hpldat_string(one).split_fraction, 1.0);
  for (const auto& c : expand_configs(parse_hpldat_string(one)))
    EXPECT_EQ(c.split_fraction, 1.0);
  for (const char* value : {"-0.1", "1.5"}) {
    const std::string err =
        parse_error(with_value(text, "split fraction", value));
    EXPECT_NE(err.find("split fraction must be in [0, 1], got " +
                       std::string(value)),
              std::string::npos)
        << value << ": " << err;
  }
}

// The solver computes fp64 and mxp32 only; the simulator's fp16 billing
// has no HPL.dat spelling, so `mxp16-sim` is refused like any unknown name.
TEST(HplDat, Mxp16SimIsAnUnknownPrecision) {
  const std::string err = parse_error(with_value(
      std::string(kClassic) + kAllExtensions, "precision", "mxp16-sim"));
  EXPECT_NE(err.find("precision must be fp64 or mxp32, got `mxp16-sim`"),
            std::string::npos)
      << err;
}

TEST(HplDat, TruncatedFileThrows) {
  const std::string text(kClassic, kClassic + 200);
  EXPECT_THROW(parse_hpldat_string(text), Error);
}

TEST(HplDat, MalformedCountThrows) {
  std::string text = kClassic;
  const auto pos = text.find("4            # of problems");
  text.replace(pos, 1, "x");
  EXPECT_THROW(parse_hpldat_string(text), Error);
}

TEST(HplDat, ShortListThrows) {
  std::string text = kClassic;
  const auto pos = text.find("29 30 34 35");
  text.replace(pos, 11, "29 30      ");
  EXPECT_THROW(parse_hpldat_string(text), Error);
}

TEST(HplDat, BadBcastCodeThrows) {
  std::string text = kClassic;
  const auto pos = text.find("1 3          BCASTs");
  text.replace(pos, 3, "1 9");
  EXPECT_THROW(parse_hpldat_string(text), Error);
}

TEST(HplDat, UnsupportedDepthThrows) {
  std::string text = kClassic;
  const auto pos = text.find("1            DEPTHs");
  text[pos] = '3';
  EXPECT_THROW(parse_hpldat_string(text), Error);
}

}  // namespace
}  // namespace hplx::core
