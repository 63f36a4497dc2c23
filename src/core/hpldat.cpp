#include "core/hpldat.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <istream>
#include <limits>
#include <sstream>

#include "util/error.hpp"

namespace hplx::core {

namespace {

/// Line-oriented tokenizer over the HPL.dat format: each data line starts
/// with its value(s); everything after them is free-text comment.
class DatReader {
 public:
  explicit DatReader(std::istream& in) : in_(in) {}

  /// Consume one line and return it verbatim (header lines).
  std::string line() {
    std::string out;
    HPLX_CHECK_MSG(static_cast<bool>(std::getline(in_, out)),
                   "HPL.dat truncated at line " << lineno_ + 1);
    ++lineno_;
    return out;
  }

  /// Consume one line and return its first whitespace token.
  std::string token() {
    std::istringstream ls(line());
    std::string t;
    HPLX_CHECK_MSG(static_cast<bool>(ls >> t),
                   "HPL.dat line " << lineno_ << " is empty");
    return t;
  }

  /// Consume one line holding one integer in [lo, hi].
  template <typename I>
  I integer(const char* what, I lo = std::numeric_limits<I>::min(),
            I hi = std::numeric_limits<I>::max()) {
    return to_integer(token(), what, lo, hi);
  }

  /// Consume a retired extension line. It keeps its place, because the
  /// lines after it are positional, and accepts only the one value hplx
  /// still implements.
  void retired(const char* what, long only) {
    const long v = integer<long>(what);
    HPLX_CHECK_MSG(v == only, "HPL.dat line " << lineno_ << " (" << what
                   << ") is retired and only holds its place: it must be "
                   << only << ", got " << v);
  }

  /// Consume one line holding one real. Like integers, the whole token
  /// must parse (no trailing junk), and the value must be finite.
  double real(const char* what) {
    const std::string t = token();
    char* end = nullptr;
    const double v = std::strtod(t.c_str(), &end);
    HPLX_CHECK_MSG(end == t.c_str() + t.size() && std::isfinite(v),
                   "HPL.dat line " << lineno_ << " (" << what
                   << "): not a finite number: `" << t << "`");
    return v;
  }

  /// Consume one line holding `count` integers, each in [lo, hi].
  template <typename I>
  std::vector<I> integers(std::size_t count, const char* what,
                          I lo = std::numeric_limits<I>::min(),
                          I hi = std::numeric_limits<I>::max()) {
    std::istringstream ls(line());
    std::vector<I> out;
    std::string t;
    while (out.size() < count && ls >> t)
      out.push_back(to_integer(t, what, lo, hi));
    HPLX_CHECK_MSG(out.size() == count,
                   "HPL.dat line " << lineno_ << " (" << what << "): expected "
                   << count << " values, found " << out.size());
    return out;
  }

  /// Read "# of X" (1 to 64) then the list line.
  template <typename I>
  std::vector<I> counted_list(const char* what,
                              I lo = std::numeric_limits<I>::min(),
                              I hi = std::numeric_limits<I>::max()) {
    const int n = integer<int>(what, 1, 64);
    return integers<I>(static_cast<std::size_t>(n), what, lo, hi);
  }

  bool eof() {
    while (in_.good()) {
      const int c = in_.peek();
      if (c == std::char_traits<char>::eof()) return true;
      if (!std::isspace(c)) return false;
      in_.get();
    }
    return true;
  }

  int lineno() const { return lineno_; }

 private:
  /// The one integer parser: the whole token must be an integer (no
  /// trailing junk), and the range check runs before narrowing to I, so
  /// an out-of-range value is rejected instead of wrapping.
  template <typename I>
  I to_integer(const std::string& t, const char* what, I lo, I hi) const {
    long long v = 0;
    const char* end = t.data() + t.size();
    const auto [ptr, ec] = std::from_chars(t.data(), end, v);
    HPLX_CHECK_MSG(ec != std::errc::invalid_argument && ptr == end,
                   "HPL.dat line " << lineno_ << " (" << what
                   << "): not an integer: `" << t << "`");
    HPLX_CHECK_MSG(ec != std::errc::result_out_of_range && v >= lo && v <= hi,
                   "HPL.dat line " << lineno_ << " (" << what << "): " << t
                   << " is out of range [" << lo << ", " << hi << "]");
    return static_cast<I>(v);
  }

  std::istream& in_;
  int lineno_ = 0;
};

FactVariant fact_from_code(int code, const char* what) {
  switch (code) {
    case 0: return FactVariant::Left;
    case 1: return FactVariant::Crout;
    case 2: return FactVariant::Right;
    case 3: return FactVariant::RecursiveRight;  // hplx extension code
    default:
      HPLX_CHECK_MSG(false, "HPL.dat " << what << " code out of range: "
                     << code);
  }
  return FactVariant::Right;
}

comm::BcastAlgo bcast_from_code(int code) {
  switch (code) {
    case 0: return comm::BcastAlgo::Ring1;
    case 1: return comm::BcastAlgo::Ring1Mod;
    case 2: return comm::BcastAlgo::Ring2;
    case 3: return comm::BcastAlgo::Ring2Mod;
    case 4: return comm::BcastAlgo::Long;
    case 5: return comm::BcastAlgo::LongMod;
    default:
      HPLX_CHECK_MSG(false, "HPL.dat BCAST code out of range: " << code);
  }
  return comm::BcastAlgo::Ring1Mod;
}

long bcast_to_code(comm::BcastAlgo algo) {
  switch (algo) {
    case comm::BcastAlgo::Ring1: return 0;
    case comm::BcastAlgo::Ring1Mod: return 1;
    case comm::BcastAlgo::Ring2: return 2;
    case comm::BcastAlgo::Ring2Mod: return 3;
    case comm::BcastAlgo::Long: return 4;
    case comm::BcastAlgo::LongMod: return 5;
    case comm::BcastAlgo::Binomial: return 1;  // nearest classic code
  }
  return 1;
}

long fact_to_code(FactVariant v) {
  switch (v) {
    case FactVariant::Left: return 0;
    case FactVariant::Crout: return 1;
    case FactVariant::Right: return 2;
    // hplx extension: classic HPL has no explicit code for the recursive
    // variant (it *is* the RFACT), but hplx exposes it as a first-class
    // FactVariant — 3 keeps write→read lossless instead of collapsing
    // onto Right.
    case FactVariant::RecursiveRight: return 3;
  }
  return 2;
}

}  // namespace

HplDat parse_hpldat(std::istream& in) {
  DatReader r(in);
  HplDat dat;

  r.line();  // "HPLinpack benchmark input file"
  r.line();  // institution line
  dat.output_file = r.token();
  dat.device_out = r.integer<int>("device out");

  dat.ns = r.counted_list<long>("problem sizes (N)", 1);
  dat.nbs = r.counted_list<int>("NBs", 1);

  dat.row_major_mapping = r.integer<int>("PMAP") == 0;

  const int ngrids = r.integer<int>("# of process grids", 1, 64);
  dat.ps = r.integers<int>(static_cast<std::size_t>(ngrids), "Ps", 1);
  dat.qs = r.integers<int>(static_cast<std::size_t>(ngrids), "Qs", 1);

  dat.threshold = r.real("threshold");

  for (int code : r.counted_list<int>("PFACTs"))
    dat.pfacts.push_back(fact_from_code(code, "PFACT"));
  dat.nbmins = r.counted_list<int>("NBMINs", 1);
  dat.ndivs = r.counted_list<int>("NDIVs", 2);
  for (int code : r.counted_list<int>("RFACTs"))
    dat.rfacts.push_back(fact_from_code(code, "RFACT"));
  // Only look-ahead depths 0 and 1 are supported.
  dat.depths = r.counted_list<int>("DEPTHs", 0, 1);
  for (int code : r.counted_list<int>("BCASTs"))
    dat.bcasts.push_back(bcast_from_code(code));

  dat.swap_algo = r.integer<int>("SWAP", 0, 2);
  dat.swap_threshold = r.integer<int>("swapping threshold");
  dat.l1_transposed = r.integer<int>("L1 form") == 0;
  dat.u_transposed = r.integer<int>("U form") == 0;
  dat.equilibration = r.integer<int>("Equilibration") != 0;
  dat.alignment = r.integer<int>("alignment");

  // Optional rocHPL-style extension lines.
  if (!r.eof()) {
    dat.split_fraction = r.real("split fraction");
    HPLX_CHECK_MSG(dat.split_fraction >= 0.0 && dat.split_fraction <= 1.0,
                   "HPL.dat: split fraction must be in [0, 1], got "
                       << dat.split_fraction);
  }
  if (!r.eof()) dat.fact_threads = r.integer<int>("fact threads", 1);
  if (!r.eof()) dat.blas_threads = r.integer<int>("blas threads", 0);
  if (!r.eof())
    r.retired("eager threshold",
              static_cast<long>(comm::kDefaultEagerThreshold));
  if (!r.eof()) dat.swap_tile_cols = r.integer<long>("swap tile cols", 1);
  if (!r.eof()) dat.kernel_threads = r.integer<int>("kernel threads", 0);
  if (!r.eof()) dat.update_streams = r.integer<int>("update streams", 1);
  if (!r.eof()) r.retired("update band cols", 0);
  if (!r.eof()) dat.hazard_check = r.integer<int>("hazard check", 0, 1);
  if (!r.eof()) r.retired("swap wire format", 1);
  if (!r.eof())
    dat.swap_chunk_bytes = r.integer<long>("swap chunk bytes", 1);
  if (!r.eof()) {
    dat.precision = r.token();
    HPLX_CHECK_MSG(dat.precision == "fp64" || dat.precision == "mxp32",
                   "HPL.dat: precision must be fp64 or mxp32, got `"
                       << dat.precision << "`");
  }
  if (!r.eof()) dat.ir_max_iters = r.integer<int>("IR max iters", 0);
  if (!r.eof()) {
    dat.ir_tol = r.real("IR tolerance");
    HPLX_CHECK_MSG(dat.ir_tol > 0.0, "HPL.dat: IR tolerance must be > 0");
  }
  if (!r.eof()) dat.pivoting = r.integer<int>("pivoting", 0, 1);
  if (!r.eof()) dat.diag_dominant = r.integer<int>("diag dominant", 0, 1);
  if (!r.eof()) dat.nrhs = r.integer<int>("RHS count", 1);
  if (!r.eof()) r.retired("alloc pool", 1);
  if (!r.eof()) r.retired("alloc cache bytes", -1);
  if (!r.eof()) dat.comm_check = r.integer<int>("comm check", 0, 1);
  return dat;
}

HplDat parse_hpldat_string(const std::string& text) {
  std::istringstream in(text);
  return parse_hpldat(in);
}

std::vector<HplConfig> expand_configs(const HplDat& dat) {
  std::vector<HplConfig> out;
  for (std::size_t g = 0; g < dat.ps.size(); ++g) {
    for (long n : dat.ns) {
      for (int nb : dat.nbs) {
        for (FactVariant pfact : dat.pfacts) {
         for (FactVariant rfact : dat.rfacts) {
          for (int nbmin : dat.nbmins) {
            for (int ndiv : dat.ndivs) {
              for (int depth : dat.depths) {
                for (comm::BcastAlgo bcast : dat.bcasts) {
                  // Classic semantics: RFACT is the top-level panel
                  // variant (code 3 = recursive, the hplx extension and
                  // the paper's configuration) and PFACT is the base
                  // variant at the recursion leaves. A non-recursive
                  // RFACT runs that unblocked variant over the whole
                  // panel, so every HPL.dat variant line selects a
                  // distinct code path.
                  HplConfig cfg;
                  cfg.n = n;
                  cfg.nb = nb;
                  cfg.p = dat.ps[g];
                  cfg.q = dat.qs[g];
                  cfg.fact = rfact;
                  cfg.rfact_base = pfact;
                  cfg.rfact_nbmin = nbmin;
                  cfg.rfact_ndiv = ndiv;
                  cfg.pipeline = depth == 0 ? PipelineMode::Simple
                                            : PipelineMode::LookaheadSplit;
                  cfg.bcast = bcast;
                  cfg.row_major_grid = dat.row_major_mapping;
                  cfg.swap = dat.swap_algo == 0 ? RowSwapAlgo::BinaryExchange
                             : dat.swap_algo == 1 ? RowSwapAlgo::SpreadRoll
                                                  : RowSwapAlgo::Mix;
                  cfg.swap_threshold = dat.swap_threshold;
                  cfg.split_fraction = dat.split_fraction;
                  cfg.fact_threads = dat.fact_threads;
                  cfg.blas_threads = dat.blas_threads;
                  cfg.swap_tile_cols = dat.swap_tile_cols;
                  cfg.kernel_threads = dat.kernel_threads;
                  cfg.update_streams = dat.update_streams;
                  cfg.hazard_check = dat.hazard_check != 0;
                  cfg.swap_chunk_bytes = dat.swap_chunk_bytes;
                  cfg.precision = dat.precision == "mxp32"
                                      ? PrecisionMode::MXP32
                                      : PrecisionMode::FP64;
                  cfg.ir_max_iters = dat.ir_max_iters;
                  cfg.ir_tol = dat.ir_tol;
                  cfg.pivoting = dat.pivoting == 1 ? PivotMode::None
                                                   : PivotMode::Full;
                  cfg.diag_dominant = dat.diag_dominant != 0;
                  cfg.nrhs = dat.nrhs;
                  cfg.comm_check = dat.comm_check != 0;
                  out.push_back(cfg);
                }
              }
            }
          }
         }
        }
      }
    }
  }
  return out;
}

std::string format_hpldat(const HplDat& dat) {
  std::ostringstream os;
  auto list = [&os](const auto& values) {
    for (std::size_t i = 0; i < values.size(); ++i)
      os << (i ? " " : "") << values[i];
  };

  os << "HPLinpack benchmark input file\n";
  os << "hplx reproduction of rocHPL (SC 2023)\n";
  os << dat.output_file << "  output file name (if any)\n";
  os << dat.device_out << "  device out (6=stdout,7=stderr,file)\n";
  os << dat.ns.size() << "  # of problems sizes (N)\n";
  list(dat.ns);
  os << "  Ns\n";
  os << dat.nbs.size() << "  # of NBs\n";
  list(dat.nbs);
  os << "  NBs\n";
  os << (dat.row_major_mapping ? 0 : 1)
     << "  PMAP process mapping (0=Row-,1=Column-major)\n";
  os << dat.ps.size() << "  # of process grids (P x Q)\n";
  list(dat.ps);
  os << "  Ps\n";
  list(dat.qs);
  os << "  Qs\n";
  os << dat.threshold << "  threshold\n";

  auto codes = [&os](const std::vector<FactVariant>& vs) {
    for (std::size_t i = 0; i < vs.size(); ++i)
      os << (i ? " " : "") << fact_to_code(vs[i]);
  };
  os << dat.pfacts.size() << "  # of panel fact\n";
  codes(dat.pfacts);
  os << "  PFACTs (0=left, 1=Crout, 2=Right, 3=recursive)\n";
  os << dat.nbmins.size() << "  # of recursive stopping criterium\n";
  list(dat.nbmins);
  os << "  NBMINs (>= 1)\n";
  os << dat.ndivs.size() << "  # of panels in recursion\n";
  list(dat.ndivs);
  os << "  NDIVs\n";
  os << dat.rfacts.size() << "  # of recursive panel fact.\n";
  codes(dat.rfacts);
  os << "  RFACTs (0=left, 1=Crout, 2=Right, 3=recursive)\n";
  os << dat.depths.size() << "  # of lookahead depth\n";
  list(dat.depths);
  os << "  DEPTHs (>=0)\n";
  os << dat.bcasts.size() << "  # of broadcast\n";
  for (std::size_t i = 0; i < dat.bcasts.size(); ++i)
    os << (i ? " " : "") << bcast_to_code(dat.bcasts[i]);
  os << "  BCASTs (0=1rg,1=1rM,2=2rg,3=2rM,4=Lng,5=LnM)\n";
  os << dat.swap_algo << "  SWAP (0=bin-exch,1=long,2=mix)\n";
  os << dat.swap_threshold << "  swapping threshold\n";
  os << (dat.l1_transposed ? 0 : 1) << "  L1 in (0=transposed,1=no) form\n";
  os << (dat.u_transposed ? 0 : 1) << "  U  in (0=transposed,1=no) form\n";
  os << (dat.equilibration ? 1 : 0) << "  Equilibration (0=no,1=yes)\n";
  os << dat.alignment << "  memory alignment in double (> 0)\n";
  os << dat.split_fraction << "  split fraction (rocHPL extension)\n";
  os << dat.fact_threads << "  FACT threads (rocHPL extension)\n";
  os << dat.blas_threads << "  BLAS threads (hplx extension, 0=inherit)\n";
  os << comm::kDefaultEagerThreshold
     << "  eager threshold bytes (hplx extension, retired)\n";
  os << dat.swap_tile_cols << "  swap tile cols (hplx extension, >=1)\n";
  os << dat.kernel_threads
     << "  kernel threads (hplx extension, 0=whole team)\n";
  os << dat.update_streams
     << "  update streams (hplx extension, >=1)\n";
  os << "0  update band cols (hplx extension, retired)\n";
  os << dat.hazard_check
     << "  hazard check (hplx extension, 0=off,1=on)\n";
  os << "1  swap wire format (hplx extension, retired)\n";
  os << dat.swap_chunk_bytes << "  swap chunk bytes (hplx extension, >=1)\n";
  os << dat.precision
     << "  precision (hplx extension, fp64|mxp32)\n";
  os << dat.ir_max_iters << "  IR max iters (hplx extension, mxp modes)\n";
  os << dat.ir_tol << "  IR tolerance (hplx extension, scaled residual)\n";
  os << dat.pivoting << "  pivoting (hplx extension, 0=full,1=none)\n";
  os << dat.diag_dominant
     << "  diag dominant (hplx extension, 0=no,1=yes)\n";
  os << dat.nrhs << "  RHS count (hplx extension, >=1)\n";
  os << "1  alloc pool (hplx extension, retired)\n";
  os << "-1  alloc cache bytes (hplx extension, retired)\n";
  os << dat.comm_check
     << "  comm check (hplx extension, 0=off,1=on)\n";
  return os.str();
}

}  // namespace hplx::core
