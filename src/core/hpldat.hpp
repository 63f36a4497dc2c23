#pragma once
/// \file hpldat.hpp
/// \brief Reader for the classic HPL.dat input file.
///
/// rocHPL keeps HPL's venerable 30-odd-line input format (Ns, NBs, process
/// grids, PFACT/RFACT, broadcast selection, ...) and extends it with its
/// own knobs via the launch wrapper. hplx reads the classic format and
/// maps each (N, NB, P×Q, ...) combination to an HplConfig, so existing
/// HPL.dat files drive the solver unchanged. Unsupported legacy knobs
/// (threshold, depth, swapping threshold, alignment...) are parsed and
/// surfaced but do not alter the run.
///
/// The format is line-oriented: two header lines, then one value (or a
/// space-separated list preceded by its count) per line, each followed by
/// a free-text comment. See tests/core/test_hpldat.cpp for a complete
/// example file.

#include <iosfwd>
#include <string>
#include <vector>

#include "core/config.hpp"

namespace hplx::core {

/// The parsed contents of an HPL.dat file (classic fields).
struct HplDat {
  std::string output_file = "HPL.out";
  int device_out = 6;  ///< 6 = stdout, 7 = stderr, else file

  std::vector<long> ns;          ///< problem sizes
  std::vector<int> nbs;          ///< blocking factors
  bool row_major_mapping = true; ///< PMAP line (0 = row-, 1 = col-major)
  std::vector<int> ps, qs;       ///< process grids (paired by index)
  double threshold = 16.0;       ///< residual acceptance bound

  std::vector<FactVariant> pfacts;   ///< panel fact variants
  std::vector<int> nbmins;           ///< recursion stop
  std::vector<int> ndivs;            ///< recursion panels
  std::vector<FactVariant> rfacts;   ///< recursive fact variants
  std::vector<int> depths;           ///< look-ahead depth (0 or 1)
  std::vector<comm::BcastAlgo> bcasts;

  // Classic trailing knobs, parsed for fidelity. `swap_algo` selects the
  // row-swap implementation (0 = binary-exchange, 1 = long/spread-roll,
  // 2 = mix); the others are accepted but have no effect in hplx.
  int swap_algo = 1;
  int swap_threshold = 64;
  bool l1_transposed = false;
  bool u_transposed = false;
  bool equilibration = true;
  int alignment = 8;

  // rocHPL-style extension (non-classic, optional trailing lines). Five
  // retired lines have no field: eager threshold (32768), update band
  // cols (0), swap wire format (1), alloc pool (1) and alloc cache bytes
  // (-1) keep their places and accept only the value shown.
  double split_fraction = 0.5;
  int fact_threads = 1;
  int blas_threads = 0;           ///< 0 = leave the installed team alone
  long swap_tile_cols = 256;      ///< kernel-engine column tile width
  int kernel_threads = 0;         ///< kernel-engine team cap (0 = whole team)
  int update_streams = 1;         ///< trailing-update stream pool size
  int hazard_check = 0;           ///< 1 = attach the hazard-checking runtime
  long swap_chunk_bytes = 256 * 1024;  ///< pipelined RS chunk size
  /// Working precision of the factorization: "fp64" (classic HPL) or
  /// "mxp32" (fp32 factors + fp64 iterative refinement).
  std::string precision = "fp64";
  int ir_max_iters = 30;  ///< refinement correction budget (mxp modes)
  double ir_tol = 16.0;   ///< scaled-residual target refinement must reach
  /// Pivoting strategy: 0 = full partial pivoting (classic HPL), 1 = no
  /// pivoting (gesv_nopiv path; requires a diagonally-dominant matrix).
  int pivoting = 0;
  /// 1 = generate a diagonally-dominant matrix (+N on the diagonal) — the
  /// input family where `pivoting = 1` is numerically safe.
  int diag_dominant = 0;
  /// Right-hand sides per solve (>= 1): the backsolve runs blocked
  /// trsm/gemm over an n×nrhs panel instead of the single-vector path.
  int nrhs = 1;
  /// 1 = attach the communication verifier (comm::Verifier) to every
  /// fabric of the run.
  int comm_check = 0;
};

/// Parse an HPL.dat stream. Throws hplx::Error with a line diagnostic on
/// malformed input.
HplDat parse_hpldat(std::istream& in);

/// Convenience: parse from a string.
HplDat parse_hpldat_string(const std::string& text);

/// Expand the cartesian sweep an HPL.dat describes into concrete solver
/// configurations (one per N × NB × grid × fact × depth × bcast combo,
/// exactly like xhpl's nested loops).
std::vector<HplConfig> expand_configs(const HplDat& dat);

/// Serialize back to the classic format (round-trips through
/// parse_hpldat).
std::string format_hpldat(const HplDat& dat);

}  // namespace hplx::core
