#pragma once
/// \file model.hpp
/// \brief Calibrated cost model for one simulated accelerator (a single
/// MI250X GCD) and its host link.
///
/// gpusim kernels execute real arithmetic on host memory for correctness;
/// this model supplies the *modeled* duration each operation would take on
/// the paper's hardware. Calibration anchors (from the paper and public
/// MI250X specs):
///   - DGEMM at NB = 512 reaches 49 TFLOP/s per MI250X, i.e. 24.5 per GCD
///     (§IV.A), out of a 47.9 TFLOP/s FP64-matrix GCD peak;
///   - HBM2e: 1.6 TB/s per GCD;
///   - host link (Infinity Fabric): 36 GB/s per direction per GCD;
///   - kernel launch latency a few microseconds (§III: the reason FACT
///     stays on the CPU).
/// The DGEMM efficiency ramp uses a surface-to-volume law in the blocking
/// dimension k: eff(k) = k / (k + k_half), which reproduces the "NB must
/// be large enough for DGEMM to reach a high fraction of peak" trade-off
/// (§IV.A) without pretending to model silicon.
///
/// For the HPL-MxP modes the model adds per-precision throughput: FP64
/// keeps the analytic ramp above; FP32 and FP16 use piecewise-linear
/// calibration-anchor curves (ThroughputCurve) whose interpolation is
/// *clamped* at the last anchor — a rate is never extrapolated beyond the
/// largest blocking the curve was calibrated at. Only the simulator bills
/// at the FP16 curve (sim::ClusterConfig::precision); the solver's float
/// kernels bill FP32.

#include <cstddef>

namespace hplx::device {

/// Arithmetic precision a kernel's time is modeled at. FP16 stands in for
/// the half/bf16 family — hplx never computes in it; the simulator only
/// bills at its rate.
enum class Precision { FP64, FP32, FP16 };

const char* to_string(Precision p);

/// Piecewise-linear TFLOP/s curve over calibration anchors, ordered by
/// strictly increasing blocking k. Between anchors the rate interpolates
/// linearly; below the first anchor it ramps linearly from (0, 0); at and
/// beyond the last anchor it *clamps* to the last anchor's rate — the
/// curve never extrapolates past its calibration range (a curve that kept
/// the last segment's slope would credit unbounded rates to huge NB).
struct ThroughputCurve {
  static constexpr int kMaxAnchors = 8;
  int count = 0;
  double k[kMaxAnchors] = {};
  double tflops[kMaxAnchors] = {};

  /// Clamped piecewise-linear rate at blocking kk (0 for kk <= 0 or an
  /// empty/invalid curve).
  double at(double kk) const;

  /// Anchors strictly increasing in k (all positive), rates positive. An
  /// invalid curve reports 0 TFLOP/s from at(), so a miscalibrated model
  /// fails loudly (infinite modeled time) instead of silently
  /// extrapolating.
  bool valid() const;
};

struct DeviceModel {
  // Compute. The asymptote and ramp constant are chosen so that
  // gemm_tflops(512) ≈ 24.5 per GCD — the paper's 49 TFLOP/s per MI250X.
  double gemm_peak_tflops = 26.0;  ///< asymptotic DGEMM rate per GCD (k → ∞)
  double gemm_k_half = 32.0;       ///< surface/volume ramp constant
  double trsm_efficiency = 0.25;   ///< TRSM fraction of GEMM rate at same size

  // Per-precision GEMM rates for the low-precision engines. FP64 uses the
  // analytic ramp above; these curves carry the measured fp32 and the
  // paper-family fp16 matrix rates. Everywhere above k = 0 the default
  // curves satisfy fp16 > fp32 > fp64, which is what makes the simulated
  // MxP speedup ordering monotone.
  ThroughputCurve fp32_curve = {6,
                                {16, 64, 128, 256, 512, 1024},
                                {14.0, 22.0, 32.0, 41.0, 47.0, 50.0}};
  ThroughputCurve fp16_curve = {7,
                                {16, 64, 128, 256, 512, 1024, 2048},
                                {20.0, 45.0, 80.0, 120.0, 155.0, 180.0,
                                 188.0}};

  // Memory and links.
  double hbm_bw_gbs = 1600.0;   ///< device-local streaming bandwidth
  double h2d_bw_gbs = 30.0;     ///< host<->device effective, per direction
  double kernel_latency_s = 6e-6;
  double h2d_latency_s = 10e-6;
  /// Row gather/scatter kernels access one element per row per column —
  /// far from streaming; they reach only this fraction of HBM bandwidth.
  double rowswap_bw_factor = 0.25;

  /// Modeled seconds for C(m×n) += A(m×k)·B(k×n) at the given precision.
  double gemm_seconds(long m, long n, long k,
                      Precision p = Precision::FP64) const;

  /// Effective GEMM TFLOP/s at blocking k. FP64 is the analytic ramp (the
  /// paper's "49 TFLOPS at NB=512" anchor: gemm_tflops(512) ≈ 24.5 per
  /// GCD); FP32/FP16 evaluate the clamped calibration curves.
  double gemm_tflops(long k, Precision p = Precision::FP64) const;

  /// Modeled seconds for a triangular solve with an nb×nb triangle applied
  /// to nb×n right-hand sides.
  double trsm_seconds(long nb, long n, Precision p = Precision::FP64) const;

  /// Host<->device transfer.
  double hcopy_seconds(std::size_t bytes) const;

  /// Row gather/scatter kernel moving `rows` rows × `cols` elements of
  /// `elem_bytes` bytes each (doubles by default — the seed fp64 path).
  double rowswap_seconds(long rows, long cols,
                         std::size_t elem_bytes = sizeof(double)) const;

  /// Billing precision for a kernel computing in elements of `elem_bytes`
  /// bytes: 8 → FP64, 4 → FP32.
  static Precision precision_for_elem(std::size_t elem_bytes) {
    return elem_bytes >= sizeof(double) ? Precision::FP64 : Precision::FP32;
  }

  /// The MI250X GCD calibration used throughout the repo (including the
  /// default fp32/fp16 curves).
  static DeviceModel mi250x_gcd();
};

}  // namespace hplx::device
