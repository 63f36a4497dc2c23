#include "device/model.hpp"

#include <algorithm>

namespace hplx::device {

const char* to_string(Precision p) {
  switch (p) {
    case Precision::FP64: return "fp64";
    case Precision::FP32: return "fp32";
    case Precision::FP16: return "fp16";
  }
  return "?";
}

bool ThroughputCurve::valid() const {
  if (count < 1 || count > kMaxAnchors) return false;
  double prev_k = 0.0;
  for (int i = 0; i < count; ++i) {
    if (k[i] <= prev_k || tflops[i] <= 0.0) return false;
    prev_k = k[i];
  }
  return true;
}

double ThroughputCurve::at(double kk) const {
  if (kk <= 0.0 || !valid()) return 0.0;
  // Below the first anchor: linear ramp through the origin.
  if (kk <= k[0]) return tflops[0] * kk / k[0];
  // At or beyond the last anchor: clamp — never extrapolate a calibration.
  if (kk >= k[count - 1]) return tflops[count - 1];
  int i = 1;
  while (i < count - 1 && kk > k[i]) ++i;
  const double t = (kk - k[i - 1]) / (k[i] - k[i - 1]);
  return tflops[i - 1] + t * (tflops[i] - tflops[i - 1]);
}

double DeviceModel::gemm_tflops(long k, Precision p) const {
  if (k <= 0) return 0.0;
  const double kk = static_cast<double>(k);
  switch (p) {
    case Precision::FP32: return fp32_curve.at(kk);
    case Precision::FP16: return fp16_curve.at(kk);
    case Precision::FP64: break;
  }
  return gemm_peak_tflops * kk / (kk + gemm_k_half);
}

double DeviceModel::gemm_seconds(long m, long n, long k, Precision p) const {
  if (m <= 0 || n <= 0 || k <= 0) return 0.0;
  const double flops = 2.0 * static_cast<double>(m) *
                       static_cast<double>(n) * static_cast<double>(k);
  // The ramp is driven by the smallest dimension: a skinny m or n starves
  // the MFMA pipes exactly like a small k does.
  const long lim = std::min(k, std::min(m, n));
  return kernel_latency_s + flops / (gemm_tflops(lim, p) * 1e12);
}

double DeviceModel::trsm_seconds(long nb, long n, Precision p) const {
  if (nb <= 0 || n <= 0) return 0.0;
  const double flops = static_cast<double>(nb) * static_cast<double>(nb) *
                       static_cast<double>(n);
  return kernel_latency_s +
         flops / (trsm_efficiency * gemm_tflops(nb, p) * 1e12);
}

double DeviceModel::hcopy_seconds(std::size_t bytes) const {
  return h2d_latency_s + static_cast<double>(bytes) / (h2d_bw_gbs * 1e9);
}

double DeviceModel::rowswap_seconds(long rows, long cols,
                                    std::size_t elem_bytes) const {
  if (rows <= 0 || cols <= 0) return 0.0;
  // Strided reads + contiguous writes, 2 touches, at the (poor) strided
  // fraction of HBM bandwidth.
  const double bytes = 2.0 * static_cast<double>(rows) *
                       static_cast<double>(cols) *
                       static_cast<double>(elem_bytes);
  return kernel_latency_s +
         bytes / (rowswap_bw_factor * hbm_bw_gbs * 1e9);
}

DeviceModel DeviceModel::mi250x_gcd() { return DeviceModel{}; }

}  // namespace hplx::device
