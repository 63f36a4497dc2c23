/// \file hplx_perfbench.cpp
/// \brief The measuring half of the hplx benchmark. perfbench/run.py
/// builds this program, runs it, and turns its records into the reported
/// metrics (medians, percentiles, failure counts).
///
///   hplx_perfbench --workload <name> --seed <n> --seconds <s> --trace 0|1
///
/// Every line on standard output is one JSON record:
///   {"kind":"machine",...}  host fingerprint: nproc, caches, compiler
///   {"kind":"config",...}   the workload's HplConfig and pinned knobs
///   {"kind":"probe",...}    one layer probe (traced runs only)
///   {"kind":"solve",...}    one core::run_hpl call through comm::World::run
///
/// An untraced run (--trace 0) repeats whole solves for --seconds after
/// one warm-up solve. A traced run (--trace 1) first times every layer
/// from outside, by calling its public functions at the shapes the
/// workload produces, then alternates plain solves with traced ones (a
/// blas::dgemm sample taken right before the solve), so the cost of
/// tracing is measured in the same process. Nothing under src/ is
/// instrumented; the probes only call the layers.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "blas/blas.hpp"
#include "blas/threading.hpp"
#include "comm/collectives.hpp"
#include "comm/world.hpp"
#include "core/driver.hpp"
#include "device/alloc.hpp"
#include "device/device.hpp"
#include "device/engine.hpp"
#include "device/kernels.hpp"
#include "device/stream.hpp"
#include "grid/block_cyclic.hpp"
#include "grid/process_grid.hpp"
#include "rng/matgen.hpp"

namespace {

using namespace hplx;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------ workloads

struct Workload {
  const char* name;
  long n;
  int nb;
  int p, q;
  core::PrecisionMode precision;
  int fact_threads;
};

// Why each workload exists is recorded in perfbench/README.md. Every one
// pins one BLAS thread, one update stream and one kernel thread, so the
// computing threads stay within a 4-core host.
constexpr Workload kWorkloads[] = {
    {"fp64_1x1", 2048, 256, 1, 1, core::PrecisionMode::FP64, 2},
    {"fp64_2x2", 2048, 128, 2, 2, core::PrecisionMode::FP64, 1},
    {"mxp32_1x1", 2048, 256, 1, 1, core::PrecisionMode::MXP32, 2},
};

core::HplConfig config_of(const Workload& w, std::uint64_t seed) {
  core::HplConfig cfg;
  cfg.n = w.n;
  cfg.nb = w.nb;
  cfg.p = w.p;
  cfg.q = w.q;
  cfg.seed = seed;
  cfg.precision = w.precision;
  cfg.pivoting = core::PivotMode::Full;
  cfg.pipeline = core::PipelineMode::LookaheadSplit;
  cfg.fact_threads = w.fact_threads;
  cfg.blas_threads = 1;
  cfg.update_streams = 1;
  cfg.kernel_threads = 1;
  return cfg;
}

/// Probe shapes: rank (0, 0)'s local block and a mid-factorization
/// trailing window of half its local rows and columns.
struct Shapes {
  long mloc = 0, nloc = 0;  ///< local rows / columns of A
  long m = 0, n = 0;        ///< mid-trailing window: mloc/2 × nloc/2
  int nb = 0;
};

Shapes shapes_of(const core::HplConfig& cfg) {
  Shapes s;
  s.mloc = grid::numroc(cfg.n, cfg.nb, 0, cfg.p);
  s.nloc = grid::numroc(cfg.n, cfg.nb, 0, cfg.q);
  s.m = s.mloc / 2;
  s.n = s.nloc / 2;
  s.nb = cfg.nb;
  return s;
}

// ------------------------------------------------------------ records

/// One JSON object on one line of standard output.
class Record {
 public:
  explicit Record(const char* kind) { str("kind", kind); }

  Record& str(const char* key, const std::string& v) {
    std::string esc;
    for (const char c : v) {
      if (c == '"' || c == '\\') {
        esc += '\\';
        esc += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        esc += ' ';
      } else {
        esc += c;
      }
    }
    return raw(key, "\"" + esc + "\"");
  }
  Record& num(const char* key, double v) {
    if (!std::isfinite(v)) return raw(key, "null");
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return raw(key, buf);
  }
  Record& integer(const char* key, long long v) {
    return raw(key, std::to_string(v));
  }
  Record& flag(const char* key, bool v) { return raw(key, v ? "true" : "false"); }

  void emit() const {
    std::printf("{%s}\n", body_.c_str());
    std::fflush(stdout);
  }

 private:
  Record& raw(const char* key, const std::string& v) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += key;
    body_ += "\":";
    body_ += v;
    return *this;
  }
  std::string body_;
};

void emit_probe(const char* name, double value, const char* unit, bool ok,
                bool applicable = true) {
  Record("probe")
      .str("name", name)
      .num("value", value)
      .str("unit", unit)
      .flag("ok", ok)
      .flag("applicable", applicable)
      .emit();
}

/// Prints the host fingerprint; returns nproc (the CPUs this process may
/// use).
long emit_machine() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const long nproc = sched_getaffinity(0, sizeof(set), &set) == 0
                         ? CPU_COUNT(&set)
                         : sysconf(_SC_NPROCESSORS_ONLN);
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#else
  const char* compiler = "gcc " __VERSION__;
#endif
  Record("machine")
      .integer("nproc", nproc)
      .integer("l1d_bytes", sysconf(_SC_LEVEL1_DCACHE_SIZE))
      .integer("l2_bytes", sysconf(_SC_LEVEL2_CACHE_SIZE))
      .integer("l3_bytes", sysconf(_SC_LEVEL3_CACHE_SIZE))
      .str("compiler", compiler)
      .str("build_type", HPLX_BENCH_BUILD_TYPE)
      .str("cxx_flags", HPLX_BENCH_CXX_FLAGS)
      .emit();
  return nproc;
}

void emit_config(const Workload& w, const core::HplConfig& cfg) {
  Record("config")
      .str("workload", w.name)
      .integer("n", cfg.n)
      .integer("nb", cfg.nb)
      .integer("p", cfg.p)
      .integer("q", cfg.q)
      .integer("ranks", cfg.p * cfg.q)
      .str("precision", core::to_string(cfg.precision))
      .str("pivoting", core::to_string(cfg.pivoting))
      .str("pipeline", core::to_string(cfg.pipeline))
      .integer("seed", static_cast<long long>(cfg.seed))
      .integer("fact_threads", cfg.fact_threads)
      .integer("blas_threads", cfg.blas_threads)
      .integer("update_streams", cfg.update_streams)
      .integer("kernel_threads", cfg.kernel_threads)
      .emit();
}

// ------------------------------------------------------------ timing

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

constexpr int kSamples = 7;

/// Seconds per call of `fn`: the median over kSamples batches, each batch
/// calling fn often enough to last about `batch_s` (at least once).
template <typename Fn>
double time_per_call(Fn&& fn, double batch_s = 0.02) {
  fn();  // warm caches and lazily built state
  long calls = 0;  // size the batch from about 2 ms of warm calls
  const auto tc = Clock::now();
  do {
    fn();
    ++calls;
  } while (seconds_since(tc) < 0.002);
  const double once = seconds_since(tc) / static_cast<double>(calls);
  const long per_batch = std::max(1L, static_cast<long>(batch_s / once));
  std::vector<double> t;
  for (int s = 0; s < kSamples; ++s) {
    const auto t0 = Clock::now();
    for (long i = 0; i < per_batch; ++i) fn();
    t.push_back(seconds_since(t0) / static_cast<double>(per_batch));
  }
  return median(t);
}

// ------------------------------------------------------------ inputs

/// xorshift64*: the probes' inputs are a pure function of --seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed * 0x9e3779b97f4a7c15ull + 1) {}
  std::uint64_t next() {
    s_ ^= s_ >> 12;
    s_ ^= s_ << 25;
    s_ ^= s_ >> 27;
    return s_ * 0x2545f4914f6cdd1dull;
  }
  double uniform() {  // [-0.5, 0.5)
    return static_cast<double>(next() >> 11) * 0x1.0p-53 - 0.5;
  }
  long below(long n) {
    return static_cast<long>(next() % static_cast<std::uint64_t>(n));
  }

 private:
  std::uint64_t s_;
};

template <typename T>
std::vector<T> random_values(std::size_t count, Rng& rng, double scale = 1.0) {
  std::vector<T> v(count);
  for (auto& x : v) x = static_cast<T>(scale * rng.uniform());
  return v;
}

/// `count` distinct rows of [0, m): the pivot rows of one panel.
std::vector<long> distinct_rows(long count, long m, Rng& rng) {
  std::vector<long> all(static_cast<std::size_t>(m));
  for (long i = 0; i < m; ++i) all[static_cast<std::size_t>(i)] = i;
  for (long i = 0; i < count; ++i)
    std::swap(all[static_cast<std::size_t>(i)],
              all[static_cast<std::size_t>(i + rng.below(m - i))]);
  all.resize(static_cast<std::size_t>(count));
  return all;
}

bool close(double got, double want, double rel) {
  return std::fabs(got - want) <= rel * std::max(1.0, std::fabs(want));
}

// ------------------------------------------------------------ blas

/// Operands of one trailing-update gemm, C -= A·B (m×k by k×n).
template <typename T>
struct Gemm {
  long m, n, k;
  std::vector<T> a, b, c;

  Gemm(long m_, long n_, long k_, Rng& rng)
      : m(m_), n(n_), k(k_),
        a(random_values<T>(static_cast<std::size_t>(m_ * k_), rng)),
        b(random_values<T>(static_cast<std::size_t>(k_ * n_), rng)),
        c(random_values<T>(static_cast<std::size_t>(m_ * n_), rng)) {}

  void run() {
    blas::gemm(blas::Trans::No, blas::Trans::No, static_cast<int>(m),
               static_cast<int>(n), static_cast<int>(k), T(-1), a.data(),
               static_cast<int>(m), b.data(), static_cast<int>(k), T(1),
               c.data(), static_cast<int>(m));
  }
  double gflop() const { return 2e-9 * static_cast<double>(m * n * k); }

  /// C := A·B once more, checked against a plain dot product at a few
  /// positions.
  bool check() {
    blas::gemm(blas::Trans::No, blas::Trans::No, static_cast<int>(m),
               static_cast<int>(n), static_cast<int>(k), T(1), a.data(),
               static_cast<int>(m), b.data(), static_cast<int>(k), T(0),
               c.data(), static_cast<int>(m));
    const double tol = sizeof(T) == 4 ? 1e-4 : 1e-10;
    for (const long i : {0L, m / 3, m - 1}) {
      for (const long j : {0L, n / 2, n - 1}) {
        double want = 0.0;
        for (long p = 0; p < k; ++p)
          want += static_cast<double>(a[static_cast<std::size_t>(i + p * m)]) *
                  static_cast<double>(b[static_cast<std::size_t>(p + j * k)]);
        if (!close(c[static_cast<std::size_t>(i + j * m)], want, tol))
          return false;
      }
    }
    return true;
  }
};

/// GF/s of one dgemm sample of about `batch_s` seconds: the sample taken
/// next to each traced solve, so the host's speed phases show in the
/// output beside the solve they affected.
double dgemm_sample(Gemm<double>& g, double batch_s) {
  const auto t0 = Clock::now();
  long calls = 0;
  do {
    g.run();
    ++calls;
  } while (seconds_since(t0) < batch_s);
  return g.gflop() * static_cast<double>(calls) / seconds_since(t0);
}

/// Register-only multiply-add chains on the widest vector the build's
/// flags allow: the ceiling the packed dgemm is measured against.
template <std::size_t... I>
double fma_chains(long iters, double seed, std::index_sequence<I...>) {
  using V = double __attribute__((vector_size(__BIGGEST_ALIGNMENT__)));
  V acc[sizeof...(I)];
  ((acc[I] = V{} + seed * static_cast<double>(I + 1)), ...);
  const V mul = V{} + (1.0 - 1e-9 * seed);
  const V add = V{} + 1e-7 * seed;
  for (long i = 0; i < iters; ++i) ((acc[I] = acc[I] * mul + add), ...);
  double sum = 0.0;
  for (const V& v : acc)
    for (std::size_t l = 0; l < sizeof(V) / sizeof(double); ++l) sum += v[l];
  return sum;
}

double fma_peak_gflops(double seed) {
  constexpr std::size_t kChains = 12;
  constexpr double kLanes = __BIGGEST_ALIGNMENT__ / sizeof(double);
  constexpr long kIters = 1 << 16;
  // Read through volatiles so no call can be hoisted out of the batch.
  volatile long iters = kIters;
  volatile double sink = 0.0;
  const double t = time_per_call([&] {
    sink = fma_chains(iters, seed, std::make_index_sequence<kChains>{});
  });
  return 2e-9 * kLanes * static_cast<double>(kChains * kIters) / t;
}

/// blas.dgemm_gflops itself is the median of the samples taken next to
/// each traced solve; here dgemm is timed only beside the FMA ceiling.
void blas_probes(const Shapes& sh, Rng& rng, Gemm<double>& dgemm) {
  const double dgemm_gf = dgemm.gflop() / time_per_call([&] { dgemm.run(); });
  const double peak = fma_peak_gflops(1.0 + 1e-3 * rng.uniform());
  emit_probe("blas.fma_peak_gflops", peak, "GF/s", peak > 0.0);
  emit_probe("blas.dgemm_of_peak", dgemm_gf / peak, "ratio", dgemm.check());

  Gemm<float> sgemm(dgemm.m, dgemm.n, dgemm.k, rng);
  emit_probe("blas.sgemm_gflops",
             sgemm.gflop() / time_per_call([&] { sgemm.run(); }), "GF/s",
             sgemm.check());

  // dtrsm Left/Lower/NoTrans/Unit, NB × trailing width: the U update. The
  // off-diagonal of L is scaled down so repeated solves stay bounded.
  {
    const int nb = sh.nb;
    const int n = static_cast<int>(sh.n);
    std::vector<double> l = random_values<double>(
        static_cast<std::size_t>(nb) * nb, rng, 1.0 / nb);
    const std::vector<double> b0 =
        random_values<double>(static_cast<std::size_t>(nb) * n, rng);
    std::vector<double> b = b0;
    auto run = [&] {
      blas::dtrsm(blas::Side::Left, blas::Uplo::Lower, blas::Trans::No,
                  blas::Diag::Unit, nb, n, 1.0, l.data(), nb, b.data(), nb);
    };
    const double t = time_per_call(run);
    b = b0;
    run();
    bool ok = true;  // L·X must reproduce B at column 0
    for (int i = 0; i < nb; ++i) {
      double lx = b[static_cast<std::size_t>(i)];
      for (int p = 0; p < i; ++p)
        lx += l[static_cast<std::size_t>(i + p * nb)] *
              b[static_cast<std::size_t>(p)];
      ok = ok && close(lx, b0[static_cast<std::size_t>(i)], 1e-10);
    }
    emit_probe("blas.trsm_gflops",
               1e-9 * static_cast<double>(nb) * nb * n / t, "GF/s", ok);
  }

  // dger at mloc × 16: one rank-1 step of the pfact recursion's leaves.
  {
    constexpr int kLeaf = 16;
    const int m = static_cast<int>(sh.mloc);
    std::vector<double> a =
        random_values<double>(static_cast<std::size_t>(m) * kLeaf, rng);
    const std::vector<double> x = random_values<double>(m, rng);
    const std::vector<double> y = random_values<double>(kLeaf, rng);
    const double before = a[1];
    const double t = time_per_call([&] {
      blas::dger(m, kLeaf, -1.0, x.data(), 1, y.data(), 1, a.data(), m);
    });
    emit_probe("blas.dger_gflops", 2e-9 * m * kLeaf / t, "GF/s",
               std::isfinite(a[1]) && a[1] != before);
  }
}

// ------------------------------------------------------------ device

template <typename T>
void device_probes(const Shapes& sh, const core::HplConfig& cfg, Rng& rng) {
  device::configure_engine({cfg.swap_tile_cols, cfg.kernel_threads});
  device::Device dev("perfbench", cfg.hbm_bytes);
  device::Stream s(dev, "probe");

  const long lda = sh.mloc, jb = sh.nb, n = sh.n;
  std::vector<T> a = random_values<T>(static_cast<std::size_t>(lda * n), rng);
  std::vector<T> wire(static_cast<std::size_t>(jb * n));
  const std::vector<T> in = random_values<T>(wire.size(), rng);
  const std::vector<long> rows = distinct_rows(jb, lda, rng);
  std::vector<long> ipiv(static_cast<std::size_t>(jb));
  for (long k = 0; k < jb; ++k)
    ipiv[static_cast<std::size_t>(k)] = k + rng.below(lda - k);

  const double bytes = 2.0 * static_cast<double>(jb * n) * sizeof(T);
  auto mbs = [&](double t) { return 1e-6 * bytes / t; };
  auto at = [&](long r, long c) { return a[static_cast<std::size_t>(r + c * lda)]; };
  std::vector<double> rates;
  auto kernel = [&](const char* name, auto&& run, auto&& check) {
    const double rate = mbs(time_per_call([&] {
      run();
      s.synchronize();
    }));
    rates.push_back(rate);
    emit_probe(name, rate, "MB/s", check());
  };

  kernel("device.row_gather_mbs",
         [&] { device::row_gather(s, a.data(), lda, rows, n, wire.data(), jb); },
         [&] { return wire[jb - 1 + (n - 1) * jb] == at(rows.back(), n - 1); });
  kernel("device.pack_rows_cm_mbs",
         [&] { device::pack_rows_cm(s, a.data(), lda, rows, n, wire.data()); },
         [&] { return wire[1 + 2 * jb] == at(rows[1], 2); });
  kernel("device.row_scatter_mbs",
         [&] { device::row_scatter(s, a.data(), lda, rows, n, in.data(), jb); },
         [&] { return at(rows[3], n - 1) == in[3 + (n - 1) * jb]; });
  kernel("device.unpack_rows_cm_mbs",
         [&] { device::unpack_rows_cm(s, in.data(), rows, n, a.data(), lda); },
         [&] { return at(rows[2], 1) == in[2 + jb]; });
  kernel("device.laswp_mbs",
         [&] { device::laswp(s, a.data(), lda, n, ipiv); },
         [&] {  // one more laswp moves column 0 as the swap sequence says
           std::vector<T> col(a.begin(), a.begin() + lda);
           for (std::size_t k = 0; k < ipiv.size(); ++k)
             std::swap(col[k], col[static_cast<std::size_t>(ipiv[k])]);
           device::laswp(s, a.data(), lda, n, ipiv);
           s.synchronize();
           return std::equal(col.begin(), col.end(), a.begin());
         });

  // The ceiling: a plain memcpy of the same footprint, on the same stream.
  std::vector<T> dst(wire.size());
  const double memcpy_mbs = mbs(time_per_call([&] {
    s.enqueue(0.0, [&] { std::memcpy(dst.data(), in.data(), in.size() * sizeof(T)); });
    s.synchronize();
  }));
  emit_probe("device.memcpy_mbs", memcpy_mbs, "MB/s", dst == in);
  double log_sum = 0.0;
  for (const double r : rates) log_sum += std::log(r);
  emit_probe("device.swap_of_memcpy",
             std::exp(log_sum / static_cast<double>(rates.size())) / memcpy_mbs,
             "ratio", true);

  emit_probe("device.stream_roundtrip_us", 1e6 * time_per_call([&] {
               s.enqueue(0.0, [] {});
               s.synchronize();
             }),
             "us", true);

  device::PoolAllocator pool("perfbench");
  const std::size_t lease = static_cast<std::size_t>(jb * jb) * sizeof(T);
  bool hit = true;
  const double ns = 1e9 * time_per_call([&] {
    device::PoolAllocator::Block b = pool.acquire(lease);
    hit = hit && b.data != nullptr;
    pool.release(b);
  });
  emit_probe("device.pool_acquire_ns", ns, "ns",
             hit && pool.stats().upstream_allocs == 1);
}

// ------------------------------------------------------------ comm

constexpr int kTagPing = 7;

/// Median seconds per repetition of `body`, run by every rank between
/// world barriers; rank 0's clock is the one reported.
template <typename Fn>
double collective_time(comm::Communicator& world, int reps, Fn&& body) {
  body();  // warm the fabric pools at this message size
  std::vector<double> t;
  for (int s = 0; s < kSamples; ++s) {
    comm::barrier(world);
    const auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r) body();
    comm::barrier(world);
    t.push_back(seconds_since(t0) / reps);
  }
  return median(t);
}

unsigned char pattern(std::size_t i, int salt) {
  return static_cast<unsigned char>((i * 131 + static_cast<std::size_t>(salt) * 17) & 0xff);
}

void fill(std::vector<unsigned char>& v, int salt) {
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = pattern(i, salt);
}

bool matches(const std::vector<unsigned char>& v, std::size_t off,
             std::size_t len, int salt) {
  for (std::size_t i = 0; i < len; ++i)
    if (v[off + i] != pattern(i, salt)) return false;
  return true;
}

/// Transport probes on a P×Q world of rank threads. A 1×1 workload sends
/// no messages, so its probes run on a 2×2 world at the same panel
/// width and are reported as not applicable.
void comm_probes(const core::HplConfig& cfg) {
  const bool applicable = cfg.p * cfg.q > 1;
  const int p = applicable ? cfg.p : 2;
  const int q = applicable ? cfg.q : 2;
  const std::size_t elem =
      cfg.precision == core::PrecisionMode::FP64 ? sizeof(double) : sizeof(float);
  const std::size_t jb = static_cast<std::size_t>(cfg.nb);
  // Mid-factorization local extents on that grid.
  const std::size_t ml2 = static_cast<std::size_t>(grid::numroc(cfg.n, cfg.nb, 0, p) / 2);
  const std::size_t width = static_cast<std::size_t>(grid::numroc(cfg.n, cfg.nb, 0, q) / 2);

  double small_us = 0, large_gbs = 0, allreduce_us = 0, bcast_ms = 0, allgv_ms = 0;
  std::atomic<bool> ok{true};
  comm::World::run(p * q, [&](comm::Communicator& world) {
    grid::ProcessGrid g(world, p, q);
    const int me = world.rank();

    auto pingpong = [&](std::size_t bytes, int reps) {
      std::vector<unsigned char> buf(bytes);
      fill(buf, 1);
      const double t = collective_time(world, reps, [&] {
        if (me == 0) {
          world.send_bytes(buf.data(), bytes, 1, kTagPing);
          world.recv_bytes(buf.data(), bytes, 1, kTagPing);
        } else if (me == 1) {
          world.recv_bytes(buf.data(), bytes, 0, kTagPing);
          world.send_bytes(buf.data(), bytes, 0, kTagPing);
        }
      });
      if (!matches(buf, 0, bytes, 1)) ok = false;
      return t / 2.0;  // one way
    };
    const double t_small = pingpong(64, 400);
    const double t_large = pingpong(1 << 20, 20);

    // Pivot search: a max-loc allreduce of the pfact payload (24-byte
    // header + the candidate and current rows) down the panel's column.
    const std::size_t piv_bytes = 24 + 2 * jb * elem;
    std::vector<unsigned char> piv(piv_bytes);
    auto maxloc = [piv_bytes](void* inout, const void* in) {
      double a = 0, b = 0;
      std::memcpy(&a, inout, sizeof(double));
      std::memcpy(&b, in, sizeof(double));
      if (b > a) std::memcpy(inout, in, piv_bytes);
    };
    const bool in_panel_col = g.mycol() == 0;
    const double t_allreduce = collective_time(world, 200, [&] {
      if (!in_panel_col) return;
      const double mine = g.myrow() + 1.0;
      std::memcpy(piv.data(), &mine, sizeof(double));
      comm::allreduce_bytes(g.col_comm(), piv.data(), piv_bytes, maxloc);
    });
    if (in_panel_col) {
      double got = 0;
      std::memcpy(&got, piv.data(), sizeof(double));
      if (got != static_cast<double>(p)) ok = false;
    }

    // Panel broadcast: header + pivots + top block + L2 slab, modified
    // ring along each process row, rooted at process column 0.
    const std::size_t panel_bytes =
        8 * (3 + jb + (jb * jb * elem + ml2 * jb * elem + 7) / 8);
    std::vector<unsigned char> panel(panel_bytes);
    if (g.mycol() == 0) fill(panel, 2);
    const double t_bcast = collective_time(world, 10, [&] {
      comm::bcast_bytes(g.row_comm(), panel.data(), panel_bytes, 0,
                        comm::BcastAlgo::Ring1Mod);
    });
    if (!matches(panel, 0, panel_bytes, 2)) ok = false;

    // Row-swap U assembly: every rank of a process column contributes its
    // share of the jb pivot rows, column-major on the wire, in 256 KiB
    // chunks.
    std::vector<std::size_t> counts(static_cast<std::size_t>(p)),
        displs(static_cast<std::size_t>(p)), grains(static_cast<std::size_t>(p));
    std::size_t total = 0;
    for (int r = 0; r < p; ++r) {
      const std::size_t rows = jb / p + (static_cast<std::size_t>(r) < jb % p ? 1 : 0);
      grains[static_cast<std::size_t>(r)] = rows * elem;
      counts[static_cast<std::size_t>(r)] = rows * elem * width;
      displs[static_cast<std::size_t>(r)] = total;
      total += counts[static_cast<std::size_t>(r)];
    }
    const std::size_t mine_len = counts[static_cast<std::size_t>(g.myrow())];
    std::vector<unsigned char> send(mine_len), recv(total);
    fill(send, 10 + g.myrow());
    const double t_allgv = collective_time(world, 10, [&] {
      comm::allgatherv_chunked(g.col_comm(), send.data(), counts, displs,
                               recv.data(), 256 * 1024, grains,
                               [](const comm::ChunkDelivery&) {});
    });
    for (int r = 0; r < p; ++r)
      if (!matches(recv, displs[static_cast<std::size_t>(r)],
                   counts[static_cast<std::size_t>(r)], 10 + r))
        ok = false;

    if (me == 0) {
      small_us = 1e6 * t_small;
      large_gbs = 1e-9 * static_cast<double>(1 << 20) / t_large;
      allreduce_us = 1e6 * t_allreduce;
      bcast_ms = 1e3 * t_bcast;
      allgv_ms = 1e3 * t_allgv;
    }
  });
  emit_probe("comm.pingpong_small_us", small_us, "us", ok, applicable);
  emit_probe("comm.pingpong_large_gbs", large_gbs, "GB/s", ok, applicable);
  emit_probe("comm.pivot_allreduce_us", allreduce_us, "us", ok, applicable);
  emit_probe("comm.panel_bcast_ms", bcast_ms, "ms", ok, applicable);
  emit_probe("comm.rowswap_allgatherv_ms", allgv_ms, "ms", ok, applicable);
}

// ------------------------------------------------------------ rng

void rng_probe(const core::HplConfig& cfg, const Shapes& sh) {
  // Rank (0, 0)'s block of the N×(N+1) augmented system.
  const long cols = grid::numroc(cfg.n + 1, cfg.nb, 0, cfg.q);
  std::vector<double> a(static_cast<std::size_t>(sh.mloc * cols));
  const double t = time_per_call([&] {
    rng::generate_local(cfg.seed, cfg.n, cfg.n + 1, cfg.nb, 0, 0, cfg.p,
                        cfg.q, a.data(), sh.mloc);
  });
  emit_probe("rng.matgen_mbs",
             1e-6 * static_cast<double>(a.size() * sizeof(double)) / t, "MB/s",
             a[0] == rng::element(cfg.seed, cfg.n, 0, 0));
}

// ------------------------------------------------------------ solves

struct Solve {
  double wall_s = 0.0;
  core::HplResult r;
  std::string error;
};

/// One whole solve, timed from rank spawn to the verified answer.
Solve solve_once(const core::HplConfig& cfg) {
  Solve s;
  const auto t0 = Clock::now();
  try {
    comm::World::run(cfg.p * cfg.q, [&](comm::Communicator& world) {
      core::HplResult r = core::run_hpl(world, cfg);
      if (world.rank() == 0) s.r = std::move(r);
    });
  } catch (const std::exception& e) {
    s.error = e.what();
  }
  s.wall_s = seconds_since(t0);
  return s;
}

void emit_solve(const Solve& s, bool warmup, bool traced, double dgemm_gf) {
  const core::HplResult& r = s.r;
  long long hwm = 0;
  for (const core::AllocPoolReport& pool : r.alloc.pools)
    hwm += static_cast<long long>(pool.hwm_bytes);
  double busy_model = 0.0;
  for (const double b : r.stream_busy_seconds) busy_model += b;
  // A skipped verify leaves passed == false, so it fails here too.
  const bool ok = s.error.empty() && r.verify.passed &&
                  std::isfinite(r.verify.residual) && r.verify.residual < 16.0;
  Record rec("solve");
  rec.flag("warmup", warmup)
      .flag("traced", traced)
      .flag("ok", ok)
      .num("wall_s", s.wall_s)
      .num("hpl_s", r.seconds)
      .num("gflops", r.gflops)
      .num("residual", r.verify.residual)
      .integer("pool_hwm_bytes", hwm)
      .num("fact_s", r.fact_seconds)
      .num("mpi_s", r.mpi_seconds)
      .num("transfer_s", r.transfer_seconds)
      .num("rs_wire_s", r.rs_wire_seconds)
      .num("update_busy_s", r.gpu_seconds)
      .num("update_busy_model_s", busy_model)
      .integer("rs_wire_bytes", r.rs_wire_bytes)
      .integer("steady_allocs",
               static_cast<long long>(r.alloc.steady_upstream_allocs))
      .integer("ir_iters", r.ir_iters)
      .flag("ir_fallback", r.ir_fallback);
  if (traced) rec.num("dgemm_gflops", dgemm_gf);
  if (!s.error.empty()) rec.str("error", s.error);
  rec.emit();
}

int usage() {
  std::fprintf(stderr,
               "usage: hplx_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace 0|1\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* w = nullptr;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      for (const Workload& c : kWorkloads)
        if (std::strcmp(c.name, val) == 0) w = &c;
    } else if (key == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      trace = std::strcmp(val, "1") == 0;
    } else {
      return usage();
    }
  }
  if (w == nullptr || argc % 2 != 1 || !(seconds > 0.0)) return usage();

  const core::HplConfig cfg = config_of(*w, seed);
  const Shapes sh = shapes_of(cfg);
  const long nproc = emit_machine();
  emit_config(*w, cfg);
  // Thread budget: ranks are threads of this process, and every rank's
  // FACT call runs fact_threads threads.
  const int ranks = cfg.p * cfg.q;
  if (ranks > nproc || ranks * cfg.fact_threads > nproc)
    std::fprintf(stderr,
                 "warning: %s runs %d ranks x %d FACT threads on nproc = %ld; "
                 "its threads time-share cores\n",
                 w->name, ranks, cfg.fact_threads, nproc);

  blas::set_num_threads(cfg.blas_threads);
  emit_solve(solve_once(cfg), /*warmup=*/true, false, 0.0);

  Rng rng(seed);
  Gemm<double> dgemm(sh.m, sh.n, sh.nb, rng);
  if (trace) {
    blas_probes(sh, rng, dgemm);
    if (cfg.precision == core::PrecisionMode::FP64)
      device_probes<double>(sh, cfg, rng);
    else
      device_probes<float>(sh, cfg, rng);
    comm_probes(cfg);
    rng_probe(cfg, sh);
  }

  // Untraced runs solve back to back; traced runs alternate a plain solve
  // with a dgemm sample followed by a solve.
  constexpr int kMinSolves = 4;
  const auto t0 = Clock::now();
  for (int i = 0; i < kMinSolves || seconds_since(t0) < seconds; ++i) {
    const bool traced = trace && i % 2 == 1;
    const double gf = traced ? dgemm_sample(dgemm, 0.05) : 0.0;
    emit_solve(solve_once(cfg), false, traced, gf);
  }
  return 0;
}
