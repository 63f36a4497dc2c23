/// \file hpl_runner.cpp
/// \brief The xhpl experience: read an HPL.dat, run every configuration
/// it describes, and print the classic result lines.
///
///   ./hpl_runner --dat=HPL.dat        # or run without a file to use the
///                                     # built-in container-scale default
///
/// Exits 0 when every run passes its residual check, 1 when one fails,
/// and 2 on unreadable files or rejected input (the `hplx error` message
/// goes to stderr).

#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>

#include "comm/world.hpp"
#include "core/hpldat.hpp"
#include "core/report.hpp"
#include "util/options.hpp"

namespace {

/// A container-scale HPL.dat exercising two problem sizes, two blocking
/// factors and two grids — 8 runs, like a small xhpl tuning sweep.
const char kDefaultDat[] =
    "HPLinpack benchmark input file\n"
    "hplx built-in default (container scale)\n"
    "HPL.out      output file name (if any)\n"
    "6            device out (6=stdout,7=stderr,file)\n"
    "2            # of problems sizes (N)\n"
    "96 128       Ns\n"
    "2            # of NBs\n"
    "16 32        NBs\n"
    "0            PMAP process mapping (0=Row-,1=Column-major)\n"
    "2            # of process grids (P x Q)\n"
    "2 1          Ps\n"
    "2 4          Qs\n"
    "16.0         threshold\n"
    "1            # of panel fact\n"
    "2            PFACTs (0=left, 1=Crout, 2=Right)\n"
    "1            # of recursive stopping criterium\n"
    "8            NBMINs (>= 1)\n"
    "1            # of panels in recursion\n"
    "2            NDIVs\n"
    "1            # of recursive panel fact.\n"
    "2            RFACTs (0=left, 1=Crout, 2=Right)\n"
    "1            # of lookahead depth\n"
    "1            DEPTHs (>=0)\n"
    "1            # of broadcast\n"
    "1            BCASTs (0=1rg,1=1rM,2=2rg,3=2rM,4=Lng,5=LnM)\n"
    "1            SWAP (0=bin-exch,1=long,2=mix)\n"
    "64           swapping threshold\n"
    "0            L1 in (0=transposed,1=no-transposed) form\n"
    "0            U  in (0=transposed,1=no-transposed) form\n"
    "1            Equilibration (0=no,1=yes)\n"
    "8            memory alignment in double (> 0)\n"
    "0.5          split fraction (rocHPL extension)\n"
    "2            FACT threads (rocHPL extension)\n";

int run(int argc, char** argv) {
  using namespace hplx;
  Options opt(argc, argv);

  core::HplDat dat;
  if (opt.has("dat")) {
    std::ifstream in(opt.get("dat", ""));
    if (!in) {
      std::cerr << "cannot open " << opt.get("dat", "") << "\n";
      return 2;
    }
    dat = core::parse_hpldat(in);
  } else {
    dat = core::parse_hpldat_string(kDefaultDat);
  }

  // Classic "device out" semantics: 6 = stdout, 7 = stderr, anything else
  // writes the named output file (and echoes to stdout).
  std::ofstream file;
  if (dat.device_out != 6 && dat.device_out != 7) {
    file.open(dat.output_file);
    if (!file) {
      std::cerr << "cannot open output file " << dat.output_file << "\n";
      return 2;
    }
  }
  std::ostream& out = dat.device_out == 7 ? std::cerr : std::cout;
  auto emit = [&](auto&& fn) {
    fn(out);
    if (file.is_open()) fn(file);
  };

  const auto configs = core::expand_configs(dat);
  emit([](std::ostream& os) { core::print_hpl_banner(os); });
  emit([&](std::ostream& os) {
    os << "The following parameter values will be used:\n  "
       << configs.size() << " combinations (N x NB x grid x fact x depth x "
       << "bcast)\n\n";
  });
  emit([](std::ostream& os) { core::print_hpl_header(os); });

  int passed = 0;
  for (const auto& cfg : configs) {
    core::HplResult result;
    comm::World::run(cfg.p * cfg.q, [&](comm::Communicator& world) {
      core::HplResult r = core::run_hpl(world, cfg);
      if (world.rank() == 0) result = std::move(r);
    });
    emit([&](std::ostream& os) { core::print_hpl_result(os, cfg, result); });
    emit([&](std::ostream& os) { core::print_hazard_report(os, result); });
    emit([&](std::ostream& os) { core::print_comm_report(os, result); });
    emit([&](std::ostream& os) { core::print_alloc_report(os, result); });
    if (result.verify.passed) ++passed;
  }
  emit([&](std::ostream& os) {
    core::print_hpl_footer(os, static_cast<int>(configs.size()), passed);
  });
  if (file.is_open())
    std::printf("\n(results also written to %s)\n", dat.output_file.c_str());
  return passed == static_cast<int>(configs.size()) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}
