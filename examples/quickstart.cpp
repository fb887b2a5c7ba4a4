/// \file quickstart.cpp
/// \brief First contact with flashhp: huge-page memory + a tiny simulation.
///
/// Demonstrates the core loop of the library in ~60 lines of user code:
///   1. build the rt::Runtime execution context the simulation runs in;
///      it picks the huge-page policy (environment-driven, like the
///      Fujitsu runtime's XOS_MMM_L_HPAGE_TYPE), the lane count
///      (FLASHHP_THREADS) and the layout (FLASHHP_LAYOUT),
///   2. allocate a mesh on that policy and *verify* the backing via /proc
///      (the paper's methodology),
///   3. run a small Sedov explosion and print the FLASH-style timer
///      summary.
///
/// Try: FLASHHP_HPAGE_TYPE=hugetlbfs FLASHHP_THREADS=4 ./quickstart
/// A bad value in any of these variables exits with status 2.

#include <iostream>

#include "hydro/hydro.hpp"
#include "mem/huge_policy.hpp"
#include "mem/meminfo.hpp"
#include "perf/timers.hpp"
#include "rt/runtime.hpp"
#include "sim/driver.hpp"
#include "sim/sedov.hpp"
#include "support/error.hpp"

int main() try {
  using namespace fhp;

  // 1. The execution context: huge-page policy from FLASHHP_HPAGE_TYPE /
  //    XOS_MMM_L_HPAGE_TYPE (none | thp | hugetlbfs; defaults to none),
  //    lane count from FLASHHP_THREADS (defaults to 1 = serial), mesh
  //    layout from FLASHHP_LAYOUT, and a page pool of its own. Every
  //    service the simulation uses hangs off this one object — a second
  //    Runtime would be a second, independent tenant.
  rt::Runtime runtime;
  const mem::HugePolicy policy = runtime.huge_policy();
  std::cout << "huge-page policy: " << mem::to_string(policy) << "\n";

  // 2. A small 2-d Sedov problem; the mesh's unk container lives on the
  //    runtime's policy, carved from the runtime's pool.
  sim::SedovParams params;
  params.ndim = 2;
  params.nzb = 1;
  params.max_level = 3;
  params.maxblocks = 300;
  sim::SedovSetup setup(params, policy, runtime);

  const mem::MappedRegion& region = setup.mesh().unk().region();
  std::cout << "unk backing: " << region.describe() << "\n";
  std::cout << "verified on huge pages: "
            << region.resident_huge_bytes() / (1 << 20) << " MiB\n";
  std::cout << "system: " << mem::MeminfoSnapshot::capture().summary()
            << "\n";

  //    The leaf-block sweeps run block-parallel on the runtime's lanes;
  //    results are bit-identical to the serial run at any lane count.
  std::cout << "sweep threads: " << runtime.lanes() << "\n";

  // 3. Evolve 30 steps and report.
  hydro::HydroSolver hydro(setup.mesh(), setup.eos());
  perf::Timers timers;
  sim::DriverOptions opts;
  opts.nsteps = 30;
  opts.trace_sample = 0;  // no machine model in the quickstart
  opts.verbose = false;
  sim::DriverUnits units;
  units.runtime = &runtime;
  sim::Driver driver(setup.mesh(), hydro, timers, opts, units);
  driver.evolve();

  std::cout << "\nran " << driver.steps() << " steps to t = "
            << driver.sim_time() << "; "
            << setup.mesh().tree().leaves_morton().size()
            << " leaf blocks\n\n";
  timers.summary(std::cout);
  return 0;
} catch (const fhp::ConfigError& e) {
  std::cerr << "quickstart: " << e.what() << "\n";
  return 2;
}
