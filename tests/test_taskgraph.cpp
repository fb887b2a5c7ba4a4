/// \file test_taskgraph.cpp
/// \brief Tests for the par::TaskGraph DAG executor and the task-graph
/// execution mode of the driver.
///
/// Three layers:
///   1. construction contracts — cycle rejection, self/duplicate edges,
///      freeze discipline;
///   2. dependency ordering under an adversarial scheduler — run_serial
///      executes ready tasks in reverse or seeded-random order, so any
///      missing edge shows up as an ordering violation without needing a
///      lucky thread interleaving;
///   3. the PR invariant — Sedov and supernova end states *and* published
///      counters bit-identical between bulk-sync and task-graph execution
///      at 1/2/4 lanes across all three unk layouts, plus a tsan workload
///      with the sampler running over task-graph steps.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "eos/eos_table.hpp"
#include "hydro/hydro.hpp"
#include "mem/huge_policy.hpp"
#include "mesh/amr_mesh.hpp"
#include "mesh/config.hpp"
#include "mesh/layout.hpp"
#include "obs/sampler.hpp"
#include "obs/telemetry.hpp"
#include "par/parallel.hpp"
#include "par/task_graph.hpp"
#include "perf/perf_context.hpp"
#include "perf/timers.hpp"
#include "rt/runtime.hpp"
#include "sim/driver.hpp"
#include "sim/sedov.hpp"
#include "sim/supernova.hpp"
#include "support/error.hpp"
#include "tlb/machine.hpp"

namespace fhp::par {
namespace {

// ------------------------------------------------- construction contracts

TEST(TaskGraphBuild, CycleRejectedWithTaskNames) {
  ExecArena arena(1);
  TaskGraph g(arena);
  const auto a = g.add_task("alpha", [](int) {});
  const auto b = g.add_task("beta", [](int) {});
  const auto c = g.add_task("gamma", [](int) {});
  g.add_edge(a, b);
  g.add_edge(b, c);
  g.add_edge(c, a);
  try {
    g.freeze();
    FAIL() << "freeze() accepted a cyclic graph";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cycle"), std::string::npos) << what;
    EXPECT_NE(what.find("alpha"), std::string::npos) << what;
    EXPECT_NE(what.find("beta"), std::string::npos) << what;
  }
}

TEST(TaskGraphBuild, SelfEdgeRejected) {
  ExecArena arena(1);
  TaskGraph g(arena);
  const auto a = g.add_task("self", [](int) {});
  EXPECT_THROW(g.add_edge(a, a), ConfigError);
}

TEST(TaskGraphBuild, DuplicateEdgeRejected) {
  ExecArena arena(1);
  TaskGraph g(arena);
  const auto a = g.add_task("a", [](int) {});
  const auto b = g.add_task("b", [](int) {});
  g.add_edge(a, b);
  EXPECT_THROW(g.add_edge(a, b), ConfigError);
}

TEST(TaskGraphBuild, MutationAfterFreezeRejected) {
  ExecArena arena(1);
  TaskGraph g(arena);
  const auto a = g.add_task("a", [](int) {});
  const auto b = g.add_task("b", [](int) {});
  g.add_edge(a, b);
  g.freeze();
  EXPECT_TRUE(g.frozen());
  EXPECT_THROW(g.add_task("late", [](int) {}), ConfigError);
  EXPECT_THROW(g.add_edge(a, b), ConfigError);
  g.clear();
  EXPECT_FALSE(g.frozen());
  EXPECT_EQ(g.size(), 0u);
}

TEST(TaskGraphBuild, RunRequiresFreeze) {
  ExecArena arena(1);
  TaskGraph g(arena);
  g.add_task("a", [](int) {});
  EXPECT_THROW(g.run(), ConfigError);
  EXPECT_THROW(g.run_serial(TaskGraph::Schedule::kFifo), ConfigError);
}

TEST(TaskGraphBuild, EmptyGraphRunsAsNoOp) {
  ExecArena arena(1);
  TaskGraph g(arena);
  g.freeze();
  g.run();
  EXPECT_EQ(g.last_stats().executed, 0u);
}

// --------------------------------------------------- parallel execution

TEST(TaskGraphRun, EveryTaskExecutesExactlyOnce) {
  constexpr int kTasks = 96;
  ExecArena arena(4);
  TaskGraph g(arena);
  std::vector<std::atomic<int>> hits(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    g.add_task("work", [&hits, i](int) {
      hits[static_cast<std::size_t>(i)].fetch_add(1,
                                                  std::memory_order_relaxed);
    });
  }
  g.freeze();
  g.run();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(g.last_stats().executed, static_cast<std::uint64_t>(kTasks));

  // Graphs are reusable: a second run re-executes everything.
  g.run();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 2);
}

TEST(TaskGraphRun, ExceptionAbortsRunAndRethrows) {
  ExecArena arena(2);
  TaskGraph g(arena);
  std::atomic<int> ran{0};
  const auto boom = g.add_task("boom", [](int) {
    throw NumericsError("deliberate task failure");
  });
  const auto after = g.add_task("after", [&ran](int) { ran.fetch_add(1); });
  g.add_edge(boom, after);
  for (int i = 0; i < 8; ++i) {
    g.add_task("bystander", [&ran](int) { ran.fetch_add(1); });
  }
  g.freeze();
  EXPECT_THROW(g.run(), NumericsError);
  // Termination is guaranteed (completions propagate even on abort), and
  // the graph is reusable afterwards: a run with no throwing body works.
  ran.store(0);
  EXPECT_THROW(g.run(), NumericsError);
}

// ------------------------------------------- adversarial ready orders

/// A graph with a known dependency relation: diamond over a chain.
///
///    0 ──► 1 ──► 3 ──► 5
///    │      ╲          ▲
///    └─► 2 ──► 4 ──────┘     (plus 6, 7 independent)
struct OrderedGraph {
  ExecArena arena{1};
  TaskGraph g{arena};
  std::vector<int> order;  // completion sequence of task ids
  std::vector<std::pair<int, int>> edges;

  OrderedGraph() {
    for (int i = 0; i < 8; ++i) {
      // fhp-analyze: allow(alloc-in-region) -- test harness recording the
      // completion order under single-threaded serial replay
      g.add_task("node", [this, i](int) { order.push_back(i); });
    }
    edges = {{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 4}, {3, 5}, {4, 5}};
    for (const auto& [a, b] : edges) g.add_edge(a, b);
    g.freeze();
  }

  void expect_respects_dependencies(const char* what) {
    ASSERT_EQ(order.size(), 8u) << what;
    auto position = [&](int id) {
      for (std::size_t p = 0; p < order.size(); ++p) {
        if (order[p] == id) return p;
      }
      return order.size();
    };
    for (const auto& [a, b] : edges) {
      EXPECT_LT(position(a), position(b))
          << what << ": task " << b << " ran before its dependency " << a;
    }
  }
};

TEST(TaskGraphAdversarial, ReverseScheduleRespectsDependencies) {
  OrderedGraph og;
  og.g.run_serial(TaskGraph::Schedule::kReverse);
  og.expect_respects_dependencies("reverse");
}

TEST(TaskGraphAdversarial, RandomSchedulesRespectDependencies) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    OrderedGraph og;
    og.g.run_serial(TaskGraph::Schedule::kRandom, seed);
    og.expect_respects_dependencies(
        ("random seed " + std::to_string(seed)).c_str());
  }
}

TEST(TaskGraphAdversarial, FifoScheduleIsSubmissionOrderForFreeTasks) {
  ExecArena arena(1);
  TaskGraph g(arena);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    // fhp-analyze: allow(alloc-in-region) -- test harness recording the
    // completion order under single-threaded serial replay
    g.add_task("free", [&order, i](int) { order.push_back(i); });
  }
  g.freeze();
  g.run_serial(TaskGraph::Schedule::kFifo);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

}  // namespace
}  // namespace fhp::par

// ===================================================================
// Driver-level invariant: bulk-sync vs task-graph bit-identity.
// ===================================================================

namespace fhp::sim {
namespace {

// Each run builds its own rt::Runtime with the lane count under test;
// tests/test_runtime.cpp covers runtimes side by side.

using mesh::LayoutKind;

constexpr LayoutKind kAllLayouts[] = {LayoutKind::kVarMajor,
                                      LayoutKind::kZoneMajor};

/// Canonical end state: every leaf interior zone vector in Morton order,
/// the final time, and the full published software-counter set (wall
/// nanos excluded — modeled counters must be exact, wall time is not).
struct RunResult {
  std::vector<double> state;
  perf::CounterSet counters;
};

void append_canonical_state(const mesh::AmrMesh& m, double time,
                            std::vector<double>& out) {
  const mesh::MeshConfig& c = m.config();
  std::vector<double> zone(static_cast<std::size_t>(c.nvar()));
  for (int b : m.tree().leaves_morton()) {
    for (int k = c.klo(); k < c.khi(); ++k) {
      for (int j = c.jlo(); j < c.jhi(); ++j) {
        for (int i = c.ilo(); i < c.ihi(); ++i) {
          m.unk().gather_zone(0, c.nvar(), i, j, k, b, zone.data());
          out.insert(out.end(), zone.begin(), zone.end());
        }
      }
    }
  }
  out.push_back(time);
}

void expect_identical(const RunResult& a, const RunResult& b,
                      const std::string& what) {
  ASSERT_EQ(a.state.size(), b.state.size()) << what;
  ASSERT_EQ(std::memcmp(a.state.data(), b.state.data(),
                        a.state.size() * sizeof(double)),
            0)
      << what << ": physics state differs";
  for (std::size_t e = 0; e < perf::kNumEvents; ++e) {
    if (e == static_cast<std::size_t>(perf::Event::kWallNanos)) continue;
    EXPECT_EQ(a.counters.values[e], b.counters.values[e])
        << what << ": counter " << e << " differs";
  }
}

RunResult run_sedov(LayoutKind layout, int threads, ExecMode mode) {
  rt::Runtime runtime(
      rt::RuntimeOptions{.lanes = threads, .layout = layout});
  perf::PerfContext perf;
  SedovParams params;
  params.ndim = 2;
  params.nzb = 1;
  params.max_level = 2;
  params.maxblocks = 128;
  SedovSetup setup(params, mem::HugePolicy::kNone, runtime);
  mesh::AmrMesh& m = setup.mesh();
  hydro::HydroSolver hydro(m, setup.eos());
  perf::Timers timers;
  tlb::Machine machine({}, &perf);
  DriverOptions opts;
  opts.nsteps = 12;
  opts.trace_sample = 2;  // exercise the modeled counters too
  opts.verbose = false;
  opts.exec_mode = mode;
  DriverUnits units;
  units.machine = &machine;
  units.perf = &perf;
  units.runtime = &runtime;
  Driver driver(m, hydro, timers, opts, units);
  driver.evolve();
  RunResult r;
  append_canonical_state(m, driver.sim_time(), r.state);
  r.counters = perf.snapshot();
  if (mode == ExecMode::kTaskGraph && threads > 1) {
    // Sanity: the DAG actually executed tasks (the invariant would hold
    // vacuously if the task path silently fell back to bulk).
    EXPECT_GT(driver.scheduler_stats().executed, 0u);
  }
  return r;
}

TEST(TaskGraphPhysics, SedovBitIdenticalAcrossModesLanesAndLayouts) {
  // Modeled counters are a function of the layout (that is the paper's
  // point), so the counter invariant is bulk-sync vs task-graph *within*
  // each layout; the physics state is additionally layout-invariant.
  const RunResult global =
      run_sedov(LayoutKind::kVarMajor, 1, ExecMode::kBulkSync);
  ASSERT_GT(global.state.size(), 1u);
  for (const LayoutKind layout : kAllLayouts) {
    const RunResult bulk =
        layout == LayoutKind::kVarMajor
            ? global
            : run_sedov(layout, 1, ExecMode::kBulkSync);
    ASSERT_EQ(bulk.state.size(), global.state.size());
    ASSERT_EQ(std::memcmp(bulk.state.data(), global.state.data(),
                          global.state.size() * sizeof(double)),
              0)
        << mesh::to_string(layout) << ": bulk state differs across layouts";
    for (const int threads : {1, 2, 4}) {
      expect_identical(
          bulk, run_sedov(layout, threads, ExecMode::kTaskGraph),
          std::string(mesh::to_string(layout)) + " x " +
              std::to_string(threads) + " lanes (task graph)");
    }
  }
}

RunResult run_supernova(LayoutKind layout, int threads, ExecMode mode) {
  rt::Runtime runtime(
      rt::RuntimeOptions{.lanes = threads, .layout = layout});
  perf::PerfContext perf;
  SupernovaParams p;
  p.max_level = 3;
  p.maxblocks = 400;
  p.table_spec = {-4.0, 10.0, 141, 5.0, 10.0, 51};
  p.table_cache = "helm_table_taskgraph.bin";
  SupernovaSetup setup(p, mem::HugePolicy::kNone, runtime);
  mesh::AmrMesh& m = setup.mesh();
  hydro::HydroOptions hopt;
  hopt.cfl = 0.6;
  hydro::HydroSolver hydro(m, setup.eos(), hopt);
  hydro.set_composition_fn(setup.composition_fn());
  perf::Timers timers;
  tlb::Machine machine({}, &perf);
  DriverOptions opts;
  opts.nsteps = 4;
  opts.trace_sample = 2;
  opts.verbose = false;
  opts.refine_vars = {mesh::var::kDens,
                      mesh::var::kFirstScalar + snvar::kPhi};
  opts.exec_mode = mode;
  DriverUnits units;
  units.flame = &setup.flame();
  units.gravity = &setup.gravity();
  units.machine = &machine;
  units.eos_trace =
      [&setup](tlb::Tracer& t, int b) { setup.trace_eos_block(t, b); };
  units.perf = &perf;
  units.runtime = &runtime;
  Driver driver(m, hydro, timers, opts, units);
  driver.evolve();
  RunResult r;
  append_canonical_state(m, driver.sim_time(), r.state);
  r.counters = perf.snapshot();
  // The flame's serial leaf-order energy reduction is part of the
  // bit-identity contract; fold it into the comparable state.
  r.state.push_back(setup.flame().energy_released());
  return r;
}

TEST(TaskGraphPhysics, SupernovaBitIdenticalAcrossModesLanesAndLayouts) {
  // Warm the process before the baseline run. Two harness artifacts can
  // shift the modeled address stream without any physics difference:
  // building the helm table (first run in a fresh tree) vs loading it
  // (every later run) leaves a different allocation layout behind, and —
  // under sanitizer allocators especially — the very first full
  // simulation in a process runs against a colder heap than every later
  // one. Neither is part of the bulk-vs-task-graph contract, so warm the
  // table cache and then discard one complete run: every *measured* run
  // below executes in allocator steady state.
  mem::PagePool pool;
  (void)eos::HelmTable::build_or_load({-4.0, 10.0, 141, 5.0, 10.0, 51},
                                      mem::HugePolicy::kNone, pool,
                                      "helm_table_taskgraph.bin");
  (void)run_supernova(LayoutKind::kVarMajor, 1, ExecMode::kBulkSync);
  const RunResult global =
      run_supernova(LayoutKind::kVarMajor, 1, ExecMode::kBulkSync);
  ASSERT_GT(global.state.size(), 1u);
  for (const LayoutKind layout : kAllLayouts) {
    const RunResult bulk =
        layout == LayoutKind::kVarMajor
            ? global
            : run_supernova(layout, 1, ExecMode::kBulkSync);
    ASSERT_EQ(bulk.state.size(), global.state.size());
    ASSERT_EQ(std::memcmp(bulk.state.data(), global.state.data(),
                          global.state.size() * sizeof(double)),
              0)
        << mesh::to_string(layout) << ": bulk state differs across layouts";
    for (const int threads : {1, 2, 4}) {
      expect_identical(
          bulk, run_supernova(layout, threads, ExecMode::kTaskGraph),
          std::string(mesh::to_string(layout)) + " x " +
              std::to_string(threads) + " lanes (task graph)");
    }
  }
}

// --------------------------------------------------- tsan workload

TEST(TaskGraphSampler, SamplerOverTaskGraphStepsIsRaceFree) {
  // The tsan preset's task-graph workload: a background sampler reading
  // published counters at 1 ms cadence while work-stealing lanes run a
  // full task-graph Sedov evolution with spans enabled. Any read of
  // unsynchronized scheduler or shard state is a tsan report.
  rt::Runtime runtime(rt::RuntimeOptions{.lanes = 2});
  perf::PerfContext perf;
  obs::TelemetryOptions topts;
  topts.lanes = runtime.lanes();
  obs::Telemetry telemetry(topts);
  telemetry.install();
  obs::SamplerOptions sopts = obs::SamplerOptions::with_procfs_root(
      std::string(FHP_TEST_FIXTURE_DIR) + "/procfs/kernel-6.6");
  sopts.cadence = std::chrono::milliseconds(1);
  sopts.perf = &perf;
  obs::Sampler sampler(sopts);
  sampler.start();

  SedovParams params;
  params.ndim = 2;
  params.nzb = 1;
  params.max_level = 2;
  params.maxblocks = 128;
  SedovSetup setup(params, mem::HugePolicy::kNone, runtime);
  mesh::AmrMesh& m = setup.mesh();
  hydro::HydroSolver hydro(m, setup.eos());
  perf::Timers timers;
  tlb::Machine machine({}, &perf);
  DriverOptions opts;
  opts.nsteps = 10;
  opts.trace_sample = 2;
  opts.verbose = false;
  opts.exec_mode = ExecMode::kTaskGraph;
  DriverUnits units;
  units.machine = &machine;
  units.perf = &perf;
  units.runtime = &runtime;
  Driver driver(m, hydro, timers, opts, units);
  driver.evolve();

  sampler.stop();
  telemetry.uninstall();
  EXPECT_EQ(driver.steps(), 10);
  EXPECT_GT(telemetry.total_spans(), 0u);
  EXPECT_GE(sampler.taken(), 1u);
  EXPECT_GT(perf.published().seq, 0u);
}

}  // namespace
}  // namespace fhp::sim
