/// \file perfbench.cpp
/// \brief Measurement driver behind perfbench/run.py.
///
/// Subcommands (all print one JSON document of raw measurements on
/// stdout; run.py turns them into medians and percentiles):
///
///   perfbench prepare --cache DIR
///       Build the Helm tables the workloads load (the FLASH-size table
///       and the service tenants' small table) into DIR. Untimed.
///   perfbench sim --workload supernova2d --seed N --trace 0|1
///                 --cache DIR --work DIR
///       Untraced (trace 0): nine timed constructions, a modeled-counter
///       window, a 1-lane Driver over a fixed window, checkpoint round
///       trip.
///       Traced (trace 1): the same problem stepped by StepCopy — the
///       bulk-sync Driver::step_once rebuilt from public calls with an
///       in-memory span log — at 4 and 1 lanes, interleaved with the
///       untraced 4-lane Driver whose end state both must match.
///       Both end with the 3-d Sedov shock check.
///   perfbench service --seed N --seconds S --cache DIR
///       Tenant set-up timed through svc::Service and solo reference
///       runs, then phase A (a Poisson open loop at a fixed rate for S
///       seconds) and phase B (a fixed batch on one worker, released in
///       rounds).
///
/// Everything runs on the library defaults (layout, exec mode, huge-page
/// policy, service options); only lane counts and seeds are pinned.

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "eos/eos_table.hpp"
#include "hydro/hydro.hpp"
#include "mesh/amr_mesh.hpp"
#include "perf/perf_context.hpp"
#include "perf/region.hpp"
#include "perf/timers.hpp"
#include "rt/runtime.hpp"
#include "sim/cellular.hpp"
#include "sim/checkpoint.hpp"
#include "sim/driver.hpp"
#include "sim/profiles.hpp"
#include "sim/sedov.hpp"
#include "sim/supernova.hpp"
#include "support/rng.hpp"
#include "svc/service.hpp"
#include "tlb/machine.hpp"

namespace {

using namespace fhp;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One "Name:  123 kB" field of the process status file, in KiB.
double status_kib(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0 && line.size() > n && line[n] == ':') {
      return std::strtod(line.c_str() + n + 1, nullptr);
    }
  }
  return 0.0;
}

/// Size and modification time of a file (nullopt if missing): a table
/// rebuilt by build_or_load rewrites its cache file, which this sees.
std::optional<std::pair<long long, long long>> file_stamp(
    const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return std::nullopt;
  return std::make_pair(static_cast<long long>(st.st_size),
                        static_cast<long long>(st.st_mtim.tv_sec) * 1000000000LL +
                            st.st_mtim.tv_nsec);
}

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Counter sets equal on every event except wall time.
bool counters_identical(const perf::CounterSet& a, const perf::CounterSet& b) {
  for (std::size_t e = 0; e < perf::kNumEvents; ++e) {
    if (e == static_cast<std::size_t>(perf::Event::kWallNanos)) continue;
    if (a.values[e] != b.values[e]) return false;
  }
  return true;
}

// ------------------------------------------------------- machine probe

/// A fixed amount of dependent floating-point work (about 0.1 s),
/// independent of the code under test. The volatile store keeps the
/// compiler from dropping a call whose result is unused.
void spin_work() {
  double x = 1.0;
  for (int i = 0; i < 50000000; ++i) x = x * 1.0000001 + 1e-9;
  volatile double sink = x;
  (void)sink;
}

/// The host's state at one moment, for the fingerprint.
struct Probe {
  double cpus;     ///< CPUs given to this process, 0..4
  double spin1_s;  ///< single-thread time of the fixed work
};

/// The same work on four threads at once against one thread, scaled to
/// 0..4. The benchmark host runs this VM on anywhere between about one
/// and four CPUs over minutes, which is why multi-lane wall times are
/// reported, not gated.
Probe probe_host() {
  const Clock::time_point t0 = Clock::now();
  spin_work();
  const double t1 = seconds_since(t0);
  const Clock::time_point t2 = Clock::now();
  std::vector<std::thread> others;
  for (int k = 0; k < 3; ++k) others.emplace_back(spin_work);
  spin_work();
  for (std::thread& t : others) t.join();
  return {std::min(4.0, 4.0 * t1 / seconds_since(t2)), t1};
}

// ------------------------------------------------------------------ JSON

/// Minimal streaming JSON writer for the raw-measurement document.
class Json {
 public:
  Json& key(const std::string& k) {
    sep();
    os_ << '"' << k << "\":";
    fresh_ = true;
    return *this;
  }
  Json& open(char c) {
    sep();
    os_ << c;
    first_.push_back(true);
    return *this;
  }
  Json& close(char c) {
    os_ << c;
    first_.pop_back();
    return *this;
  }
  Json& num(double v) {
    sep();
    if (std::isfinite(v)) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      os_ << buf;
    } else {
      os_ << "null";
    }
    return *this;
  }
  Json& integer(long long v) {
    sep();
    os_ << v;
    return *this;
  }
  Json& boolean(bool v) {
    sep();
    os_ << (v ? "true" : "false");
    return *this;
  }
  Json& str(const std::string& v) {
    sep();
    os_ << '"' << v << '"';
    return *this;
  }
  Json& nums(const std::vector<double>& v) {
    open('[');
    for (double x : v) num(x);
    return close(']');
  }
  [[nodiscard]] std::string text() const { return os_.str(); }

 private:
  void sep() {
    if (fresh_) {
      fresh_ = false;
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) os_ << ',';
      first_.back() = false;
    }
  }
  std::ostringstream os_;
  std::vector<bool> first_;
  bool fresh_ = false;
};

// ------------------------------------------------------------- span log

/// In-memory span log: name, start, end, parent. Written once at the end
/// of the run, so recording costs two clock reads and a vector slot.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
  };

  class Scope {
   public:
    Scope(SpanLog& log, const char* name) : log_(log) {
      index_ = static_cast<int>(log_.spans_.size());
      log_.spans_.push_back({name, now_ns(), 0, log_.open_});
      log_.open_ = index_;
    }
    ~Scope() {
      Span& s = log_.spans_[static_cast<std::size_t>(index_)];
      s.end_ns = now_ns();
      log_.open_ = s.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int index_;
  };

  SpanLog() { spans_.reserve(1 << 14); }

  void write(Json& j) const {
    j.open('[');
    for (const Span& s : spans_) {
      j.open('[').str(s.name).integer(s.start_ns).integer(s.end_ns)
          .integer(s.parent).close(']');
    }
    j.close(']');
  }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }
  std::vector<Span> spans_;
  int open_ = -1;
};

// ------------------------------------------------------------ workloads

/// Fixed step windows of the supernova2d workload (see METRICS.md for
/// the sizing).
struct SimPlan {
  int warm;          ///< untimed steps before the window
  int window;        ///< timed steps per arm, untraced run
  int trace_window;  ///< timed steps per arm, traced run
  int model;         ///< modeled-counter window (trace_sample 4)
  int chunk;         ///< steps per arm between interleave switches; one
                     ///< remesh cycle, so each chunk holds one remesh
};

constexpr SimPlan kPlan{4, 240, 32, 4, 4};

constexpr int kModelSample = 4;
/// Constructions timed in an untraced run, half before and half after
/// the stepped window.
constexpr int kSetupBuilds = 9;

/// Everything one simulation arm owns: the paper's supernova arm of
/// bench/experiment_runners.hpp, built on the library defaults.
struct SimCase {
  std::unique_ptr<rt::Runtime> runtime;
  std::unique_ptr<sim::SupernovaSetup> supernova;
  std::unique_ptr<hydro::HydroSolver> hydro;
  std::unique_ptr<tlb::Machine> machine;
  perf::Timers timers;
  sim::DriverOptions dopt;
  sim::DriverUnits units;
  std::unique_ptr<sim::Driver> driver;

  [[nodiscard]] mesh::AmrMesh& mesh() { return supernova->mesh(); }
  [[nodiscard]] double flame_energy() const {
    return supernova->flame().energy_released();
  }
};

std::unique_ptr<SimCase> build_case(int lanes, int nsteps, bool model,
                                    const std::string& table) {
  auto c = std::make_unique<SimCase>();
  rt::RuntimeOptions ropt;
  ropt.lanes = lanes;
  c->runtime = std::make_unique<rt::Runtime>(ropt);
  rt::Runtime& runtime = *c->runtime;
  const mem::HugePolicy policy = runtime.huge_policy();

  c->dopt.nsteps = nsteps;
  c->dopt.trace_sample = model ? kModelSample : 0;
  c->dopt.verbose = false;
  c->units.runtime = &runtime;
  if (model) {
    c->machine = std::make_unique<tlb::Machine>(tlb::MachineParams{},
                                                &runtime.perf());
    c->units.machine = c->machine.get();
  }
  hydro::HydroOptions hopt;
  hopt.cfl = 0.6;

  sim::SupernovaParams params;
  params.max_level = 4;
  params.maxblocks = 1500;
  params.table_cache = table;
  c->supernova = std::make_unique<sim::SupernovaSetup>(params, policy, runtime);
  sim::SupernovaSetup& setup = *c->supernova;
  c->hydro = std::make_unique<hydro::HydroSolver>(setup.mesh(), setup.eos(),
                                                  hopt);
  c->hydro->set_composition_fn(setup.composition_fn());
  c->dopt.refine_vars = {mesh::var::kDens,
                         mesh::var::kFirstScalar + sim::snvar::kPhi};
  c->units.flame = &setup.flame();
  c->units.gravity = &setup.gravity();
  c->units.eos_trace = [&setup](tlb::Tracer& t, int b) {
    setup.trace_eos_block(t, b);
  };
  c->driver = std::make_unique<sim::Driver>(c->mesh(), *c->hydro, c->timers,
                                            c->dopt, c->units);
  return c;
}

std::vector<double> end_state(SimCase& c, double time) {
  std::vector<double> s = svc::canonical_state(c.mesh(), time);
  s.push_back(c.flame_energy());
  return s;
}

/// Driver::step_once in the bulk-sync order, rebuilt from the public
/// calls of each module so every layer can be timed from outside.
class StepCopy {
 public:
  StepCopy(SimCase& c, SpanLog& log) : c_(c), log_(log) {}

  void step(bool replay) {
    const rt::Runtime::BindScope bound(*c_.runtime);
    SpanLog::Scope step_span(log_, "step");
    mesh::AmrMesh& mesh = c_.mesh();
    hydro::HydroSolver& hydro = *c_.hydro;
    {
      SpanLog::Scope s(log_, "hydro.compute_dt");
      dt_ = hydro.compute_dt();
    }
    const int ndim = mesh.config().ndim;
    const bool forward = hydro.forward_order();
    for (int s = 0; s < ndim; ++s) {
      const int axis = forward ? s : ndim - 1 - s;
      {
        SpanLog::Scope g(log_, "mesh.guard_fill");
        mesh.fill_guardcells();
      }
      {
        SpanLog::Scope w(log_, "hydro.sweep");
        hydro.sweep(axis, dt_);
      }
      {
        SpanLog::Scope e(log_, "eos.update");
        hydro.eos_update();
      }
    }
    hydro.advance_step_count();
    if (c_.units.flame != nullptr) {
      {
        SpanLog::Scope g(log_, "mesh.guard_fill");
        mesh.fill_guardcells();
      }
      {
        SpanLog::Scope f(log_, "flame.advance");
        c_.units.flame->advance(dt_);
      }
      SpanLog::Scope e(log_, "eos.update");
      hydro.eos_update();
    }
    if (c_.units.gravity != nullptr) {
      {
        SpanLog::Scope g(log_, "gravity.solve");
        c_.units.gravity->update(mesh);
        c_.units.gravity->apply_source(mesh, dt_);
      }
      SpanLog::Scope e(log_, "eos.update");
      hydro.eos_update();
    }
    if (replay) {
      SpanLog::Scope r(log_, "tlb.replay");
      replay_regions();
    }
    time_ += dt_;
    ++step_;
    c_.runtime->perf().publish();
    const sim::DriverOptions& o = c_.dopt;
    if (o.remesh_interval > 0 && step_ % o.remesh_interval == 0) {
      SpanLog::Scope r(log_, "mesh.remesh");
      remesh_changes_ +=
          mesh.remesh(o.refine_vars, o.refine_cut, o.derefine_cut);
    }
  }

  [[nodiscard]] double time() const noexcept { return time_; }
  [[nodiscard]] int steps() const noexcept { return step_; }
  [[nodiscard]] int remesh_changes() const noexcept { return remesh_changes_; }

 private:
  /// The Driver's sampled machine-model replay, region by region.
  void replay_regions() {
    const int sample = c_.dopt.trace_sample;
    if (c_.machine == nullptr || sample <= 0) return;
    tlb::Tracer tracer(c_.machine.get());
    const auto scale = static_cast<std::uint64_t>(sample);
    const auto stride = static_cast<std::size_t>(sample);
    mesh::AmrMesh& mesh = c_.mesh();
    const std::vector<int> leaves = mesh.tree().leaves_morton();
    const auto offset = static_cast<std::size_t>(step_ % sample);
    perf::PerfContext& perf = c_.runtime->perf();
    {
      perf::PerfRegion region(perf, "hydro");
      for (std::size_t n = offset; n < leaves.size(); n += stride) {
        c_.hydro->trace_step_block(tracer, leaves[n]);
      }
      c_.machine->commit(scale);
    }
    if (c_.units.eos_trace) {
      perf::PerfRegion region(perf, "eos");
      for (int sweep = 0; sweep < mesh.config().ndim; ++sweep) {
        for (std::size_t n = offset; n < leaves.size(); n += stride) {
          c_.units.eos_trace(tracer, leaves[n]);
        }
      }
      c_.machine->commit(scale);
    }
    if (c_.units.flame != nullptr) {
      perf::PerfRegion region(perf, "flame");
      for (std::size_t n = offset; n < leaves.size(); n += stride) {
        c_.units.flame->trace_advance_block(tracer, leaves[n]);
      }
      c_.machine->commit(scale);
    }
    {
      perf::PerfRegion region(perf, "grid");
      const mesh::MeshConfig& m = mesh.config();
      for (std::size_t n = offset; n < leaves.size(); n += stride) {
        mesh.unk().trace_sweep(tracer, leaves[n], m.ilo(), m.ihi(), m.jlo(),
                               m.jhi(), m.klo(), m.khi(), m.nvar(), m.nvar());
      }
      c_.machine->commit(scale);
    }
  }

  SimCase& c_;
  SpanLog& log_;
  double time_ = 0.0;
  double dt_ = 0.0;
  int step_ = 0;
  int remesh_changes_ = 0;
};

/// One stepping arm: every step it takes is timed and recorded, with the
/// leaf count before it and the process CPU time it consumed.
struct Arm {
  Arm(const char* arm_name, std::function<void()> arm_step,
      std::function<std::size_t()> arm_leaves)
      : name(arm_name), step(std::move(arm_step)),
        nleaves(std::move(arm_leaves)) {}

  const char* name;
  std::function<void()> step;
  std::function<std::size_t()> nleaves;
  std::vector<double> step_s;
  std::vector<double> cpu_s;
  std::vector<double> leaves;

  void timed_step() {
    leaves.push_back(static_cast<double>(nleaves()));
    const double cpu0 = process_cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    step();
    step_s.push_back(seconds_since(t0));
    cpu_s.push_back(process_cpu_seconds() - cpu0);
  }
};

/// Step every arm \p steps times, switching arms every \p chunk steps in
/// a seeded order, so all arms sample the same stretch of machine speed.
void run_interleaved(std::vector<Arm*> arms, int steps, int chunk, Rng& rng) {
  for (int done = 0; done < steps; done += chunk) {
    for (std::size_t i = arms.size(); i > 1; --i) {
      std::swap(arms[i - 1], arms[rng.uniform_index(i)]);
    }
    const int n = std::min(chunk, steps - done);
    for (Arm* arm : arms) {
      for (int k = 0; k < n; ++k) arm->timed_step();
    }
  }
}

void write_arm(Json& j, const Arm& arm) {
  j.key(arm.name).open('{');
  j.key("step_s").nums(arm.step_s);
  j.key("cpu_s").nums(arm.cpu_s);
  j.key("leaves").nums(arm.leaves);
  j.close('}');
}

void write_counters(Json& j, const perf::PerfContext& perf, int steps) {
  const perf::CounterSet total = perf.snapshot();
  j.open('{');
  j.key("steps").integer(steps);
  j.key("dtlb").integer(static_cast<long long>(total[perf::Event::kDtlbMisses]));
  j.key("cycles").integer(static_cast<long long>(total[perf::Event::kCycles]));
  j.key("regions").open('{');
  for (const char* name : {"hydro", "eos", "flame", "grid"}) {
    const perf::RegionStats r = perf.regions().get(name);
    j.key(name).open('{');
    j.key("dtlb").integer(
        static_cast<long long>(r.totals[perf::Event::kDtlbMisses]));
    j.key("cycles").integer(
        static_cast<long long>(r.totals[perf::Event::kCycles]));
    j.close('}');
  }
  j.close('}').close('}');
}

/// Region counts must add up to the totals: every modeled miss and cycle
/// is committed inside one of the four regions.
bool regions_sum_to_total(const perf::PerfContext& perf) {
  const perf::CounterSet total = perf.snapshot();
  std::uint64_t dtlb = 0, cycles = 0;
  for (const char* name : {"hydro", "eos", "flame", "grid"}) {
    const perf::RegionStats r = perf.regions().get(name);
    dtlb += r.totals[perf::Event::kDtlbMisses];
    cycles += r.totals[perf::Event::kCycles];
  }
  return dtlb == total[perf::Event::kDtlbMisses] &&
         cycles == total[perf::Event::kCycles];
}

void write_memory(Json& j, SimCase& c) {
  double by_backing[3] = {0, 0, 0};
  double huge = 0.0, bytes = 0.0;
  auto account = [&](const mem::MappedRegion& r) {
    by_backing[static_cast<int>(r.backing())] += static_cast<double>(r.size());
    huge += static_cast<double>(r.resident_huge_bytes());
    bytes += static_cast<double>(r.size());
  };
  account(c.mesh().unk().region());
  account(c.supernova->table().region());
  j.key("memory").open('{');
  j.key("unk_bytes").num(static_cast<double>(c.mesh().unk().region().size()));
  j.key("huge_resident_bytes").num(huge);
  j.key("mapped_bytes").num(bytes);
  j.key("base_bytes").num(by_backing[static_cast<int>(mem::Backing::kSmallPages)]);
  j.key("thp_bytes").num(by_backing[static_cast<int>(mem::Backing::kThp)]);
  j.key("hugetlb_bytes").num(by_backing[static_cast<int>(mem::Backing::kHugetlbfs)]);
  j.key("rss_kib").num(status_kib("VmRSS"));
  j.close('}');
}

/// Checkpoint the end state of \p c, read it back into a fresh mesh with
/// the same configuration, and compare canonical states bit for bit.
void checkpoint_round_trip(Json& j, SimCase& c, double time, int step,
                           const std::string& work, bool& ok) {
  const std::string path = work + "/checkpoint.bin";
  mesh::AmrMesh& src = c.mesh();
  const Clock::time_point t0 = Clock::now();
  sim::write_checkpoint(path, src, {time, step});
  const double write_s = seconds_since(t0);
  const auto stamp = file_stamp(path);

  mesh::AmrMesh target(src.config(), c.runtime->huge_policy(),
                       src.unk().layout_kind(), c.runtime->page_pool(),
                       &c.runtime->arena());
  const Clock::time_point t1 = Clock::now();
  const sim::CheckpointInfo info = sim::read_checkpoint(path, target);
  const double read_s = seconds_since(t1);
  std::remove(path.c_str());

  const bool same = info.step == step &&
                    bit_identical(svc::canonical_state(src, time),
                                  svc::canonical_state(target, info.sim_time));
  ok = ok && same;
  j.key("checkpoint").open('{');
  j.key("write_s").num(write_s);
  j.key("read_s").num(read_s);
  j.key("bytes").num(stamp ? static_cast<double>(stamp->first) : 0.0);
  j.key("identical").boolean(same);
  j.close('}');
}

const char* exec_mode_name(sim::ExecMode m) {
  return m == sim::ExecMode::kBulkSync ? "bulk_sync" : "task_graph";
}

void write_config(Json& j, SimCase& c) {
  j.key("config").open('{');
  j.key("layout").str(std::string(mesh::to_string(c.runtime->layout())));
  j.key("policy").str(std::string(mem::to_string(c.runtime->huge_policy())));
  j.key("exec_mode").str(exec_mode_name(c.dopt.exec_mode));
  j.key("cells_per_block").integer(
      static_cast<long long>(c.mesh().config().nxb) * c.mesh().config().nyb *
      c.mesh().config().nzb);
  j.key("ndim").integer(c.mesh().config().ndim);
  j.close('}');
}

/// The 3-d Sedov blast against the self-similar solution, set up as
/// test_sim's ThreeDShockTracksSimilaritySolution: max_level 2, 60
/// steps. Returns the density-peak radius over the analytic shock
/// radius, which must be within 12% of 1. Untimed.
double sedov_shock_ratio() {
  rt::RuntimeOptions ropt;
  ropt.lanes = 4;
  rt::Runtime runtime(ropt);
  sim::SedovParams params;  // 3-d defaults
  params.max_level = 2;
  params.maxblocks = 100;
  sim::SedovSetup setup(params, runtime.huge_policy(), runtime);
  hydro::HydroSolver hydro(setup.mesh(), setup.eos());
  perf::Timers timers;
  sim::DriverOptions opts;
  opts.nsteps = 60;
  opts.trace_sample = 0;
  opts.verbose = false;
  sim::DriverUnits units;
  units.runtime = &runtime;
  sim::Driver driver(setup.mesh(), hydro, timers, opts, units);
  driver.evolve();
  sim::RadialProfile profile(setup.mesh(), params.center, 100,
                             {mesh::var::kDens});
  return profile.peak_radius(0) /
         sim::SedovSetup::shock_radius(params.energy, params.rho_ambient,
                                       driver.sim_time(), params.gamma);
}

int run_sim(std::uint64_t seed, bool traced, const std::string& cache,
            const std::string& work) {
  const SimPlan& plan = kPlan;
  const std::string table = cache + "/helm_table_flash.bin";
  Rng rng(seed);
  Json j;
  j.open('{');
  j.key("workload").str("supernova2d");
  bool ok = true;
  const Probe probe_before = probe_host();

  // The prepared table must load, not build: a rebuild would put a
  // table build of about a minute into set-up.
  const auto stamp_before = file_stamp(table);
  {
    rt::Runtime probe;
    const Clock::time_point t0 = Clock::now();
    const std::optional<eos::HelmTable> loaded = eos::HelmTable::load(
        eos::HelmTableSpec{}, probe.huge_policy(), probe.page_pool(), table);
    j.key("table_load_s").num(seconds_since(t0));
    if (!loaded) {
      std::fprintf(stderr, "perfbench: Helm table cache %s missing or stale "
                           "(run `perfbench prepare`)\n", table.c_str());
      return 3;
    }
  }

  const int steps = traced ? plan.model + plan.trace_window
                           : plan.warm + plan.window;
  std::vector<double> setup_s;
  auto timed_build = [&](int lanes, int nsteps, bool model) {
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<SimCase> c = build_case(lanes, nsteps, model, table);
    setup_s.push_back(seconds_since(t0));
    return c;
  };

  // Modeled counters first, from a fresh Driver (the model window).
  std::unique_ptr<SimCase> model = timed_build(1, plan.model, true);
  model->driver->evolve();
  j.key("model");
  write_counters(j, model->runtime->perf(), model->driver->steps());
  const perf::CounterSet model_totals = model->runtime->perf().snapshot();
  j.key("model_regions_sum").boolean(regions_sum_to_total(model->runtime->perf()));
  ok = ok && regions_sum_to_total(model->runtime->perf());
  model.reset();

  auto leaves_of = [](SimCase& c) {
    return [&c] { return c.mesh().tree().leaves_morton().size(); };
  };
  // The Driver whose end state the checks below inspect: the 1-lane one
  // untraced, the 4-lane one traced.
  std::unique_ptr<SimCase> ref;

  if (!traced) {
    // Untraced: the gated 1-lane Driver alone, after constructions
    // timed only for the set-up median. Multi-lane wall time is
    // host-bound here, so the 4-lane Driver runs in the traced run.
    while (static_cast<int>(setup_s.size()) < kSetupBuilds / 2) {
      (void)timed_build(1, steps, false);
    }
    ref = timed_build(1, steps, false);
    SimCase& d1 = *ref;
    Arm a_d1{"driver_1", [&] { d1.driver->step_once(); }, leaves_of(d1)};
    for (int s = 0; s < steps; ++s) a_d1.timed_step();
    j.key("arms").open('{');
    write_arm(j, a_d1);
    j.close('}');
  } else {
    ref = timed_build(4, steps, false);
    SimCase& d4 = *ref;
    Arm a_d4{"driver_4", [&] { d4.driver->step_once(); }, leaves_of(d4)};
    // Traced: the copy at 4 and 1 lanes next to the untraced Driver. The
    // 4-lane copy's first steps replay the model window into its own
    // machine; its counters must equal the Driver's model window.
    std::unique_ptr<SimCase> c4 = timed_build(4, steps, true);
    std::unique_ptr<SimCase> c1 = timed_build(1, steps, false);
    SpanLog log4, log1;
    StepCopy copy4(*c4, log4), copy1(*c1, log1);
    bool replay = true;
    Arm a_c4{"copy_4", [&] { copy4.step(replay); }, leaves_of(*c4)};
    Arm a_c1{"copy_1", [&] { copy1.step(false); }, leaves_of(*c1)};
    for (int s = 0; s < plan.model; ++s) a_c4.timed_step();
    replay = false;
    const bool counters_same =
        counters_identical(c4->runtime->perf().snapshot(), model_totals);
    j.key("copy_model");
    write_counters(j, c4->runtime->perf(), plan.model);
    j.key("copy_counters_identical").boolean(counters_same);
    ok = ok && counters_same;

    run_interleaved({&a_d4, &a_c1}, plan.model, plan.chunk, rng);
    run_interleaved({&a_d4, &a_c4, &a_c1}, steps - plan.model, plan.chunk,
                    rng);
    j.key("arms").open('{');
    write_arm(j, a_d4);
    write_arm(j, a_c4);
    write_arm(j, a_c1);
    j.close('}');
    // The 4-lane copy against the 4-lane Driver checks the copy; the
    // 1-lane copy against the 4-lane Driver checks lane invariance.
    const std::vector<double> want = end_state(d4, d4.driver->sim_time());
    const bool copy_same = copy4.steps() == steps &&
                           d4.driver->steps() == steps &&
                           bit_identical(end_state(*c4, copy4.time()), want);
    const bool lanes_same = copy1.steps() == steps &&
                            bit_identical(end_state(*c1, copy1.time()), want);
    j.key("copy_state_identical").boolean(copy_same);
    j.key("lanes_identical").boolean(lanes_same);
    ok = ok && copy_same && lanes_same;
    j.key("remesh_changes").integer(copy4.remesh_changes());
    j.key("spans").open('{');
    j.key("copy_4");
    log4.write(j);
    j.key("copy_1");
    log1.write(j);
    j.close('}');
  }
  j.key("model_steps").integer(plan.model);
  j.key("window_start").integer(traced ? plan.model : plan.warm);
  j.key("window").integer(steps - (traced ? plan.model : plan.warm));
  j.key("remesh_interval").integer(ref->dopt.remesh_interval);
  write_config(j, *ref);

  checkpoint_round_trip(j, *ref, ref->driver->sim_time(), ref->driver->steps(),
                        work, ok);
  write_memory(j, *ref);
  j.key("leaves").integer(
      static_cast<long long>(ref->mesh().tree().leaves_morton().size()));

  const Probe probe_after = probe_host();
  j.key("cpus_available").nums({probe_before.cpus, probe_after.cpus});
  j.key("spin1_s").nums({probe_before.spin1_s, probe_after.spin1_s});
  j.key("rss_peak_kib").num(status_kib("VmHWM"));

  // The rest of the set-up sample, half a minute after the first half:
  // the host's speed moves in plateaus about that long. Taken after the
  // peak reading, so the extra meshes do not count in it.
  if (!traced) {
    while (static_cast<int>(setup_s.size()) < kSetupBuilds) {
      (void)timed_build(1, steps, false);
    }
  }
  j.key("setup_s").nums(setup_s);
  const bool table_same = file_stamp(table) == stamp_before;
  j.key("table_untouched").boolean(table_same);
  ok = ok && table_same;

  // Last, after every measurement: the blast must track the
  // self-similar solution.
  const double ratio = sedov_shock_ratio();
  j.key("shock_ratio").num(ratio);
  ok = ok && std::fabs(ratio - 1.0) <= 0.12;
  j.key("ok").boolean(ok);
  j.close('}');
  std::printf("%s\n", j.text().c_str());
  return 0;
}

// --------------------------------------------------------------- service

/// bench_service's three job classes, in that order.
std::vector<svc::JobSpec> service_specs(const std::string& cache) {
  svc::JobSpec sedov;
  sedov.kind = svc::JobKind::kSedov;
  sedov.deadline = svc::DeadlineClass::kInteractive;
  sedov.nsteps = 6;
  sedov.sedov.ndim = 2;
  sedov.sedov.nzb = 1;
  sedov.sedov.max_level = 2;
  sedov.sedov.maxblocks = 128;

  svc::JobSpec cellular;
  cellular.kind = svc::JobKind::kCellular;
  cellular.deadline = svc::DeadlineClass::kBatch;
  cellular.nsteps = 5;
  cellular.cellular.max_level = 2;
  cellular.cellular.maxblocks = 128;

  svc::JobSpec supernova;
  supernova.kind = svc::JobKind::kSupernova;
  supernova.deadline = svc::DeadlineClass::kBatch;
  supernova.nsteps = 2;
  supernova.supernova.max_level = 3;
  supernova.supernova.maxblocks = 400;
  supernova.supernova.table_spec = {-4.0, 10.0, 141, 5.0, 10.0, 51};
  supernova.supernova.table_cache = cache + "/helm_table_svc.bin";
  return {sedov, cellular, supernova};
}

const char* const kClassNames[3] = {"sedov", "cellular", "supernova"};

/// The objects svc builds for one tenant, built the same way outside
/// the service for the solo reference runs (Service's own builder is
/// private): carved from a pool the caller owns, as the service owns
/// its pool, and tagged like job \p id. Unlike svc, it takes no set-up
/// lock and snapshots no pool counters.
struct Tenant {
  std::unique_ptr<rt::Runtime> runtime;
  std::unique_ptr<sim::SedovSetup> sedov;
  std::unique_ptr<sim::CellularSetup> cellular;
  std::unique_ptr<sim::SupernovaSetup> supernova;
  std::unique_ptr<hydro::HydroSolver> hydro;
  std::unique_ptr<tlb::Machine> machine;
  perf::Timers timers;
  std::unique_ptr<sim::Driver> driver;

  [[nodiscard]] mesh::AmrMesh& mesh() {
    if (sedov) return sedov->mesh();
    if (cellular) return cellular->mesh();
    return supernova->mesh();
  }
  [[nodiscard]] std::vector<double> state() {
    std::vector<double> s = svc::canonical_state(mesh(), driver->sim_time());
    if (cellular) s.push_back(cellular->flame().energy_released());
    if (supernova) s.push_back(supernova->flame().energy_released());
    return s;
  }
};

std::unique_ptr<Tenant> build_tenant(const svc::JobSpec& spec,
                                     mem::PagePool& pool, svc::JobId id) {
  auto t = std::make_unique<Tenant>();
  rt::RuntimeOptions ropts;
  ropts.lanes = spec.lanes;
  ropts.layout = spec.layout;
  ropts.policy = spec.policy;
  ropts.pool = &pool;
  ropts.log_tag = "job" + std::to_string(id);
  t->runtime = std::make_unique<rt::Runtime>(ropts);
  rt::Runtime& runtime = *t->runtime;

  sim::DriverOptions dopts;
  dopts.nsteps = spec.nsteps;
  dopts.trace_sample = spec.trace_sample;
  dopts.verbose = false;
  sim::DriverUnits units;
  units.runtime = &runtime;
  if (spec.trace_sample > 0) {
    t->machine = std::make_unique<tlb::Machine>(tlb::MachineParams{},
                                                &runtime.perf());
    units.machine = t->machine.get();
  }
  switch (spec.kind) {
    case svc::JobKind::kSedov:
      t->sedov = std::make_unique<sim::SedovSetup>(spec.sedov, spec.policy,
                                                   runtime);
      t->hydro = std::make_unique<hydro::HydroSolver>(t->sedov->mesh(),
                                                      t->sedov->eos());
      break;
    case svc::JobKind::kCellular:
      t->cellular = std::make_unique<sim::CellularSetup>(
          spec.cellular, spec.policy, runtime);
      t->hydro = std::make_unique<hydro::HydroSolver>(t->cellular->mesh(),
                                                      t->cellular->eos());
      units.flame = &t->cellular->flame();
      dopts.refine_vars = {mesh::var::kDens,
                           mesh::var::kFirstScalar + sim::cvar::kPhi};
      break;
    case svc::JobKind::kSupernova: {
      t->supernova = std::make_unique<sim::SupernovaSetup>(
          spec.supernova, spec.policy, runtime);
      hydro::HydroOptions hopts;
      hopts.cfl = 0.6;
      t->hydro = std::make_unique<hydro::HydroSolver>(
          t->supernova->mesh(), t->supernova->eos(), hopts);
      t->hydro->set_composition_fn(t->supernova->composition_fn());
      units.flame = &t->supernova->flame();
      units.gravity = &t->supernova->gravity();
      units.eos_trace = [setup = t->supernova.get()](tlb::Tracer& tr, int b) {
        setup->trace_eos_block(tr, b);
      };
      dopts.refine_vars = {mesh::var::kDens,
                           mesh::var::kFirstScalar + sim::snvar::kPhi};
      break;
    }
  }
  t->driver = std::make_unique<sim::Driver>(t->mesh(), *t->hydro, t->timers,
                                            dopts, units);
  return t;
}

constexpr double kArrivalRate = 8.0;  ///< phase A offered load [jobs/s]
constexpr int kBatchJobs = 240;       ///< phase B batch (equal thirds)
constexpr std::size_t kRoundJobs = 15;  ///< phase B jobs per release
constexpr int kSetupReps = 9;

/// An accepted submission and when the call that was accepted began.
struct Accepted {
  svc::JobId id;
  Clock::time_point call_start;
};

/// Submit with backpressure: a kQueueFull answer waits briefly and
/// retries (counted), any other refusal is fatal. JobResult times start
/// inside the accepted call, so the caller needs that call's start to
/// count the retry wait.
Accepted submit_retrying(svc::Service& service, const svc::JobSpec& spec,
                         int& retries) {
  for (;;) {
    const Clock::time_point call_start = Clock::now();
    const svc::Submission s = service.submit(spec);
    if (s.accepted()) return {s.id, call_start};
    if (s.reason != svc::RejectReason::kQueueFull) {
      std::fprintf(stderr, "perfbench: submit rejected: %s\n",
                   svc::to_string(s.reason));
      std::exit(4);
    }
    ++retries;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

/// Seeded class sequence of \p n jobs in equal thirds.
std::vector<int> class_sequence(int n, Rng& rng) {
  std::vector<int> seq(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) seq[static_cast<std::size_t>(i)] = i % 3;
  for (std::size_t i = seq.size(); i > 1; --i) {
    std::swap(seq[i - 1], seq[rng.uniform_index(i)]);
  }
  return seq;
}

int run_service(std::uint64_t seed, double seconds,
                const std::string& cache) {
  const std::vector<svc::JobSpec> specs = service_specs(cache);
  const std::string& table = specs[2].supernova.table_cache;
  Json j;
  j.open('{');
  j.key("workload").str("service_mix");
  bool ok = true;
  const Probe probe_before = probe_host();

  const auto stamp_before = file_stamp(table);
  {
    rt::Runtime probe;
    const Clock::time_point t0 = Clock::now();
    const std::optional<eos::HelmTable> loaded =
        eos::HelmTable::load(specs[2].supernova.table_spec,
                             probe.huge_policy(), probe.page_pool(), table);
    j.key("table_load_s").num(seconds_since(t0));
    if (!loaded) {
      std::fprintf(stderr, "perfbench: Helm table cache %s missing or stale "
                           "(run `perfbench prepare`)\n", table.c_str());
      return 3;
    }
    j.key("config").open('{');
    j.key("layout").str(std::string(mesh::to_string(probe.layout())));
    j.key("policy").str(std::string(mem::to_string(probe.huge_policy())));
    j.key("exec_mode").str(exec_mode_name(sim::DriverOptions{}.exec_mode));
    j.close('}');
  }

  // Solo reference runs (traced, capturing): what the captured service
  // jobs must reproduce bit for bit.
  std::vector<std::vector<double>> ref_state(3);
  std::vector<perf::CounterSet> ref_counters(3);
  mem::PagePool solo_pool;
  for (std::size_t c = 0; c < 3; ++c) {
    svc::JobSpec spec = specs[c];
    spec.trace_sample = kModelSample;
    std::unique_ptr<Tenant> t = build_tenant(spec, solo_pool, c + 1);
    t->driver->evolve();
    ref_state[c] = t->state();
    ref_counters[c] = t->runtime->perf().published().counters;
  }

  // The gated peak: one tenant of each class set up and run alone. The
  // service runs below hold a timing-dependent number of tenants at
  // once, so their peak is reported separately.
  const double rss_peak_solo_kib = status_kib("VmHWM");

  // Tenant set-up as the service does it: one job at a time into an
  // idle default service, so each job's queue_seconds (submit to tenant
  // built) is a worker's wake-up plus svc's own tenant construction.
  std::vector<std::vector<double>> setup_s(3);
  {
    svc::Service service;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      for (std::size_t c = 0; c < 3; ++c) {
        const svc::Submission sub = service.submit(specs[c]);
        if (!sub.accepted()) {
          std::fprintf(stderr, "perfbench: submit rejected: %s\n",
                       svc::to_string(sub.reason));
          return 4;
        }
        const svc::JobResult r = service.wait(sub.id);
        ok = ok && r.status == svc::JobStatus::kDone;
        setup_s[c].push_back(r.queue_seconds);
      }
    }
  }

  // Phase A: seeded Poisson open loop. Due times are absolute offsets
  // from one origin, so sleep overshoot never accumulates.
  Rng rng(seed);
  const int n_a = std::max(3, 3 * static_cast<int>(std::lround(
                                  kArrivalRate * seconds / 3.0)));
  const std::vector<int> seq_a = class_sequence(n_a, rng);
  std::vector<double> due(static_cast<std::size_t>(n_a));
  double t_due = 0.0;
  for (double& d : due) {
    t_due += -std::log(1.0 - rng.uniform()) / kArrivalRate;
    d = t_due;
  }
  // Per job: when the generator first tried to submit it, when the
  // accepted call began (after any kQueueFull retries) and how long
  // that call took.
  std::vector<double> first_try(due.size()), accepted_at(due.size()),
      submit_call_s(due.size());
  std::vector<svc::JobId> ids(due.size());
  int retries_a = 0;
  double cpu_a = 0.0, wall_a = 0.0;
  int workers = 0;
  std::vector<svc::JobResult> results_a;
  {
    svc::Service service;
    workers = service.workers();
    const double cpu0 = process_cpu_seconds();
    const Clock::time_point origin = Clock::now();
    for (std::size_t i = 0; i < due.size(); ++i) {
      std::this_thread::sleep_until(
          origin + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due[i])));
      first_try[i] = seconds_since(origin);
      const Accepted a = submit_retrying(
          service, specs[static_cast<std::size_t>(seq_a[i])], retries_a);
      ids[i] = a.id;
      accepted_at[i] =
          std::chrono::duration<double>(a.call_start - origin).count();
      submit_call_s[i] = seconds_since(a.call_start);
    }
    for (svc::JobId id : ids) results_a.push_back(service.wait(id));
    wall_a = seconds_since(origin);
    cpu_a = process_cpu_seconds() - cpu0;
  }

  // Phase B: capacity. A fixed batch, the same in every run, released
  // in rounds of kRoundJobs: each round is admitted into a paused
  // service (it fits the default queue) and then released, so with one
  // worker the schedule, and with it the number of tenants held at once,
  // does not depend on thread timing. The first job of each class
  // captures its state and modeled counters.
  std::vector<int> seq_b(kBatchJobs);
  for (int i = 0; i < kBatchJobs; ++i) seq_b[static_cast<std::size_t>(i)] = i % 3;
  std::vector<double> round_s;
  int capture[3] = {-1, -1, -1};
  std::vector<svc::JobResult> results_b;
  for (std::size_t first = 0; first < seq_b.size(); first += kRoundJobs) {
    // One worker, so the capacity figure needs one CPU and the host's
    // varying CPU allocation cannot move it.
    svc::ServiceOptions opts;
    opts.workers = 1;
    opts.start_paused = true;
    svc::Service service(opts);
    std::vector<svc::JobId> round_ids;
    for (std::size_t i = first; i < std::min(seq_b.size(), first + kRoundJobs);
         ++i) {
      const auto c = static_cast<std::size_t>(seq_b[i]);
      svc::JobSpec spec = specs[c];
      if (capture[c] < 0) {
        capture[c] = static_cast<int>(i);
        spec.capture_state = true;
        spec.trace_sample = kModelSample;
      }
      const svc::Submission sub = service.submit(spec);
      if (!sub.accepted()) {
        std::fprintf(stderr, "perfbench: submit rejected: %s\n",
                     svc::to_string(sub.reason));
        return 4;
      }
      round_ids.push_back(sub.id);
    }
    const Clock::time_point t0 = Clock::now();
    service.start();
    for (svc::JobId id : round_ids) results_b.push_back(service.wait(id));
    round_s.push_back(seconds_since(t0));
  }

  auto write_jobs = [&j](const char* name, const std::vector<int>& seq,
                         const std::vector<svc::JobResult>& results) {
    j.key(name).open('{');
    std::vector<double> cls, wall, queue;
    int done = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      cls.push_back(seq[i]);
      wall.push_back(results[i].wall_seconds);
      queue.push_back(results[i].queue_seconds);
      done += results[i].status == svc::JobStatus::kDone ? 1 : 0;
      if (results[i].status != svc::JobStatus::kDone) {
        std::fprintf(stderr, "perfbench: job %llu resolved %s: %s\n",
                     static_cast<unsigned long long>(results[i].id),
                     svc::to_string(results[i].status),
                     results[i].error.c_str());
      }
    }
    j.key("class").nums(cls);
    j.key("wall_s").nums(wall);
    j.key("queue_s").nums(queue);
    j.key("done").integer(done);
    j.close('}');
    return done == static_cast<int>(results.size());
  };

  ok = write_jobs("phase_a", seq_a, results_a) && ok;
  j.key("phase_a_due_s").nums(due);
  j.key("phase_a_first_try_s").nums(first_try);
  j.key("phase_a_accepted_s").nums(accepted_at);
  j.key("phase_a_submit_call_s").nums(submit_call_s);
  j.key("phase_a_retries").integer(retries_a);
  j.key("phase_a_cpu_s").num(cpu_a);
  j.key("phase_a_wall_s").num(wall_a);
  j.key("workers").integer(workers);
  ok = write_jobs("phase_b", seq_b, results_b) && ok;
  j.key("phase_b_round_s").nums(round_s);

  // Captured jobs must match their solo runs bit for bit.
  bool capture_same = true;
  std::vector<double> model_dtlb, model_cycles, model_steps;
  for (std::size_t c = 0; c < 3; ++c) {
    const svc::JobResult& r = results_b[static_cast<std::size_t>(capture[c])];
    capture_same = capture_same && bit_identical(r.final_state, ref_state[c]) &&
                   counters_identical(r.counters.counters, ref_counters[c]);
    model_dtlb.push_back(
        static_cast<double>(r.counters.counters[perf::Event::kDtlbMisses]));
    model_cycles.push_back(
        static_cast<double>(r.counters.counters[perf::Event::kCycles]));
    model_steps.push_back(r.steps);
  }
  ok = ok && capture_same;
  j.key("capture_identical").boolean(capture_same);
  j.key("model").open('{');
  j.key("dtlb").nums(model_dtlb);
  j.key("cycles").nums(model_cycles);
  j.key("steps").nums(model_steps);
  j.close('}');

  j.key("tenant_setup_s").open('{');
  for (std::size_t c = 0; c < 3; ++c) j.key(kClassNames[c]).nums(setup_s[c]);
  j.close('}');

  const bool table_same = file_stamp(table) == stamp_before;
  j.key("table_untouched").boolean(table_same);
  ok = ok && table_same;
  const Probe probe_after = probe_host();
  j.key("cpus_available").nums({probe_before.cpus, probe_after.cpus});
  j.key("spin1_s").nums({probe_before.spin1_s, probe_after.spin1_s});
  j.key("rss_kib").num(status_kib("VmRSS"));
  j.key("rss_peak_solo_kib").num(rss_peak_solo_kib);
  j.key("rss_peak_kib").num(status_kib("VmHWM"));
  j.key("ok").boolean(ok);
  j.close('}');
  std::printf("%s\n", j.text().c_str());
  return 0;
}

// --------------------------------------------------------------- prepare

int run_prepare(const std::string& cache) {
  rt::Runtime runtime;
  const std::vector<svc::JobSpec> specs = service_specs(cache);
  const struct {
    eos::HelmTableSpec spec;
    std::string path;
  } tables[] = {
      {eos::HelmTableSpec{}, cache + "/helm_table_flash.bin"},
      {specs[2].supernova.table_spec, specs[2].supernova.table_cache},
  };
  for (const auto& t : tables) {
    const Clock::time_point t0 = Clock::now();
    (void)eos::HelmTable::build_or_load(t.spec, runtime.huge_policy(),
                                        runtime.page_pool(), t.path);
    const bool loads = eos::HelmTable::load(t.spec, runtime.huge_policy(),
                                            runtime.page_pool(), t.path)
                           .has_value();
    std::fprintf(stderr, "perfbench: table %s ready in %.1f s%s\n",
                 t.path.c_str(), seconds_since(t0),
                 loads ? "" : " (NOT loadable)");
    if (!loads) return 3;
  }
  std::printf("{\"prepared\":true}\n");
  return 0;
}

// ------------------------------------------------------------------ main

struct Args {
  std::string command;
  std::string workload;
  std::string cache = ".";
  std::string work = ".";
  std::uint64_t seed = 1;
  double seconds = 40.0;
  bool trace = false;
};

Args parse(int argc, char** argv) {
  Args a;
  if (argc > 1) a.command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--cache") a.cache = v;
    else if (k == "--work") a.work = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else throw std::invalid_argument("unknown option " + k);
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    if (a.command == "prepare") return run_prepare(a.cache);
    if (a.command == "sim" && a.workload == "supernova2d") {
      return run_sim(a.seed, a.trace, a.cache, a.work);
    }
    if (a.command == "service") {
      return run_service(a.seed, a.seconds, a.cache);
    }
    std::fprintf(stderr,
                 "usage: perfbench prepare|sim|service [--workload W] "
                 "[--seed N] [--seconds S] [--trace 0|1] [--cache DIR] "
                 "[--work DIR]\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
