/// \file experiment_common.hpp
/// \brief Shared harness for the paper-reproduction benchmarks.
///
/// Each table/figure benchmark runs the same workload twice — without
/// huge pages (policy none) and with them (policy hugetlbfs, which falls
/// back to THP and then to base pages if the system provides no explicit
/// pool) — and derives the paper's five PAPI measures per instrumented
/// region plus the FLASH-timer analog. The harness also performs the
/// paper's §III node preparation (sizing the hugetlb pool, hugeadm-style)
/// and its verification step (watching /proc/meminfo and smaps).

#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "mem/hugeadm.hpp"
#include "mem/huge_policy.hpp"
#include "mem/meminfo.hpp"
#include "mem/page_pool.hpp"
#include "mem/page_size.hpp"
#include "perf/events.hpp"
#include "perf/perf_context.hpp"
#include "perf/region.hpp"
#include "perf/timers.hpp"
#include "sim/driver.hpp"
#include "support/string_util.hpp"
#include "support/table_writer.hpp"
#include "tlb/machine.hpp"

namespace fhp::bench {

/// Everything a table row needs for one experiment arm.
struct ArmResult {
  perf::MeasureSet measures;   ///< the instrumented region's five measures
  double flash_timer = 0;      ///< modeled total evolution time [s]
  double wall_seconds = 0;     ///< host wall clock (reported, not compared)
  std::string backing;         ///< what actually backed the big arrays
  std::uint64_t resident_huge = 0;  ///< bytes verified on huge pages
};

/// The modeled A64FX clock used to derive "Time (s)" from cycles.
inline constexpr double kClockHz = 1.8e9;

/// Prepare the node like the paper's §III: try to reserve a 2 MiB-page
/// pool big enough for \p bytes (plus slack). Returns true if a pool
/// exists afterwards. Prints what happened — verification, not assumption,
/// is the paper's methodological point.
inline bool prepare_huge_pool(std::size_t bytes) {
  const std::size_t pages = (bytes + mem::kPage2M - 1) / mem::kPage2M + 8;
  const auto granted = mem::ensure_hugetlb_pool(mem::kPage2M, pages);
  const auto snap = mem::MeminfoSnapshot::capture();
  std::printf("# hugetlb pool: requested %zu x 2 MiB pages, %s; %s\n", pages,
              granted ? (std::to_string(*granted) + " configured").c_str()
                      : "pool not configurable (not privileged?)",
              snap.summary().c_str());
  return granted.has_value() && *granted > 0;
}

/// One experiment arm's instrumentation bundle: its own PerfContext (so
/// arms cannot leak counters into each other and no reset() hygiene is
/// needed), the machine model wired to it, the FLASH-style timers, and
/// the host wall clock started at construction. All three table/figure
/// benches build their arms on this so the per-arm boilerplate cannot
/// drift between them.
class ExperimentArm {
 public:
  ExperimentArm() : machine_({}, &perf_) {}

  [[nodiscard]] perf::PerfContext& perf() noexcept { return perf_; }
  [[nodiscard]] tlb::Machine& machine() noexcept { return machine_; }
  [[nodiscard]] perf::Timers& timers() noexcept { return timers_; }

  /// DriverUnits with the machine and perf context pre-wired; callers
  /// add flame/gravity/eos_trace as the workload needs.
  [[nodiscard]] sim::DriverUnits units() noexcept {
    sim::DriverUnits u;
    u.machine = &machine_;
    u.perf = &perf_;
    return u;
  }

  /// Derive the arm's measures for \p region_name; stamps the wall clock.
  [[nodiscard]] ArmResult finish(const std::string& region_name) const {
    ArmResult arm;
    const perf::RegionStats stats = perf_.regions().get(region_name);
    arm.measures = perf::derive_measures(stats.totals, kClockHz);
    const perf::CounterSet totals = perf_.snapshot();
    arm.flash_timer =
        static_cast<double>(totals[perf::Event::kCycles]) / kClockHz;
    arm.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall0_)
            .count();
    return arm;
  }

 private:
  perf::PerfContext perf_;
  tlb::Machine machine_;
  perf::Timers timers_;
  std::chrono::steady_clock::time_point wall0_ =
      std::chrono::steady_clock::now();
};

/// Print the table in the paper's layout, with the published values as a
/// side-by-side reference, plus the ratio column of Figure 1.
inline void print_paper_table(const std::string& title,
                              const ArmResult& without, const ArmResult& with,
                              const double paper_without[6],
                              const double paper_with[6]) {
  TableWriter t(title);
  t.set_header({"Measure", "Without HPs", "With HPs", "Ratio",
                "Paper w/o", "Paper w/"});
  auto row = [&](const char* name, double a, double b, double pa, double pb) {
    t.add_row({name, format_measure(a), format_measure(b),
               b != 0 && a != 0 ? format_ratio(b / a) : "-",
               format_measure(pa), format_measure(pb)});
  };
  row("Hardware (cycles)", without.measures.hardware_cycles,
      with.measures.hardware_cycles, paper_without[0], paper_with[0]);
  row("Time (s)", without.measures.time_seconds, with.measures.time_seconds,
      paper_without[1], paper_with[1]);
  row("SVE Instructions/cycle", without.measures.vector_per_cycle,
      with.measures.vector_per_cycle, paper_without[2], paper_with[2]);
  row("Memory (Gbytes/s)", without.measures.memory_gbytes_per_s,
      with.measures.memory_gbytes_per_s, paper_without[3], paper_with[3]);
  row("DTLB misses (1/s)", without.measures.dtlb_misses_per_s,
      with.measures.dtlb_misses_per_s, paper_without[4], paper_with[4]);
  row("FLASH Timer (s)", without.flash_timer, with.flash_timer,
      paper_without[5], paper_with[5]);
  t.render(std::cout);
  std::printf("# backing: without = %s; with = %s (huge-resident %s)\n",
              without.backing.c_str(), with.backing.c_str(),
              format_bytes(with.resident_huge).c_str());
  std::printf("# host wall clock: without %.1f s, with %.1f s\n",
              without.wall_seconds, with.wall_seconds);
}

/// The published Tables I and II, for side-by-side printing and for the
/// reproduction-band checks in EXPERIMENTS.md.
/// Order: cycles, time, SVE/cycle, GB/s, DTLB/s, FLASH timer.
inline constexpr double kPaperEosWithout[6] = {1.25e11, 6.97e1, 0.47,
                                               4.19,    2.34e7, 339.032};
inline constexpr double kPaperEosWith[6] = {1.17e11, 6.52e1, 0.51,
                                            4.45,    1.10e6, 333.150};
inline constexpr double kPaperHydroWithout[6] = {1.21e12, 6.70e2, 0.11,
                                                 10.10,   2.42e6, 1203.616};
inline constexpr double kPaperHydroWith[6] = {1.20e12, 6.69e2, 0.11,
                                              10.09,   7.83e5, 1176.312};

// ------------------------------------------------------------- artifacts

/// Ordered JSON emitter for the CI --json=PATH artifacts. All benches
/// route their artifact through this one writer so the files keep one
/// convention (two-space indent, doubles at six decimals) instead of
/// each bench hand-rolling fprintf formats.
class JsonWriter {
 public:
  explicit JsonWriter(std::FILE* f) : f_(f) {}

  void begin_object() { item(); open('{'); }
  void begin_object(const char* key) { item(key); open('{'); }
  void begin_array(const char* key) { item(key); open('['); }
  void end_object() { close('}'); }
  void end_array() { close(']'); }

  void field(const char* key, const std::string& v) {
    item(key);
    std::fprintf(f_, "\"%s\"", v.c_str());
  }
  void field(const char* key, const char* v) { field(key, std::string(v)); }
  void field(const char* key, double v) {
    item(key);
    std::fprintf(f_, "%.6f", v);
  }
  void field(const char* key, bool v) {
    item(key);
    std::fprintf(f_, "%s", v ? "true" : "false");
  }
  void field(const char* key, int v) {
    item(key);
    std::fprintf(f_, "%d", v);
  }
  void field(const char* key, std::uint64_t v) {
    item(key);
    std::fprintf(f_, "%llu", static_cast<unsigned long long>(v));
  }

 private:
  void indent() const {
    for (std::size_t d = 0; d < first_.size(); ++d) std::fputs("  ", f_);
  }
  /// Comma/newline/indent for a new item in the current container, then
  /// the key (if any — array elements and the root have none).
  void item(const char* key = nullptr) {
    if (!first_.empty()) {
      std::fputs(first_.back() ? "\n" : ",\n", f_);
      first_.back() = false;
      indent();
    }
    if (key != nullptr) std::fprintf(f_, "\"%s\": ", key);
  }
  void open(char c) {
    std::fputc(c, f_);
    first_.push_back(true);
  }
  void close(char c) {
    const bool empty = first_.back();
    first_.pop_back();
    if (!empty) {
      std::fputc('\n', f_);
      indent();
    }
    std::fputc(c, f_);
    if (first_.empty()) std::fputc('\n', f_);
  }

  std::FILE* f_;
  std::vector<bool> first_;
};

// ------------------------------------------------------------ thread scan

/// One named arm of a thread scan (e.g. "bulk_sync" vs "task_graph"):
/// runs the workload once under the supplied instrumentation bundle, on
/// a runtime of \p lanes lanes carving from \p pool, and returns the
/// evolution wall time in seconds.
struct ScanArm {
  const char* name;
  std::function<double(ExperimentArm& arm, mem::PagePool& pool, int lanes)>
      run;
};

/// Shared --json=PATH thread-scan entry. Runs every arm at 1, 2 and 4
/// threads, asserts the modeled counters (everything except wall time)
/// bit-identical across ALL runs — thread counts *and* arms, the
/// determinism contract of both execution modes — and writes the
/// artifact through JsonWriter. \p header emits bench-specific fields
/// (nsteps, ...) into the top-level object. Returns 0 iff the counters
/// were identical and the file was written.
inline int run_thread_scan(const std::string& path, const char* bench,
                           const std::vector<ScanArm>& arms,
                           const std::function<void(JsonWriter&)>& header) {
  constexpr int kThreads[3] = {1, 2, 4};
  struct Run {
    double wall = 0;
    perf::CounterSet totals;
  };
  std::vector<std::array<Run, 3>> runs(arms.size());
  mem::PagePool pool;  // shared by every run, like one process's inventory
  for (std::size_t a = 0; a < arms.size(); ++a) {
    for (int t = 0; t < 3; ++t) {
      ExperimentArm arm;
      runs[a][static_cast<std::size_t>(t)].wall =
          arms[a].run(arm, pool, kThreads[t]);
      runs[a][static_cast<std::size_t>(t)].totals = arm.perf().snapshot();
      const auto& r = runs[a][static_cast<std::size_t>(t)];
      std::printf("# arm=%s threads=%d wall=%.3f s cycles=%llu dtlb=%llu\n",
                  arms[a].name, kThreads[t], r.wall,
                  static_cast<unsigned long long>(
                      r.totals[perf::Event::kCycles]),
                  static_cast<unsigned long long>(
                      r.totals[perf::Event::kDtlbMisses]));
    }
  }

  bool identical = true;
  const perf::CounterSet& ref = runs[0][0].totals;
  for (const auto& arm_runs : runs) {
    for (const Run& r : arm_runs) {
      for (std::size_t e = 0; e < perf::kNumEvents; ++e) {
        if (e == static_cast<std::size_t>(perf::Event::kWallNanos)) continue;
        identical = identical && r.totals.values[e] == ref.values[e];
      }
    }
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  JsonWriter w(f);
  w.begin_object();
  w.field("bench", bench);
  header(w);
  w.begin_array("arms");
  for (std::size_t a = 0; a < arms.size(); ++a) {
    w.begin_object();
    w.field("name", arms[a].name);
    w.begin_object("wall_seconds");
    for (int t = 0; t < 3; ++t) {
      w.field(std::to_string(kThreads[t]).c_str(),
              runs[a][static_cast<std::size_t>(t)].wall);
    }
    w.end_object();
    w.field("speedup_4_over_1",
            runs[a][2].wall > 0 ? runs[a][0].wall / runs[a][2].wall : 0.0);
    w.end_object();
  }
  w.end_array();
  w.field("modeled_counters_identical", identical);
  w.end_object();
  std::fclose(f);
  std::printf("# wrote %s (counters identical across %zu arms x 3 thread "
              "counts: %s)\n",
              path.c_str(), arms.size(), identical ? "yes" : "NO");
  return identical ? 0 : 1;
}

}  // namespace fhp::bench
