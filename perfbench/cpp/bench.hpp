// Shared pieces of the per-layer benchmark: options, the metric table,
// the outside-in span recorder, and the workload entry points.
//
// Every number is taken from outside the program: spans wrap calls into
// the public functions of each module (gen, graph, harness, systems,
// serve), and counts come from what those calls return. No code under
// src/ is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "harness/dataset_pipeline.hpp"
#include "harness/experiment.hpp"
#include "harness/records.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using epgs::harness::Algorithm;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny graphs (Kronecker scale 10) so the benchmark's own tests run
  /// every metric, the correctness gate and the trace path in seconds.
  bool self_check = false;
  fs::path work_dir;
  int threads = 4;
};

/// Name -> (value, unit), in insertion order of first definition.
class MetricTable {
 public:
  using Row = std::pair<std::string, std::pair<double, std::string>>;

  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<Row> rows_;
};

/// What a workload hands back to main: metrics plus the correctness
/// accounting and free-form details (sample counts, reconciliation).
struct Result {
  MetricTable metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;  ///< first few failure descriptions
  std::map<std::string, double> details;

  void fail(std::uint64_t n, const std::string& why);
  void wrong(const std::string& why);  ///< a wrong output: also !correct
  /// Take over `other`'s correctness and problems, counting `failed` of
  /// `attempted` operations.
  void absorb(Result&& other, std::uint64_t attempted_ops,
              std::uint64_t failed_ops);
};

/// In-memory span recorder. Disabled (trace 0), span() only calls the
/// function; enabled, it records name, parent, start and end, and the
/// spans are written out as a Chrome trace when the run ends.
class Trace {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start = 0.0;  ///< seconds since the recorder was made
    double end = 0.0;
  };

  explicit Trace(bool enabled) : enabled_(enabled) {}

  /// Run `fn` inside a span; returns the span's wall seconds (also when
  /// disabled, so callers time through one path).
  template <typename Fn>
  double span(const std::string& name, Fn&& fn) {
    const int id = open(name);
    const auto t0 = clock::now();
    fn();
    const double secs =
        std::chrono::duration<double>(clock::now() - t0).count();
    close(id);
    return secs;
  }

  /// Chrome trace-event JSON ("X" complete events).
  void write_chrome_trace(const fs::path& path) const;

 private:
  using clock = std::chrono::steady_clock;
  int open(const std::string& name);
  void close(int id);

  bool enabled_;
  clock::time_point t0_ = clock::now();
  std::vector<Span> spans_;
  int current_ = -1;
};

// ---- statistics -----------------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0,1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);

// ---- process counters -----------------------------------------------------

struct ProcCounters {
  double cpu_s = 0.0;
  double vol_ctx = 0.0;
  double invol_ctx = 0.0;
  double minor_faults = 0.0;
};
[[nodiscard]] ProcCounters proc_now();
[[nodiscard]] ProcCounters operator-(const ProcCounters& a,
                                     const ProcCounters& b);
/// Return free heap pages to the OS, then restart the kernel's high-water
/// RSS mark (VmHWM) so it covers only what follows. Without the trim the
/// mark starts from whatever earlier passes left cached in each thread's
/// malloc arena, which moved the serve-mix peak between 79 and 160 MB
/// from run to run on a 4-core VM. Where the kernel refuses the reset,
/// the mark keeps covering the whole process life.
void reset_peak_rss();
/// proc.cpu_s, proc.vol_ctx_switches, proc.invol_ctx_switches and
/// proc.minor_faults from a counter delta.
void set_proc_metrics(MetricTable& m, const ProcCounters& delta);
[[nodiscard]] double peak_rss_mb();

// ---- shared workload helpers ----------------------------------------------

/// Top-level phases of one trial; the nested ones ("initialize engine",
/// "print output") are logged from inside "run algorithm" and already
/// counted in it.
[[nodiscard]] bool is_nested_phase(const std::string& phase);

/// Unit key "system|algorithm|trial" of a record.
[[nodiscard]] std::string unit_key(const epgs::harness::RunRecord& r);

/// Parallel SSSP in GAP, GraphBIG and Ligra relaxes edges in whatever
/// order the threads improve tentative distances, so the work counters of
/// those kernel rows differ from run to run at one thread count (seen at
/// 4 threads on Kronecker scales 10 and 16); the distances themselves are
/// validated exactly by the gate's validated run.
[[nodiscard]] bool schedule_dependent_counts(
    const epgs::harness::RunRecord& r);

/// records_to_stripped_csv with the schedule-dependent counters blanked:
/// every other column of every row must match byte for byte.
[[nodiscard]] std::string comparable_csv(
    std::vector<epgs::harness::RunRecord> records);

/// comparable_csv per unit, to name the units that differ.
[[nodiscard]] std::map<std::string, std::string> comparable_by_unit(
    const std::vector<epgs::harness::RunRecord>& records);

/// Check one run's records: every unit succeeded and every kernel record
/// did work. Adds failures to `res` (a failed validation or an empty
/// traversal is a wrong output); returns the keys of the bad units.
std::set<std::string> check_records(
    const std::vector<epgs::harness::RunRecord>& recs, Result& res,
    const std::string& where);

/// Sum of top-level phase seconds (what harness overhead is measured
/// against).
[[nodiscard]] double top_level_seconds(
    const std::vector<epgs::harness::RunRecord>& records);

/// Fresh cold prepare_dataset into `dir` (removed first); returns wall s.
double cold_prepare(const epgs::harness::GraphSpec& spec, const fs::path& dir,
                    Trace& trace);

/// The (system, algorithm) pairs the capability matrix supports among
/// BFS, SSSP and PageRank, in registry order.
[[nodiscard]] std::vector<std::pair<std::string, Algorithm>>
supported_pairs();

/// Systems in the paper's order plus the extension systems.
[[nodiscard]] std::vector<std::string> every_system();

/// Every per-layer metric name with its unit, in output order, each set
/// to 0 — a layer a workload leaves idle reports 0.
void init_per_layer(MetricTable& m);

/// Traced decomposition of one sweep plan through the public per-layer
/// calls: make_system -> load_file -> build -> kernel, plus the serial
/// reference oracles for COST. Fills systems.* and cost.* rows.
void measure_system_layers(const epgs::harness::ExperimentConfig& cfg,
                           const epgs::harness::PreparedDataset& prep,
                           Trace& trace, Result& res);

/// gen.kronecker_s and graph.homogenize_s for `spec` (medians of `reps`).
void measure_dataset_layers(const epgs::harness::GraphSpec& spec,
                            const fs::path& scratch, int reps, Trace& trace,
                            Result& res);

Result run_sweep(const Options& opt);
Result run_serve_mix(const Options& opt);

}  // namespace perfbench
