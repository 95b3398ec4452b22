// The two paper sweeps: Figs 2/3 (BFS + SSSP, rebuilt per trial) and
// Fig 4 (PageRank on one build per system), driven through
// harness::run_experiment exactly as `epg run` drives them.
#include <algorithm>
#include <set>

#include "bench.hpp"
#include "core/error.hpp"
#include "core/timer.hpp"
#include "harness/runner.hpp"

namespace perfbench {

using namespace epgs;
using harness::ExperimentConfig;
using harness::ExperimentResult;

namespace {

/// The graph is the generator's default (the paper's Graph500 seed) on
/// every run; the workload seed picks the roots. Different graphs converge
/// PageRank in different iteration counts, which would swamp the
/// run-to-run spread a later change is judged against.
ExperimentConfig sweep_config(const Options& opt) {
  const bool traversal = opt.workload == "sweep-traversal";
  ExperimentConfig cfg;
  cfg.graph.kind = harness::GraphSpec::Kind::kKronecker;
  cfg.graph.scale = opt.self_check ? 10 : 16;
  cfg.graph.edgefactor = 16;
  cfg.graph.add_weights = traversal;
  cfg.systems = every_system();
  cfg.algorithms = traversal
                       ? std::vector<Algorithm>{Algorithm::kBfs,
                                                Algorithm::kSssp}
                       : std::vector<Algorithm>{Algorithm::kPageRank};
  cfg.num_roots = traversal ? 16 : 4;
  cfg.root_seed = opt.seed;
  cfg.threads = opt.threads;
  cfg.reconstruct_per_trial = traversal;
  return cfg;
}

/// The trial units of a run (trial >= 0); file-read and build-once
/// records belong to the whole run, not to any one trial.
std::set<std::string> trial_units(const std::vector<harness::RunRecord>& rs) {
  std::set<std::string> out;
  for (const auto& r : rs) {
    if (r.trial >= 0) out.insert(unit_key(r));
  }
  return out;
}

/// The validated run every timed pass must reproduce.
struct Reference {
  std::string csv;                           ///< whole run, comparable_csv
  std::map<std::string, std::string> units;  ///< comparable_csv per unit
  std::set<std::string> trials;              ///< the planned trial units
};

/// Count a checked run into `res`: each planned trial is one operation,
/// as is each bad unit outside the trials (a file read or a build-once).
/// Returns the trials that passed.
std::uint64_t count_units(Result& res, Result&& checked,
                          const std::set<std::string>& trials,
                          const std::set<std::string>& bad) {
  std::uint64_t outside = 0;
  for (const auto& key : bad) outside += trials.count(key) == 0 ? 1 : 0;
  const std::uint64_t ok = trials.size() - (bad.size() - outside);
  res.absorb(std::move(checked), trials.size() + outside, bad.size());
  return ok;
}

/// Check one pass against the reference: a trial fails when it is
/// missing, did not succeed, did no work or differs from the reference.
/// Returns the trials that passed.
std::uint64_t check_pass(const ExperimentResult& r, const Reference& ref,
                         Result& res, const std::string& where) {
  Result pass;
  std::set<std::string> bad = check_records(r.records, pass, where);
  const auto got = comparable_by_unit(r.records);
  for (const auto& [key, csv] : ref.units) {
    const auto it = got.find(key);
    if ((it == got.end() || it->second != csv) && bad.insert(key).second) {
      pass.wrong(where + ": unit " + key + " differs from the validated run");
    }
  }
  if (pass.correct && comparable_csv(r.records) != ref.csv) {
    pass.wrong(where + ": records differ from the validated run");
  }
  return count_units(res, std::move(pass), ref.trials, bad);
}

}  // namespace

Result run_sweep(const Options& opt) {
  Result res;
  Trace trace(opt.trace);
  ExperimentConfig cfg = sweep_config(opt);

  // Set-up users pay once: a cold prepare_dataset (generate, homogenize
  // for every system, publish) into a fresh cache directory.
  std::vector<double> setup;
  for (int i = 0; i < 3; ++i) {
    setup.push_back(cold_prepare(
        cfg.graph, opt.work_dir / ("cache-" + std::to_string(i)), trace));
  }
  fs::remove_all(opt.work_dir / "cache-0");
  fs::remove_all(opt.work_dir / "cache-1");
  cfg.dataset.cache_dir = (opt.work_dir / "cache-2").string();

  // Correctness gate, outside every timing: one validated run whose
  // stripped CSV every timed pass must reproduce byte for byte.
  Reference reference;
  {
    const auto prep = harness::prepare_dataset(cfg.graph, cfg.dataset);
    const auto expected_roots =
        harness::select_roots(prep.edges, cfg.num_roots, cfg.root_seed);
    ExperimentConfig vcfg = cfg;
    vcfg.validate = true;
    const ExperimentResult gate = harness::run_experiment(vcfg);
    if (gate.roots != expected_roots) {
      res.wrong("validated run used roots other than select_roots'");
    }
    if (!gate.used_dataset_pipeline || gate.dataset_degraded) {
      res.wrong("validated run bypassed the dataset cache");
    }
    reference.csv = comparable_csv(gate.records);
    reference.units = comparable_by_unit(gate.records);
    reference.trials = trial_units(gate.records);
    Result checked;
    const auto bad = check_records(gate.records, checked, "validated run");
    count_units(res, std::move(checked), reference.trials, bad);
  }

  if (!opt.trace) {
    // Whole passes, as many as fit in --seconds, at least one; the RSS
    // high-water mark is taken per pass. What a sweep's user waits on is
    // the whole sweep, so the latency samples are the passes; the work
    // rate counts kernel trials.
    WallTimer window;
    std::vector<double> walls, rss;
    std::uint64_t ok_units = 0;
    do {
      ExperimentResult r;
      reset_peak_rss();
      walls.push_back(trace.span("harness.run_experiment",
                                 [&] { r = harness::run_experiment(cfg); }));
      rss.push_back(peak_rss_mb());
      ok_units +=
          check_pass(r, reference, res, "pass " + std::to_string(walls.size()));
    } while (window.seconds() + median(walls) <= opt.seconds);
    double total = 0.0;
    for (double w : walls) total += w;
    MetricTable& m = res.metrics;
    m.set("setup_s", median(setup), "s");
    m.set("work_per_s", static_cast<double>(ok_units) / total, "1/s");
    m.set("latency_p50_ms", 1e3 * quantile(walls, 0.50), "ms");
    m.set("latency_p95_ms", 1e3 * quantile(walls, 0.95), "ms");
    m.set("peak_rss_mb", median(rss), "MB");
    res.details["passes"] = static_cast<double>(walls.size());
    res.details["latency_samples"] = static_cast<double>(walls.size());
    return res;
  }

  // Traced run: the same pass untraced and traced, back to back (the OS
  // counters cover both), then the plan decomposed into its per-layer
  // calls.
  init_per_layer(res.metrics);
  MetricTable& m = res.metrics;
  const ProcCounters before = proc_now();
  ExperimentResult untraced, traced;
  WallTimer untimed;
  untraced = harness::run_experiment(cfg);
  const double wall_off = untimed.seconds();
  const double wall_on = trace.span(
      "harness.run_experiment", [&] { traced = harness::run_experiment(cfg); });
  set_proc_metrics(m, proc_now() - before);
  res.details["proc_wall_s"] = wall_off + wall_on;
  check_pass(untraced, reference, res, "untraced pass");
  check_pass(traced, reference, res, "traced pass");
  m.set("trace.overhead_ratio", wall_on / wall_off, "ratio");

  // Nested-phase accounting: "initialize engine" and "print output" are
  // logged from inside "run algorithm", so only top-level phases count
  // against the wall; the kernel's self time excludes its nested phases.
  std::map<std::string, double> nested_in_unit;
  double naive = 0.0;
  for (const auto& r : traced.records) {
    naive += r.seconds;
    if (is_nested_phase(r.phase)) nested_in_unit[unit_key(r)] += r.seconds;
  }
  double self_sum = 0.0, kernel_self = 0.0;
  for (const auto& r : traced.records) {
    double self = r.seconds;
    if (r.phase == phase::kAlgorithm) {
      self -= nested_in_unit[unit_key(r)];
      kernel_self += self;
    }
    self_sum += self;
  }
  const double overhead = wall_on - top_level_seconds(traced.records);
  if (overhead < 0.0) {
    res.wrong("top-level phases exceed the wall time of their pass");
  }
  m.set("harness.overhead_s", overhead, "s");
  m.set("harness.units",
        static_cast<double>(comparable_by_unit(traced.records).size()),
        "count");
  res.details["sweep_s"] = wall_on;
  res.details["phase_sum_naive_s"] = naive;
  res.details["self_time_sum_s"] = self_sum;
  res.details["kernel_self_sum_s"] = kernel_self;

  m.set("harness.prepare_cold_s", median(setup), "s");
  std::vector<double> warm;
  harness::PreparedDataset prep;
  for (int i = 0; i < 3; ++i) {
    warm.push_back(trace.span("harness.prepare_dataset.warm", [&] {
      prep = harness::prepare_dataset(cfg.graph, cfg.dataset);
    }));
    EPGS_CHECK(prep.cache_hit, "warm prepare_dataset missed the cache");
  }
  m.set("harness.prepare_warm_s", median(warm), "s");
  measure_dataset_layers(cfg.graph, opt.work_dir, 3, trace, res);
  measure_system_layers(cfg, prep, trace, res);
  trace.write_chrome_trace(opt.work_dir / "trace.json");
  return res;
}

}  // namespace perfbench
