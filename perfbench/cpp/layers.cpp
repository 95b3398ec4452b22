// The traced per-layer decomposition: the same units a sweep plan runs,
// driven through each module's public calls with a span around each call.
#include <algorithm>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "core/error.hpp"
#include "core/parallel.hpp"
#include "gen/kronecker.hpp"
#include "graph/csr.hpp"
#include "graph/homogenizer.hpp"
#include "harness/sweep_plan.hpp"
#include "systems/common/reference.hpp"
#include "systems/common/registry.hpp"

namespace perfbench {

using namespace epgs;
using harness::PlannedTrial;
using harness::SystemPlan;

namespace {

/// A span around a call must cover the phase the call logged from
/// inside; anything else means the two clocks disagree.
void cross_check(double span, const PhaseEntry& e, const std::string& what,
                 Result& res) {
  res.details["trace.max_span_minus_phase_s"] =
      std::max(res.details["trace.max_span_minus_phase_s"], span - e.seconds);
  if (span + 1e-6 < e.seconds) {
    res.wrong("trace: span of " + what + " (" + std::to_string(span) +
              " s) is shorter than its logged phase (" +
              std::to_string(e.seconds) + " s)");
  }
}

double iterations_of(const PhaseEntry& e) {
  const auto it = e.extra.find("iterations");
  if (it != e.extra.end()) return std::stod(it->second);
  return static_cast<double>(e.timeline.size());
}

}  // namespace

void measure_system_layers(const harness::ExperimentConfig& cfg,
                           const harness::PreparedDataset& prep, Trace& trace,
                           Result& res) {
  EPGS_CHECK(!prep.degraded, "dataset cache degraded: " + prep.degradation);
  const HomogenizedDataset& files = prep.entry.files;
  const harness::SweepPlan plan = harness::plan_sweep(cfg, &files, {});
  const std::vector<vid_t> roots =
      harness::select_roots(prep.edges, cfg.num_roots, cfg.root_seed);
  MetricTable& m = res.metrics;
  ThreadScope scope(plan.threads);

  std::map<std::string, std::vector<double>> self, init, output;
  std::map<std::string, double> edges, iterations;
  for (const SystemPlan& sp : plan.systems) {
    const std::string s = sp.system;
    std::unique_ptr<System> sys;
    trace.span("systems." + s + ".make_system",
               [&] { sys = make_system(s); });
    const double read =
        trace.span("systems." + s + ".load_file",
                   [&] { sys->load_file(sp.native_file); });
    if (sp.separate_construction) {
      cross_check(read, sys->log().entries().back(), s + " file read", res);
      m.set("systems." + s + ".file_read_s", read, "s");
    }

    std::vector<double> builds;
    bool built = false;
    for (const PlannedTrial& t : sp.trials) {
      if (sp.rebuild_per_trial || !built) {
        builds.push_back(
            trace.span("systems." + s + ".build", [&] { sys->build(); }));
        const PhaseEntry& e = sys->log().entries().back();
        cross_check(builds.back(), e, s + " build", res);
        m.set("systems." + s + ".build_bytes",
              static_cast<double>(e.work.bytes_touched), "bytes");
        built = true;
      }
      const std::size_t mark = sys->log().entries().size();
      const vid_t root = roots.at(static_cast<std::size_t>(t.trial));
      const std::string pair = s + "." + t.alg_name;
      const double span = trace.span("systems." + pair + ".kernel", [&] {
        switch (t.alg) {
          case Algorithm::kBfs: (void)sys->bfs(root); break;
          case Algorithm::kSssp: (void)sys->sssp(root); break;
          case Algorithm::kPageRank: (void)sys->pagerank(cfg.pagerank); break;
          default: throw EpgsError("unexpected algorithm in plan");
        }
      });
      double nested = 0.0;
      const auto& entries = sys->log().entries();
      for (std::size_t i = mark; i < entries.size(); ++i) {
        const PhaseEntry& e = entries[i];
        if (e.name == phase::kEngineInit) init[pair].push_back(e.seconds);
        if (e.name == phase::kOutput) output[pair].push_back(e.seconds);
        if (is_nested_phase(e.name)) nested += e.seconds;
        if (e.name == phase::kAlgorithm) {
          cross_check(span, e, pair + " kernel", res);
          edges[pair] += static_cast<double>(e.work.edges_processed);
          iterations[pair] += iterations_of(e);
        }
      }
      self[pair].push_back(span - nested);
    }
    if (!builds.empty()) {
      m.set("systems." + s + ".build_s", median(builds), "s");
    }
  }
  for (const auto& [pair, v] : self) {
    m.set("systems." + pair + ".kernel_s", median(v), "s");
    m.set("systems." + pair + ".edges", edges[pair], "count");
    m.set("systems." + pair + ".iterations", iterations[pair], "count");
  }
  for (const auto& [pair, v] : init) {
    m.set("systems." + pair + ".engine_init_s", median(v), "s");
  }
  for (const auto& [pair, v] : output) {
    m.set("systems." + pair + ".output_s", median(v), "s");
  }

  // COST: the serial reference oracles on the same roots, each on a
  // prebuilt CSR (kernels are timed without construction too).
  const CSRGraph out = CSRGraph::from_edges(prep.edges);
  std::optional<CSRGraph> in;
  for (const Algorithm a : cfg.algorithms) {
    const std::string an(algorithm_name(a));
    std::vector<double> serial;
    for (std::size_t i = 0; i < roots.size(); ++i) {
      const vid_t root = roots[i];
      serial.push_back(trace.span("cost." + an + ".serial", [&] {
        switch (a) {
          case Algorithm::kBfs: (void)ref::bfs_levels(out, root); break;
          case Algorithm::kSssp: (void)ref::dijkstra(out, root); break;
          case Algorithm::kPageRank:
            if (!in) in = CSRGraph::from_edges(prep.edges, true);
            (void)ref::pagerank(out, *in, cfg.pagerank);
            break;
          default: throw EpgsError("unexpected algorithm in plan");
        }
      }));
    }
    const double base = median(serial);
    m.set("cost." + an + ".serial_s", base, "s");
    for (const auto& [pair, v] : self) {
      if (pair.substr(pair.find('.') + 1) == an) {
        m.set("cost." + pair + ".ratio", median(v) / base, "ratio");
      }
    }
  }
}

void measure_dataset_layers(const harness::GraphSpec& spec,
                            const fs::path& scratch, int reps, Trace& trace,
                            Result& res) {
  gen::KroneckerParams p;
  p.scale = spec.scale;
  p.edgefactor = spec.edgefactor;
  p.seed = spec.seed;
  std::vector<double> gen_s, homog_s;
  const EdgeList el = harness::materialize(spec);
  for (int i = 0; i < reps; ++i) {
    gen_s.push_back(
        trace.span("gen.kronecker", [&] { (void)gen::kronecker(p); }));
    const fs::path dir = scratch / ("homogenize-" + std::to_string(i));
    fs::remove_all(dir);
    homog_s.push_back(trace.span(
        "graph.homogenize", [&] { (void)homogenize(el, spec.name(), dir); }));
    fs::remove_all(dir);
  }
  res.metrics.set("gen.kronecker_s", median(gen_s), "s");
  res.metrics.set("graph.homogenize_s", median(homog_s), "s");
}

}  // namespace perfbench
