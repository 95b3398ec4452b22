#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>

#include "bench.hpp"
#include "core/error.hpp"
#include "systems/common/system.hpp"
#include "systems/common/registry.hpp"

namespace perfbench {

using epgs::harness::RunRecord;

void MetricTable::set(const std::string& name, double value,
                      const std::string& unit) {
  for (auto& [n, vu] : rows_) {
    if (n == name) {
      vu = {value, unit};
      return;
    }
  }
  rows_.emplace_back(name, std::make_pair(value, unit));
}

void Result::fail(std::uint64_t n, const std::string& why) {
  failed += n;
  if (problems.size() < 8) problems.push_back(why);
}

void Result::wrong(const std::string& why) {
  correct = false;
  fail(1, why);
}

void Result::absorb(Result&& other, std::uint64_t attempted_ops,
                    std::uint64_t failed_ops) {
  attempted += attempted_ops;
  failed += failed_ops;
  correct = correct && other.correct;
  for (auto& p : other.problems) {
    if (problems.size() < 8) problems.push_back(std::move(p));
  }
}

int Trace::open(const std::string& name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = current_;
  s.start = std::chrono::duration<double>(clock::now() - t0_).count();
  spans_.push_back(std::move(s));
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Trace::close(int id) {
  if (id < 0) return;
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end = std::chrono::duration<double>(clock::now() - t0_).count();
  current_ = s.parent;
}

void Trace::write_chrome_trace(const fs::path& path) const {
  std::ofstream f(path);
  f << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
      << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start * 1e6
      << ",\"dur\":" << (s.end - s.start) * 1e6 << ",\"args\":{\"id\":" << i
      << ",\"parent\":" << s.parent << "}}";
  }
  f << "\n]}\n";
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

ProcCounters proc_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return ProcCounters{secs(ru.ru_utime) + secs(ru.ru_stime),
                      static_cast<double>(ru.ru_nvcsw),
                      static_cast<double>(ru.ru_nivcsw),
                      static_cast<double>(ru.ru_minflt)};
}

ProcCounters operator-(const ProcCounters& a, const ProcCounters& b) {
  return ProcCounters{a.cpu_s - b.cpu_s, a.vol_ctx - b.vol_ctx,
                      a.invol_ctx - b.invol_ctx,
                      a.minor_faults - b.minor_faults};
}

void set_proc_metrics(MetricTable& m, const ProcCounters& delta) {
  m.set("proc.cpu_s", delta.cpu_s, "s");
  m.set("proc.vol_ctx_switches", delta.vol_ctx, "count");
  m.set("proc.invol_ctx_switches", delta.invol_ctx, "count");
  m.set("proc.minor_faults", delta.minor_faults, "count");
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

bool is_nested_phase(const std::string& phase) {
  return phase == epgs::phase::kEngineInit || phase == epgs::phase::kOutput;
}

std::string unit_key(const RunRecord& r) {
  return r.system + "|" + r.algorithm + "|" + std::to_string(r.trial);
}

bool schedule_dependent_counts(const RunRecord& r) {
  return r.phase == epgs::phase::kAlgorithm && r.algorithm == "SSSP" &&
         (r.system == "GAP" || r.system == "GraphBIG" || r.system == "Ligra");
}

std::string comparable_csv(std::vector<RunRecord> records) {
  for (auto& r : records) {
    if (schedule_dependent_counts(r)) r.work = {};
  }
  return epgs::harness::records_to_stripped_csv(records);
}

std::map<std::string, std::string> comparable_by_unit(
    const std::vector<RunRecord>& records) {
  std::map<std::string, std::vector<RunRecord>> units;
  for (const auto& r : records) units[unit_key(r)].push_back(r);
  std::map<std::string, std::string> out;
  for (auto& [key, recs] : units) out[key] = comparable_csv(std::move(recs));
  return out;
}

std::set<std::string> check_records(const std::vector<RunRecord>& recs,
                                    Result& res, const std::string& where) {
  std::set<std::string> bad;
  for (const auto& r : recs) {
    if (r.outcome != epgs::Outcome::kSuccess) {
      if (bad.insert(unit_key(r)).second) {
        const std::string why = where + ": unit " + unit_key(r) + " ended " +
                                std::string(epgs::outcome_name(r.outcome));
        if (r.outcome == epgs::Outcome::kValidationFailed) {
          res.wrong(why);
        } else {
          res.fail(1, why);
        }
      }
    } else if (r.phase == epgs::phase::kAlgorithm &&
               r.work.edges_processed == 0) {
      if (bad.insert(unit_key(r)).second) {
        res.wrong(where + ": kernel " + unit_key(r) + " traversed 0 edges");
      }
    }
  }
  return bad;
}

double top_level_seconds(const std::vector<RunRecord>& records) {
  double sum = 0.0;
  for (const auto& r : records) {
    if (!is_nested_phase(r.phase)) sum += r.seconds;
  }
  return sum;
}

double cold_prepare(const epgs::harness::GraphSpec& spec, const fs::path& dir,
                    Trace& trace) {
  fs::remove_all(dir);
  epgs::harness::DatasetOptions opts;
  opts.cache_dir = dir.string();
  double secs = 0.0;
  secs = trace.span("harness.prepare_dataset.cold", [&] {
    const auto prep = epgs::harness::prepare_dataset(spec, opts);
    EPGS_CHECK(!prep.degraded && !prep.cache_hit,
               "cold prepare_dataset was not a clean miss: " +
                   prep.degradation);
  });
  return secs;
}

std::vector<std::string> every_system() {
  std::vector<std::string> out;
  for (auto n : epgs::all_system_names()) out.emplace_back(n);
  for (auto n : epgs::extension_system_names()) out.emplace_back(n);
  return out;
}

std::vector<std::pair<std::string, Algorithm>> supported_pairs() {
  std::vector<std::pair<std::string, Algorithm>> out;
  for (const auto& name : every_system()) {
    const epgs::Capabilities caps = epgs::make_system(name)->capabilities();
    if (caps.bfs) out.emplace_back(name, Algorithm::kBfs);
    if (caps.sssp) out.emplace_back(name, Algorithm::kSssp);
    if (caps.pagerank) out.emplace_back(name, Algorithm::kPageRank);
  }
  return out;
}

void init_per_layer(MetricTable& m) {
  m.set("gen.kronecker_s", 0, "s");
  m.set("graph.homogenize_s", 0, "s");
  m.set("harness.prepare_cold_s", 0, "s");
  m.set("harness.prepare_warm_s", 0, "s");
  m.set("harness.overhead_s", 0, "s");
  m.set("harness.units", 0, "count");
  for (const auto& s : every_system()) {
    if (epgs::make_system(s)->capabilities().separate_construction) {
      m.set("systems." + s + ".file_read_s", 0, "s");
    }
  }
  for (const auto& s : every_system()) {
    m.set("systems." + s + ".build_s", 0, "s");
    m.set("systems." + s + ".build_bytes", 0, "bytes");
  }
  for (const auto& [s, a] : supported_pairs()) {
    const std::string p =
        "systems." + s + "." + std::string(algorithm_name(a));
    m.set(p + ".kernel_s", 0, "s");
    m.set(p + ".edges", 0, "count");
    m.set(p + ".iterations", 0, "count");
  }
  m.set("systems.PowerGraph.SSSP.engine_init_s", 0, "s");
  m.set("systems.PowerGraph.PageRank.engine_init_s", 0, "s");
  m.set("systems.GraphMat.PageRank.engine_init_s", 0, "s");
  m.set("systems.GraphMat.PageRank.output_s", 0, "s");
  for (const char* a : {"BFS", "SSSP", "PageRank"}) {
    m.set(std::string("cost.") + a + ".serial_s", 0, "s");
  }
  for (const auto& [s, a] : supported_pairs()) {
    m.set("cost." + s + "." + std::string(algorithm_name(a)) + ".ratio", 0,
          "ratio");
  }
  m.set("serve.staged_run_ms", 0, "ms");
  m.set("serve.acquire_ms", 0, "ms");
  m.set("serve.wire_ms", 0, "ms");
  m.set("serve.queue_wait_ms", 0, "ms");
  m.set("serve.batches", 0, "count");
  m.set("serve.coalesced", 0, "count");
  m.set("serve.coalesce_ratio", 0, "ratio");
  m.set("serve.cold_loads", 0, "count");
  m.set("serve.warm_hits", 0, "count");
  m.set("serve.evictions", 0, "count");
  m.set("serve.rejected", 0, "count");
  m.set("proc.cpu_s", 0, "s");
  m.set("proc.vol_ctx_switches", 0, "count");
  m.set("proc.invol_ctx_switches", 0, "count");
  m.set("proc.minor_faults", 0, "count");
  m.set("trace.overhead_ratio", 0, "ratio");
}

}  // namespace perfbench
