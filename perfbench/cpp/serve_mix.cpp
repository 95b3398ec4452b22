// The serve mix: an in-process `epg serve` (serve::Server) driven by a
// closed loop of clients through serve::query_server, each waiting for
// its reply before sending the next request.
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <iostream>
#include <memory>
#include <random>
#include <thread>

#include "bench.hpp"
#include "core/error.hpp"
#include "core/timer.hpp"
#include "harness/runner.hpp"
#include "serve/graph_session.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace perfbench {

using namespace epgs;

namespace {

constexpr int kClients = 3;
constexpr int kRequestsPerClient = 20;
/// OpenMP threads per served request. One: a request is tens of ms of
/// build and kernel, and a multi-threaded one wakes its OpenMP team at
/// every parallel region, so it times the host's scheduling more than the
/// program. On a 4-core VM one busy core made 4-thread requests 2.6x
/// slower, 2-thread ones 8% and 1-thread ones 2%. The sweeps time the
/// parallel kernels.
constexpr int kRequestThreads = 1;

/// One request of a client's stream.
struct Req {
  int graph = 0;
  std::string system;
  Algorithm alg = Algorithm::kBfs;
};

std::string key_of(const Req& r) {
  return std::to_string(r.graph) + "|" + r.system + "|" +
         std::string(algorithm_name(r.alg));
}

/// Three weighted Kronecker graphs (weights serve SSSP; BFS and PageRank
/// ignore them) with generator seeds 1, 2, 3; the workload seed drives the
/// request streams.
std::vector<harness::GraphSpec> serve_graphs(const Options& opt) {
  std::vector<harness::GraphSpec> out(3);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].kind = harness::GraphSpec::Kind::kKronecker;
    out[i].scale = opt.self_check ? 10 : 14;
    out[i].edgefactor = 16;
    out[i].seed = 1 + i;
    out[i].add_weights = true;
  }
  return out;
}

/// Per-client seeded streams for pass `pass`. A pass is balanced: it
/// sends every pair the capability matrix supports equally often and the
/// graphs in exact 45/45/10 proportion, and (seed, pass) draws the order
/// and which client sends what. Passes thus differ in interleaving,
/// coalescing and eviction order, not in how much kernel work they hold;
/// independent draws over 60 requests moved pass time by +-20% between
/// seeds on a 4-core VM. A fresh order per pass spreads each run over
/// many orders, so no one order decides a run's figures.
std::vector<std::vector<Req>> make_streams(const Options& opt, int pass) {
  const auto pairs = supported_pairs();
  const std::size_t total = kClients * kRequestsPerClient;
  EPGS_CHECK(total % pairs.size() == 0 && total % 20 == 0,
             "a pass must hold every pair equally often and split 45/45/10");
  std::vector<int> graph_of(total);
  for (std::size_t i = 0; i < total; ++i) {
    const std::size_t pct = i * 100 / total;
    graph_of[i] = pct < 45 ? 0 : (pct < 90 ? 1 : 2);
  }
  std::vector<Req> all(total);
  for (std::size_t i = 0; i < total; ++i) {
    all[i].system = pairs[i % pairs.size()].first;
    all[i].alg = pairs[i % pairs.size()].second;
  }
  std::seed_seq seq{static_cast<std::uint32_t>(opt.seed),
                    static_cast<std::uint32_t>(opt.seed >> 32),
                    static_cast<std::uint32_t>(pass)};
  std::mt19937_64 rng(seq);
  std::shuffle(graph_of.begin(), graph_of.end(), rng);
  for (std::size_t i = 0; i < total; ++i) all[i].graph = graph_of[i];
  std::shuffle(all.begin(), all.end(), rng);
  std::vector<std::vector<Req>> streams(kClients);
  for (std::size_t i = 0; i < total; ++i) {
    streams[i % kClients].push_back(all[i]);
  }
  return streams;
}

/// The ExperimentConfig the scheduler builds for a served request.
harness::ExperimentConfig request_config(const harness::GraphSpec& g,
                                         const Req& r, int threads) {
  harness::ExperimentConfig cfg;
  cfg.graph = g;
  cfg.systems = {r.system};
  cfg.algorithms = {r.alg};
  cfg.num_roots = 1;
  cfg.threads = threads;
  return cfg;
}

std::string render(const harness::GraphSpec& g, const Req& r, int threads) {
  serve::Request req;
  req.verb = serve::Verb::kRun;
  req.graph = g;
  req.system = r.system;
  req.algorithm = r.alg;
  req.roots = 1;
  req.threads = threads;
  return serve::render_request(req);
}

/// One answered request, as its client saw it.
struct Answer {
  Req req;
  double latency_ms = 0.0;
  serve::Reply reply;
};

/// Each client sends its stream one request at a time, waiting for each
/// reply: it holds at most one connection, opened per request by
/// serve::query_server as `epg query` does. Returns the pass wall seconds.
double closed_loop(const std::string& socket,
                   const std::vector<harness::GraphSpec>& graphs,
                   const std::vector<std::vector<Req>>& streams, int threads,
                   std::vector<Answer>& out) {
  std::vector<std::vector<Answer>> per(streams.size());
  WallTimer wall;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < streams.size(); ++c) {
    clients.emplace_back([&, c] {
      for (const Req& r : streams[c]) {
        Answer a;
        a.req = r;
        const std::string payload =
            render(graphs[static_cast<std::size_t>(r.graph)], r, threads);
        WallTimer t;
        try {
          a.reply = serve::query_server(socket, payload);
        } catch (const std::exception& e) {
          a.reply = serve::Reply{serve::ReplyKind::kInternal, "run",
                                 std::string("client: ") + e.what()};
        }
        a.latency_ms = t.seconds() * 1e3;
        per[c].push_back(std::move(a));
      }
    });
  }
  for (auto& t : clients) t.join();
  const double secs = wall.seconds();
  for (auto& v : per) {
    for (auto& a : v) out.push_back(std::move(a));
  }
  return secs;
}

/// Reply-level checks; returns the reply's stripped CSV, empty on a
/// failed reply.
std::string check_reply(const Answer& a, Result& res) {
  ++res.attempted;
  const std::string key = key_of(a.req);
  if (a.reply.kind != serve::ReplyKind::kOk) {
    res.fail(1, "request " + key + " answered " +
                    std::string(serve::reply_kind_name(a.reply.kind)) + ": " +
                    a.reply.body);
    return {};
  }
  std::vector<harness::RunRecord> recs;
  try {
    recs = harness::records_from_csv(a.reply.body);
  } catch (const std::exception& e) {
    res.wrong("request " + key + ": unparseable reply: " + e.what());
    return {};
  }
  bool has_kernel = false;
  for (const auto& r : recs) has_kernel |= r.phase == phase::kAlgorithm;
  if (!has_kernel) {
    res.wrong("request " + key + ": reply has no run algorithm row");
    return {};
  }
  Result unit;
  if (!check_records(recs, unit, "request " + key).empty()) {
    // One request is one operation, however many of its records failed.
    if (unit.correct) {
      res.fail(1, unit.problems.front());
    } else {
      res.wrong(unit.problems.front());
    }
    return {};
  }
  return comparable_csv(recs);
}

/// Warm-cache staging of the graphs for direct runs, loaded on first use
/// so that an untraced run loads them only after its timed window.
struct Staging {
  const std::vector<harness::GraphSpec>& graphs;
  const harness::DatasetOptions& dataset;
  std::map<int, harness::PreparedDataset> preps;

  harness::StagedDataset staged(int g) {
    auto it = preps.find(g);
    if (it == preps.end()) {
      it = preps
               .emplace(g, harness::prepare_dataset(
                               graphs.at(static_cast<std::size_t>(g)), dataset))
               .first;
      EPGS_CHECK(it->second.cache_hit && !it->second.degraded,
                 "graph missing from the warm cache");
    }
    harness::StagedDataset s;
    s.edges = &it->second.edges;
    s.files = &it->second.entry.files;
    s.cache_hit = it->second.cache_hit;
    return s;
  }
};

/// Starts a server and sends it one request per graph, which loads each
/// graph: on an empty cache it generates, homogenizes and caches it.
std::unique_ptr<serve::Server> start_warm(
    const serve::ServerOptions& so,
    const std::vector<harness::GraphSpec>& graphs, int threads) {
  auto server = std::make_unique<serve::Server>(so);
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    const Req warm{static_cast<int>(g), "GAP", Algorithm::kBfs};
    const auto reply =
        serve::query_server(so.socket_path, render(graphs[g], warm, threads));
    EPGS_CHECK(reply.kind == serve::ReplyKind::kOk,
               "warm-up request failed: " + reply.body);
  }
  return server;
}

/// What one cold set-up measured.
struct ColdSetup {
  double seconds = 0.0;
  std::uint64_t budget = 0;  ///< residency budget, when asked to size it
};

/// One set-up as users pay it, run in a child process: start a server on
/// an empty cache and warm every graph. The child keeps the cold loads'
/// allocations out of the process that serves the timed passes: in it they
/// left 21 to 50 MB of anonymous memory that malloc_trim could not return,
/// a different amount in every run on a 4-core VM, and most of the spread
/// of peak_rss_mb between runs. With `size_budget` the child also sizes
/// the residency budget: any two graphs fit, all three never do, so
/// requests for the cold graph evict and reload from the cache. Call it
/// before this process starts a thread: only then is fork() safe here.
ColdSetup cold_setup(const serve::ServerOptions& so, const fs::path& cache,
                     const std::vector<harness::GraphSpec>& graphs,
                     int threads, bool size_budget) {
  int fds[2];
  EPGS_CHECK(::pipe(fds) == 0, "pipe() failed");
  const pid_t pid = ::fork();
  EPGS_CHECK(pid >= 0, "fork() failed");
  if (pid == 0) {
    ::close(fds[0]);
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    int code = 1;
    try {
      fs::remove_all(cache);
      ColdSetup out;
      WallTimer t;
      auto server = start_warm(so, graphs, threads);
      out.seconds = t.seconds();
      if (size_budget) {
        const auto resident = server->snapshot().graphs;
        EPGS_CHECK(resident.size() == 3,
                   "warm-up left other than three graphs resident");
        std::uint64_t sum = 0, smallest = ~0ULL;
        for (const auto& g : resident) {
          sum += g.bytes;
          smallest = std::min(smallest, g.bytes);
        }
        out.budget = sum - smallest / 2;
      }
      server.reset();
      if (::write(fds[1], &out, sizeof out) == sizeof out) code = 0;
    } catch (const std::exception& e) {
      std::cerr << "perfbench: cold set-up: " << e.what() << "\n";
    }
    ::_exit(code);
  }
  ::close(fds[1]);
  ColdSetup out;
  const ssize_t got = ::read(fds[0], &out, sizeof out);
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  EPGS_CHECK(got == sizeof out && WIFEXITED(status) &&
                 WEXITSTATUS(status) == 0,
             "cold set-up failed in its child process");
  return out;
}

}  // namespace

Result run_serve_mix(const Options& opt) {
  Result res;
  Trace trace(opt.trace);
  const auto graphs = serve_graphs(opt);
  const int threads = std::min(opt.threads, kRequestThreads);
  const auto streams = make_streams(opt, 0);
  const std::string socket = (opt.work_dir / "serve.sock").string();
  const fs::path cache = opt.work_dir / "cache";
  harness::DatasetOptions dataset;
  dataset.cache_dir = cache.string();

  // Set-up users pay once, three times over, each in a child process of
  // its own. The server of the timed part then starts on the cache the
  // set-up left, and its warm-up requests only reload the graphs.
  serve::ServerOptions so;
  so.socket_path = socket;
  so.dataset = dataset;
  std::vector<double> setup;
  for (int rep = 0; rep < 3; ++rep) {
    ColdSetup cold;
    trace.span("serve.setup", [&] {
      cold = cold_setup(so, cache, graphs, threads, rep == 0);
    });
    setup.push_back(cold.seconds);
    if (rep == 0) so.max_resident_bytes = cold.budget;
  }
  const std::uint64_t budget = so.max_resident_bytes;
  const auto server = start_warm(so, graphs, threads);
  res.details["max_resident_bytes"] = static_cast<double>(budget);
  res.details["request_threads"] = threads;

  Staging staging{graphs, dataset, {}};
  std::vector<Answer> answers;
  // Direct runs of one request each: the reference every reply of the same
  // request must match (stripped CSV), and serve.staged_run_ms.
  std::map<std::string, std::string> expected;
  std::vector<double> staged_ms, staged_overhead;
  double staged_units = 0.0;
  auto direct = [&](const Req& r, bool timed) {
    const auto cfg = request_config(
        graphs[static_cast<std::size_t>(r.graph)], r, threads);
    harness::ExperimentResult out;
    const double secs = trace.span("harness.run_experiment.staged", [&] {
      out = harness::run_experiment(cfg, staging.staged(r.graph));
    });
    if (timed) {
      staged_ms.push_back(secs * 1e3);
      staged_overhead.push_back(secs - top_level_seconds(out.records));
      staged_units +=
          static_cast<double>(comparable_by_unit(out.records).size());
    }
    expected[key_of(r)] = comparable_csv(out.records);
  };
  // Checks every answer; returns, per answer, whether it was ok and right.
  auto verify = [&] {
    std::vector<bool> good;
    for (const Answer& a : answers) {
      const std::string got = check_reply(a, res);
      good.push_back(!got.empty());
      if (got.empty()) continue;
      const std::string key = key_of(a.req);
      if (!expected.count(key)) direct(a.req, false);
      if (got != expected[key]) {
        res.wrong("request " + key +
                  ": reply differs from a direct run_experiment");
        good.back() = false;
      }
    }
    return good;
  };

  if (!opt.trace) {
    // One untimed pass settles the server's threads and heap, then whole
    // passes, as many as fit in --seconds, at least one, each in an order
    // of its own. Every figure is taken per pass and reported as the
    // median over the passes, so one pass slowed by the host moves little.
    closed_loop(socket, graphs, make_streams(opt, -1), threads, answers);
    const std::size_t warm = answers.size();
    WallTimer window;
    std::vector<double> walls, rss;
    std::vector<std::size_t> ends;
    do {
      const auto order = make_streams(opt, static_cast<int>(walls.size()));
      reset_peak_rss();
      walls.push_back(closed_loop(socket, graphs, order, threads, answers));
      rss.push_back(peak_rss_mb());
      ends.push_back(answers.size());
    } while (window.seconds() + median(walls) <= opt.seconds);
    const std::vector<bool> good = verify();
    std::vector<double> qps, p50, p95;
    for (std::size_t p = 0, begin = warm; p < walls.size(); ++p) {
      std::vector<double> latency;
      double ok = 0.0;
      for (std::size_t i = begin; i < ends[p]; ++i) {
        latency.push_back(answers[i].latency_ms);
        ok += good[i] ? 1.0 : 0.0;
      }
      qps.push_back(ok / walls[p]);
      p50.push_back(quantile(latency, 0.50));
      p95.push_back(quantile(latency, 0.95));
      begin = ends[p];
    }
    MetricTable& m = res.metrics;
    m.set("setup_s", median(setup), "s");
    m.set("work_per_s", median(qps), "1/s");
    m.set("latency_p50_ms", median(p50), "ms");
    m.set("latency_p95_ms", median(p95), "ms");
    m.set("peak_rss_mb", median(rss), "MB");
    res.details["passes"] = static_cast<double>(walls.size());
    res.details["latency_samples"] =
        static_cast<double>(answers.size() - warm);
    return res;
  }

  init_per_layer(res.metrics);
  MetricTable& m = res.metrics;
  std::vector<Req> all;
  for (const auto& s : streams) all.insert(all.end(), s.begin(), s.end());

  // Warm GraphStore::acquire, through a store of our own on the same cache.
  {
    serve::Metrics sink;
    serve::GraphStore store(dataset, 0, sink);
    for (const auto& g : graphs) (void)store.acquire(g);
    std::vector<double> acquire_ms;
    for (const Req& r : all) {
      acquire_ms.push_back(1e3 * trace.span("serve.acquire", [&] {
        (void)store.acquire(graphs[static_cast<std::size_t>(r.graph)]);
      }));
    }
    m.set("serve.acquire_ms", median(acquire_ms), "ms");
  }

  for (const Req& r : all) direct(r, true);
  m.set("serve.staged_run_ms", median(staged_ms), "ms");
  m.set("harness.overhead_s", median(staged_overhead), "s");
  m.set("harness.units", staged_units, "count");

  // Single client (no queueing) over the same stream, then the closed
  // loop untraced and traced.
  std::vector<Answer> single;
  closed_loop(socket, graphs, {all}, threads, single);
  std::vector<double> single_ms;
  for (const Answer& a : single) single_ms.push_back(a.latency_ms);

  // The server counters and the OS counters cover both closed-loop passes.
  const serve::MetricsSnapshot s0 = server->snapshot();
  const ProcCounters before = proc_now();
  std::vector<Answer> loop;
  const double wall_off =
      closed_loop(socket, graphs, streams, threads, loop);
  double wall_on = 0.0;
  trace.span("serve.closed_loop", [&] {
    wall_on = closed_loop(socket, graphs, streams, threads, loop);
  });
  const serve::MetricsSnapshot s1 = server->snapshot();
  set_proc_metrics(m, proc_now() - before);
  res.details["proc_wall_s"] = wall_off + wall_on;
  std::vector<double> loop_ms;
  for (const Answer& a : loop) loop_ms.push_back(a.latency_ms);

  m.set("serve.wire_ms", median(single_ms) - median(staged_ms), "ms");
  m.set("serve.queue_wait_ms", median(loop_ms) - median(single_ms), "ms");
  m.set("trace.overhead_ratio", wall_on / wall_off, "ratio");
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  const double requests = static_cast<double>(loop.size());
  m.set("serve.batches", delta(s1.batches, s0.batches), "count");
  m.set("serve.coalesced", delta(s1.coalesced, s0.coalesced), "count");
  m.set("serve.coalesce_ratio", delta(s1.coalesced, s0.coalesced) / requests,
        "ratio");
  m.set("serve.cold_loads", delta(s1.cold_loads, s0.cold_loads), "count");
  m.set("serve.warm_hits", delta(s1.warm_hits, s0.warm_hits), "count");
  m.set("serve.evictions", delta(s1.evictions, s0.evictions), "count");
  m.set("serve.rejected",
        delta(s1.rejected_overload + s1.rejected_deadline + s1.errors,
              s0.rejected_overload + s0.rejected_deadline + s0.errors),
        "count");
  answers = single;
  answers.insert(answers.end(), loop.begin(), loop.end());
  verify();

  // Per-layer calls on the first graph: every supported pair, each
  // request-shaped unit rebuilt per trial as the server does.
  std::vector<double> cold;
  for (int i = 0; i < 3; ++i) {
    cold.push_back(cold_prepare(graphs[0], opt.work_dir / "cold-prepare",
                                trace));
  }
  fs::remove_all(opt.work_dir / "cold-prepare");
  m.set("harness.prepare_cold_s", median(cold), "s");
  std::vector<double> warm;
  harness::PreparedDataset prep;
  for (int i = 0; i < 3; ++i) {
    warm.push_back(trace.span("harness.prepare_dataset.warm", [&] {
      prep = harness::prepare_dataset(graphs[0], dataset);
    }));
  }
  m.set("harness.prepare_warm_s", median(warm), "s");
  measure_dataset_layers(graphs[0], opt.work_dir, 3, trace, res);
  harness::ExperimentConfig cfg = request_config(graphs[0], Req{}, threads);
  cfg.systems = every_system();
  cfg.algorithms = {Algorithm::kBfs, Algorithm::kSssp, Algorithm::kPageRank};
  cfg.num_roots = 4;
  measure_system_layers(cfg, prep, trace, res);
  server->stop();
  trace.write_chrome_trace(opt.work_dir / "trace.json");
  return res;
}

}  // namespace perfbench
