// perfbench: run one workload and print its result as one JSON line.
//
//   perfbench --workload sweep-traversal|sweep-pagerank|serve-mix
//             --seed N --seconds S --trace 0|1 --work-dir DIR [--self-check]
//   perfbench --fingerprint
//
// run.py builds this binary and wraps its output into the benchmark's
// result line; run it directly only to debug one workload.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef NDEBUG
constexpr bool kAsserts = false;
#else
constexpr bool kAsserts = true;
#endif

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += ch;
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Why this build must not record results; empty when it may.
std::string refusal() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (kSanitized) return "sanitizer build";
  if (type == "Debug" || kAsserts) return "Debug build (NDEBUG not defined)";
  return {};
}

std::string build_json() {
  std::ostringstream os;
  os << "{\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
     << ",\"cxx_flags\":" << json_string(PERFBENCH_CXX_FLAGS)
     << ",\"compiler\":" << json_string(PERFBENCH_COMPILER)
     << ",\"compiler_version\":" << json_string(__VERSION__)
     << ",\"sanitized\":" << (kSanitized ? "true" : "false")
     << ",\"asserts\":" << (kAsserts ? "true" : "false")
     << ",\"refusal\":" << json_string(refusal()) << "}";
  return os.str();
}

int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    return static_cast<int>(std::thread::hardware_concurrency());
  }
  return CPU_COUNT(&set);
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--self-check] | --fingerprint\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workload = false, have_dir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--fingerprint") {
        std::cout << build_json() << "\n";
        return 0;
      } else if (a == "--workload") {
        opt.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (a == "--trace") {
        opt.trace = value() != "0";
      } else if (a == "--work-dir") {
        opt.work_dir = value();
        have_dir = true;
      } else if (a == "--self-check") {
        opt.self_check = true;
      } else {
        return usage("unknown argument " + a);
      }
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }
  if (!have_workload || !have_dir) {
    return usage("missing --workload or --work-dir");
  }
  if (const std::string why = refusal(); !why.empty()) {
    std::cerr << "perfbench: refusing to record a " << why << "\n";
    return 3;
  }
  // At most nproc (= 4 on the reference host) threads and connections.
  opt.threads = std::max(1, std::min(4, affinity_cpus()));
  fs::create_directories(opt.work_dir);

  Result res;
  try {
    if (opt.workload == "sweep-traversal" || opt.workload == "sweep-pagerank") {
      res = run_sweep(opt);
    } else if (opt.workload == "serve-mix") {
      res = run_serve_mix(opt);
    } else {
      return usage("unknown workload " + opt.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }

  std::ostringstream os;
  os << "{\"correct\":" << (res.correct ? "true" : "false")
     << ",\"attempted\":" << res.attempted << ",\"failed\":" << res.failed
     << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, vu] : res.metrics.rows()) {
    os << (first ? "" : ",") << json_string(name) << ":{\"value\":"
       << json_number(vu.first) << ",\"unit\":" << json_string(vu.second)
       << "}";
    first = false;
  }
  os << "},\"details\":{";
  first = true;
  for (const auto& [name, v] : res.details) {
    os << (first ? "" : ",") << json_string(name) << ":" << json_number(v);
    first = false;
  }
  os << "},\"problems\":[";
  for (std::size_t i = 0; i < res.problems.size(); ++i) {
    os << (i ? "," : "") << json_string(res.problems[i]);
  }
  os << "],\"threads\":" << opt.threads << ",\"build\":" << build_json()
     << "}";
  std::cout << os.str() << std::endl;
  return 0;
}
