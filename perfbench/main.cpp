// ppatc benchmark harness: runs one named workload in-process over repeated
// ops and prints one JSON line of raw measurements on stdout; progress and
// tables go to stderr. perfbench/run.py builds it, starts it and turns the
// measurements into the benchmark's metrics (see perfbench/README.md).
//
//   ppatc_perfbench --workload <paper|sweep|uncertainty> --seed <n>
//                   --mode <cold|run|trace> [--seconds <s>]
//                   [--op-index <i>] [--t0-ns <ns>] [--root <dir>] [--out <dir>]
//
//   cold   set up, run op <i> once, report set-up time and the op's wall time.
//   run    set up, warm up, time whole cycles of ops for --seconds, then check
//          the outputs and recompute one op at one thread.
//   trace  as run, but every other cycle of ops runs with obs tracing and
//          metrics on; reports the per-layer metrics and writes the Chrome
//          trace, the self-time table and the unit-cost probe table to --out.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"
#include "ppatc/common/contract.hpp"
#include "ppatc/obs/metrics.hpp"
#include "ppatc/obs/trace.hpp"
#include "ppatc/runtime/parallel.hpp"
#include "ppatc/spice/simulator.hpp"

namespace {

using namespace perfbench;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  std::string mode = "run";
  double seconds = 10.0;
  std::size_t op_index = 0;
  std::int64_t t0_ns = 0;
  std::string root = ".";
  std::string out = ".";
};

[[noreturn]] void fail(const std::string& message, int code = 2) {
  std::fprintf(stderr, "ppatc_perfbench: %s\n", message.c_str());
  std::exit(code);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) fail("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") o.workload = v;
      else if (flag == "--seed") o.seed = std::stoull(v);
      else if (flag == "--mode") o.mode = v;
      else if (flag == "--seconds") o.seconds = std::stod(v);
      else if (flag == "--op-index") o.op_index = std::stoul(v);
      else if (flag == "--t0-ns") o.t0_ns = std::stoll(v);
      else if (flag == "--root") o.root = v;
      else if (flag == "--out") o.out = v;
      else fail("unknown flag " + flag);
    } catch (const std::logic_error&) {
      fail("bad value for " + flag + ": " + v);
    }
  }
  if (o.mode != "cold" && o.mode != "run" && o.mode != "trace") fail("unknown mode " + o.mode);
  if (!(o.seconds > 0.0)) fail("--seconds must be positive");
  return o;
}

// The build guard: timings from an unoptimized or instrumented build say
// nothing about the program users run.
void refuse_unrepresentative_build() {
#ifndef NDEBUG
  fail("refusing to report numbers: this build does not define NDEBUG "
       "(CMAKE_BUILD_TYPE=" PERFBENCH_BUILD_TYPE "); configure with -DCMAKE_BUILD_TYPE=Release",
       3);
#endif
#if PERFBENCH_SANITIZED || defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  fail("refusing to report numbers: this is a sanitizer build; configure without PPATC_ASAN, "
       "PPATC_TSAN, PPATC_UBSAN and -fsanitize flags",
       3);
#endif
}

// Op accounting: a ContractViolation or ConvergenceError that escapes an op,
// a failed output check, or a fingerprint that differs from an earlier op
// with the same inputs all make a failed op.
struct Ledger {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::size_t, std::uint64_t> fingerprints;  ///< by index mod cycle

  void error(const std::string& e) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
    if (errors.size() < 20) errors.push_back(e);
  }
};

std::uint64_t run_op(Workload& w, std::size_t index, Ledger& ledger) {
  ++ledger.attempted;
  OpOutcome out;
  try {
    out = layer("bench.op", [&] { return w.op(index); });
  } catch (const ppatc::ContractViolation& e) {
    out.errors.push_back(std::string{"ContractViolation: "} + e.what());
  } catch (const ppatc::spice::ConvergenceError& e) {
    out.errors.push_back(std::string{"ConvergenceError: "} + e.what());
  }
  if (out.errors.empty()) {
    const auto [it, first] = ledger.fingerprints.emplace(index % w.cycle(), out.fingerprint);
    if (!first && it->second != out.fingerprint) {
      out.errors.push_back("op " + std::to_string(index) +
                           ": output differs from an earlier op with the same inputs");
    }
  }
  if (!out.errors.empty()) ++ledger.failed;
  for (const auto& e : out.errors) ledger.error(e);
  return out.fingerprint;
}

struct Phase {
  std::vector<double> op_ms;      ///< untraced ops
  std::vector<double> traced_ms;  ///< ops run with obs tracing and metrics on
  double wall_s = 0.0;
  double cpu_ms = 0.0;
};

// Times whole cycles of ops until `seconds` have passed and at least
// `min_ops` ran. With `interleave_traced`, every other cycle runs with obs
// tracing and metrics on, so traced and untraced ops see the same host
// conditions and their difference is the tracing overhead.
Phase timed_phase(Workload& w, double seconds, std::size_t min_ops, bool interleave_traced,
                  Ledger& ledger) {
  Phase p;
  const std::size_t period = interleave_traced ? 2 * w.cycle() : w.cycle();
  const double cpu0 = process_cpu_ns();
  const std::int64_t start = monotonic_ns();
  std::int64_t now = start;
  for (std::size_t i = 0;
       i % period != 0 || i < min_ops || static_cast<double>(now - start) < seconds * 1e9; ++i) {
    const bool traced = interleave_traced && (i / w.cycle()) % 2 == 1;
    ppatc::obs::set_metrics_enabled(traced);
    ppatc::obs::set_tracing_enabled(traced);
    const std::int64_t t0 = monotonic_ns();
    run_op(w, i, ledger);
    now = monotonic_ns();
    ppatc::obs::set_tracing_enabled(false);
    ppatc::obs::set_metrics_enabled(false);
    (traced ? p.traced_ms : p.op_ms).push_back(static_cast<double>(now - t0) * 1e-6);
  }
  p.wall_s = static_cast<double>(now - start) * 1e-9;
  p.cpu_ms = (process_cpu_ns() - cpu0) * 1e-6;
  return p;
}

// Outputs must not depend on the pool size: recompute op 0 at one thread.
void thread_count_check(Workload& w, std::size_t threads, Ledger& ledger) {
  const std::uint64_t expected = ledger.fingerprints[0];
  ppatc::runtime::set_thread_count(1);
  Ledger single;
  const std::uint64_t got = run_op(w, 0, single);
  ppatc::runtime::set_thread_count(threads);
  ++ledger.attempted;
  if (single.failed != 0 || got != expected) {
    ++ledger.failed;
    ledger.error("op 0 at 1 thread differs from the timed run at " + std::to_string(threads) +
                 " threads");
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string json_array(const std::vector<double>& v) {
  std::string s = "[";
  char buf[32];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.6f", i == 0 ? "" : ",", v[i]);
    s += buf;
  }
  return s + "]";
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f{path};
  f << text;
  if (!f) fail("cannot write " + path);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  refuse_unrepresentative_build();
  std::unique_ptr<Workload> workload;
  try {
    workload = make_workload(opt.workload, opt.seed, opt.root);
  } catch (const std::exception& e) {
    fail(std::string{"set-up failed: "} + e.what());
  }
  Workload& w = *workload;
  const std::size_t threads = ppatc::runtime::thread_count();
  const double setup_s =
      opt.t0_ns > 0 ? static_cast<double>(monotonic_ns() - opt.t0_ns) * 1e-9 : 0.0;

  Ledger ledger;
  JsonObject result;
  result.str("workload", opt.workload).str("mode", opt.mode);
  result.num("seed", static_cast<double>(opt.seed)).num("threads", static_cast<double>(threads));
#ifdef __clang__
  result.str("build_type", PERFBENCH_BUILD_TYPE).str("compiler", "clang " __clang_version__);
#else
  result.str("build_type", PERFBENCH_BUILD_TYPE).str("compiler", "gcc " __VERSION__);
#endif
  result.num("setup_s", setup_s);

  if (opt.mode == "cold") {
    const std::int64_t t0 = monotonic_ns();
    const std::uint64_t fp = run_op(w, opt.op_index, ledger);
    result.num("cold_op_ms", static_cast<double>(monotonic_ns() - t0) * 1e-6);
    result.str("fingerprint", hex(fp));
  } else {
    run_op(w, 0, ledger);  // warm-up: lazy set-up and caches, outside the timing
    const bool traced = opt.mode == "trace";
    if (traced) {
      ppatc::obs::reset_metrics();
      ppatc::obs::reset_trace();
      harness_span_ids().clear();
    }
    const Phase phase = timed_phase(w, opt.seconds, traced ? 2 * w.cycle() : 20, traced, ledger);
    result.raw("op_ms", json_array(phase.op_ms));
    result.num("phase_s", phase.wall_s).num("phase_cpu_ms", phase.cpu_ms);
    if (traced) {
      LayerReport report = analyze_trace(w, phase.traced_ms.size(), threads);
      report.metrics["obs.trace_overhead_frac"] =
          median(phase.traced_ms) / median(phase.op_ms) - 1.0;
      ppatc::obs::write_trace(opt.out + "/trace.json");
      const auto [probe_json, probe_text] = run_probes(w, report, threads);
      write_file(opt.out + "/selftime.txt", report.self_time_text);
      write_file(opt.out + "/probes.txt", probe_text);
      std::fprintf(stderr, "\nself time per span (%zu traced ops)\n%s", phase.traced_ms.size(),
                   report.self_time_text.c_str());
      std::fprintf(stderr, "\nunit-cost probes (1 thread, CPU time of the calling thread)\n%s",
                   probe_text.c_str());
      JsonObject layers;
      for (const auto& [name, v] : report.metrics) layers.num(name, v);
      result.raw("per_layer", layers.dump());
      result.raw("traced_op_ms", json_array(phase.traced_ms));
      result.raw("self_time", report.self_time_json).raw("probes", probe_json);
    }
    // The checks outside the timed window count as one more attempted op.
    std::vector<std::string> final_errors;
    ++ledger.attempted;
    try {
      w.final_checks(final_errors);
    } catch (const std::exception& e) {
      final_errors.push_back(std::string{"final checks: "} + e.what());
    }
    if (!final_errors.empty()) ++ledger.failed;
    for (const auto& e : final_errors) ledger.error(e);
    thread_count_check(w, threads, ledger);
    result.str("fingerprint", hex(ledger.fingerprints[0]));
  }
  std::string fingerprints = "{";
  for (const auto& [i, fp] : ledger.fingerprints) {
    json_append(fingerprints, json_string(std::to_string(i)) + ":" + json_string(hex(fp)));
  }
  result.raw("fingerprints", fingerprints + "}");
  result.num("paper_max_rel_dev", w.paper_max_rel_dev()).num("peak_rss_mib", peak_rss_mib());
  result.num("attempted", static_cast<double>(ledger.attempted));
  result.num("failed", static_cast<double>(ledger.failed));
  std::string errors = "[";
  for (const auto& e : ledger.errors) json_append(errors, json_string(e));
  result.raw("errors", errors + "]").raw("inputs", w.describe());
  std::printf("%s\n", result.dump().c_str());
  return 0;
}
