// Shared pieces of the ppatc benchmark harness: the workload interface, the
// output fingerprint, the harness's own layer spans and a small JSON writer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "ppatc/obs/trace.hpp"
#include "ppatc/workloads/workload.hpp"

namespace perfbench {

// ---- clocks ----------------------------------------------------------------

/// CLOCK_MONOTONIC in ns: the same clock as Python's time.monotonic_ns(), so
/// run.py can pass the moment it spawned this process.
[[nodiscard]] std::int64_t monotonic_ns();
/// CPU time of the calling thread, in ns.
[[nodiscard]] double thread_cpu_ns();
/// User + system CPU time of the whole process, in ns.
[[nodiscard]] double process_cpu_ns();

// ---- seeded inputs ---------------------------------------------------------

/// Counter-based stream (splitmix64), the same on every platform and library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_{seed} {}
  [[nodiscard]] std::uint64_t next();
  /// Uniform in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi);
  /// Uniform in [0, n).
  [[nodiscard]] std::size_t index(std::size_t n);

 private:
  std::uint64_t state_;
};

// ---- outputs ---------------------------------------------------------------

/// Hash (splitmix64 chain) of the bit patterns of an op's outputs. The program
/// promises bit-identical results at any thread count, so fingerprints
/// compare exactly.
class Fingerprint {
 public:
  void add(std::uint64_t v);
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(std::string_view s);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0;
};

/// What one op produced: its fingerprint and any failed output check.
struct OpOutcome {
  std::uint64_t fingerprint = 0;
  std::vector<std::string> errors;
};

/// One named workload. An op is the unit the benchmark times; inputs are
/// fixed at construction from the seed, so ops with the same cycle index
/// must reproduce the same fingerprint.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Runs op `index`. Throws what the program throws.
  virtual OpOutcome op(std::size_t index) = 0;
  /// Ops with indices equal modulo cycle() use the same inputs. Timed and
  /// traced phases run whole cycles, so per-op counts repeat exactly.
  [[nodiscard]] virtual std::size_t cycle() const { return 1; }
  /// Checks made outside the timed window, after the ops.
  virtual void final_checks(std::vector<std::string>& errors) { (void)errors; }
  /// max |value / paper - 1| over the paper anchors the last op computed.
  [[nodiscard]] double paper_max_rel_dev() const { return paper_dev_; }
  /// Kernels the op runs on the ISS (empty when it runs none).
  [[nodiscard]] virtual std::vector<ppatc::workloads::Workload> kernels() const = 0;
  /// Distinct bit cells the op asks memsys to characterize.
  [[nodiscard]] virtual std::size_t distinct_cells() const = 0;
  /// tcdp_map points one op computes.
  [[nodiscard]] virtual std::uint64_t map_points_per_op() const = 0;
  /// The seed-drawn inputs, as a JSON object.
  [[nodiscard]] virtual std::string describe() const = 0;

 protected:
  double paper_dev_ = 0.0;
};

/// Builds the named workload ("paper", "sweep" or "uncertainty"), reading
/// the golden manifests under `root`/bench/golden. Throws on an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      const std::string& root);

// ---- harness spans ---------------------------------------------------------

/// Ids of the spans the harness opens around its calls into the program.
/// Some share a name with a span the program opens itself (carbon.tcdp_map),
/// so the analysis tells the two apart by id. Main thread only.
std::unordered_set<std::uint64_t>& harness_span_ids();

/// Calls `f` inside an obs::Span named `name` (<module>.<function>).
template <class F>
decltype(auto) layer(const char* name, F&& f) {
  const ppatc::obs::Span span{name};
  if (span.id() != 0) harness_span_ids().insert(span.id());
  return f();
}

// ---- JSON ------------------------------------------------------------------

/// Flat JSON object writer; values are numbers, strings or pre-rendered JSON.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v);
  JsonObject& str(const std::string& key, const std::string& v);
  JsonObject& raw(const std::string& key, std::string json);
  [[nodiscard]] std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

[[nodiscard]] std::string json_string(std::string_view s);
/// Appends `item` to a JSON array or object under construction ("[" or "{"
/// so far, closed by the caller), with a comma after the first item.
void json_append(std::string& open, const std::string& item);

// ---- traced run ------------------------------------------------------------

struct LayerReport {
  std::map<std::string, double> metrics;  ///< per-layer metric name -> value
  std::string self_time_json;             ///< [{span, origin, count, total_ms, self_ms, ...}]
  std::string self_time_text;             ///< the same, as a table
};

/// Per-layer metrics of a traced phase of `ops` ops, from the obs spans and
/// counters it recorded. `threads` is the pool size.
[[nodiscard]] LayerReport analyze_trace(const Workload& workload, std::size_t ops,
                                        std::size_t threads);

/// The per-layer unit-cost probes, run at one thread so CPU per unit is the
/// calling thread's CPU time. Adds the probe metrics to `report` and returns
/// the probe table as JSON and text.
std::pair<std::string, std::string> run_probes(const Workload& workload, LayerReport& report,
                                               std::size_t threads);

}  // namespace perfbench
