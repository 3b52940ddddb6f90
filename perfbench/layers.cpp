// Per-layer metrics: the traced phase's spans and counters reduced to one
// number per layer, and the unit-cost probes.
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>

#include "harness.hpp"
#include "ppatc/carbon/isoline.hpp"
#include "ppatc/carbon/uncertainty.hpp"
#include "ppatc/core/optimize.hpp"
#include "ppatc/device/library.hpp"
#include "ppatc/device/vs_model.hpp"
#include "ppatc/isa/assembler.hpp"
#include "ppatc/isa/cpu.hpp"
#include "ppatc/memsys/bitcell.hpp"
#include "ppatc/obs/metrics.hpp"
#include "ppatc/runtime/parallel.hpp"
#include "ppatc/synth/m0.hpp"

namespace perfbench {

namespace {

using namespace ppatc;
namespace cb = ppatc::carbon;
using Interval = std::pair<std::uint64_t, std::uint64_t>;

// Total length of the union of [start, end) intervals.
std::uint64_t union_ns(std::vector<Interval> iv) {
  std::sort(iv.begin(), iv.end());
  std::uint64_t total = 0;
  std::uint64_t cur_start = 0;
  std::uint64_t cur_end = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (!open || s > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
      open = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct NameStats {
  std::uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
};

}  // namespace

LayerReport analyze_trace(const Workload& workload, std::size_t ops, std::size_t threads) {
  const std::vector<obs::SpanRecord> spans = obs::trace_snapshot();
  const obs::MetricsSnapshot counters = obs::metrics_snapshot();
  const auto& harness = harness_span_ids();

  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i) children[spans[i].parent].push_back(i);

  // Self time: the span's duration minus what its children cover. Children
  // may run concurrently on pool workers, so their intervals are unioned.
  std::map<std::string, NameStats> program_stats;
  std::map<std::string, NameStats> harness_stats;
  std::vector<Interval> program_iv;
  std::vector<Interval> carbon_iv;
  double op_wall_ns = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const obs::SpanRecord& s = spans[i];
    const std::uint64_t end = s.start_ns + s.dur_ns;
    std::vector<Interval> kids;
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const std::size_t k : it->second) {
        const obs::SpanRecord& c = spans[k];
        kids.emplace_back(std::clamp(c.start_ns, s.start_ns, end),
                          std::clamp(c.start_ns + c.dur_ns, s.start_ns, end));
      }
    }
    const bool is_harness = harness.count(s.id) != 0;
    NameStats& st = (is_harness ? harness_stats : program_stats)[s.name];
    ++st.count;
    st.total_ns += static_cast<double>(s.dur_ns);
    st.self_ns += static_cast<double>(s.dur_ns - std::min(s.dur_ns, union_ns(std::move(kids))));
    if (is_harness && s.name == "bench.op") op_wall_ns += static_cast<double>(s.dur_ns);
    if (!is_harness) program_iv.emplace_back(s.start_ns, end);
    if (s.name.rfind("carbon.", 0) == 0) carbon_iv.emplace_back(s.start_ns, end);
  }

  const auto prog = [&](const char* name) {
    const auto it = program_stats.find(name);
    return it == program_stats.end() ? NameStats{} : it->second;
  };
  const auto harn = [&](const char* name) {
    const auto it = harness_stats.find(name);
    return it == harness_stats.end() ? NameStats{} : it->second;
  };
  const auto counter = [&](const char* name) {
    return static_cast<double>(counters.counter_or(name));
  };
  const double n = static_cast<double>(ops);
  const double characterize_calls = static_cast<double>(prog("memsys.characterize").count);

  LayerReport r;
  auto& m = r.metrics;
  // isa, workloads. Without a span of its own in the program, the ISS shows
  // as self time of the harness spans that run it: run_workload, table2 and
  // the part of optimize before its pool phase.
  m["isa.blocks_per_op"] = (counter("isa.decoded_blocks") + counter("isa.decoded_block_hits")) / n;
  m["workloads.run_ms_per_op"] = harn("workloads.run_workload").self_ns / n * 1e-6;
  m["core.table2_self_ms"] = harn("core.table2").self_ns / n * 1e-6;
  m["isa.op_wall_frac"] = ratio(harn("workloads.run_workload").self_ns +
                                    harn("core.table2").self_ns + harn("core.optimize").self_ns,
                                op_wall_ns);
  // memsys, spice.
  m["memsys.characterize_per_op"] = characterize_calls / n;
  m["memsys.characterize_ms"] =
      ratio(prog("memsys.characterize").total_ns * 1e-6, characterize_calls);
  // The numerator is the harness's fixed count of the cells an op asks for,
  // not a count the program records.
  m["memsys.useful_frac"] =
      ratio(static_cast<double>(workload.distinct_cells()), characterize_calls / n);
  m["memsys.worker_busy_frac"] =
      ratio(prog("memsys.characterize").total_ns, counter("runtime.worker_busy_ns"));
  m["spice.newton_iterations_per_op"] = counter("spice.newton_iterations") / n;
  m["spice.transient_steps_per_op"] = counter("spice.transient_steps") / n;
  m["spice.pattern_hit_frac"] =
      ratio(counter("spice.sparse_pattern_cache_hits"),
            counter("spice.sparse_pattern_cache_hits") + counter("spice.sparse_symbolic_rebuilds"));
  m["spice.nonconvergence_per_op"] = counter("spice.newton_nonconvergence") / n;
  m["spice.ms_per_op"] = (prog("spice.transient").self_ns + prog("spice.dc").self_ns) / n * 1e-6;
  // carbon.
  const double carbon_ns = static_cast<double>(union_ns(carbon_iv));
  m["carbon.mc_samples_per_s"] =
      ratio(counter("carbon.mc_samples"), prog("carbon.monte_carlo").total_ns * 1e-9);
  m["carbon.map_points_per_s"] = ratio(static_cast<double>(workload.map_points_per_op()) * n,
                                       prog("carbon.tcdp_map").total_ns * 1e-9);
  m["carbon.bisection_iterations_per_op"] = counter("carbon.bisection_iterations") / n;
  m["carbon.ms_per_op"] = carbon_ns / n * 1e-6;
  m["carbon.op_wall_frac"] = ratio(carbon_ns, op_wall_ns);
  // core.
  m["core.points_per_op"] = counter("core.points_evaluated") / n;
  m["core.ms_per_point"] =
      ratio(prog("core.optimize").total_ns * 1e-6, counter("core.points_evaluated"));
  m["core.infeasible_per_op"] = counter("core.contract_violations") / n;
  // runtime.
  m["runtime.busy_frac"] =
      ratio(counter("runtime.worker_busy_ns"), static_cast<double>(threads) * op_wall_ns);
  m["runtime.queue_wait_ms_per_op"] = counter("runtime.queue_wait_ns") / n * 1e-6;
  m["runtime.batches_per_op"] = counter("runtime.batches") / n;
  m["runtime.inline_batches_per_op"] = counter("runtime.inline_batches") / n;
  m["runtime.chunks_per_op"] = counter("runtime.chunks_executed") / n;
  // obs: how much of the op wall the program's own spans account for.
  m["obs.span_coverage_frac"] = ratio(static_cast<double>(union_ns(program_iv)), op_wall_ns);

  // Self-time table, program spans first, harness spans marked.
  std::string json = "[";
  char line[200];
  std::snprintf(line, sizeof line, "%-34s %-8s %8s %12s %12s %8s\n", "span", "origin", "count",
                "total_ms", "self_ms", "self/op");
  r.self_time_text = line;
  for (const auto* table : {&program_stats, &harness_stats}) {
    const char* origin = table == &program_stats ? "program" : "harness";
    for (const auto& [name, st] : *table) {
      JsonObject o;
      o.str("span", name).str("origin", origin).num("count", static_cast<double>(st.count));
      o.num("total_ms", st.total_ns * 1e-6).num("self_ms", st.self_ns * 1e-6);
      o.num("self_ms_per_op", st.self_ns * 1e-6 / n);
      json_append(json, o.dump());
      std::snprintf(line, sizeof line, "%-34s %-8s %8llu %12.3f %12.3f %8.3f\n", name.c_str(),
                    origin, static_cast<unsigned long long>(st.count), st.total_ns * 1e-6,
                    st.self_ns * 1e-6, st.self_ns * 1e-6 / n);
      r.self_time_text += line;
    }
  }
  r.self_time_json = json + "]";
  return r;
}

namespace {

struct Probe {
  const char* stage;   ///< one unit of work
  const char* metric;  ///< per-layer metric the unit cost corresponds to
  double cpu_ns = 0.0;
  double units = 0.0;
  [[nodiscard]] double ns_per_unit() const { return ratio(cpu_ns, units); }
};

template <class F>
void measure(Probe& p, F&& work) {
  const double t0 = thread_cpu_ns();
  p.units += work();
  p.cpu_ns += thread_cpu_ns() - t0;
}

// Representative carbon profiles (the paper's Table II designs). Monte-Carlo
// and map cost do not depend on the values.
cb::SystemCarbonProfile probe_profile(double embodied_g, double power_mw) {
  cb::SystemCarbonProfile p;
  p.embodied_per_good_die = units::grams_co2e(embodied_g);
  p.operational_power = units::milliwatts(power_mw);
  p.execution_time = units::milliseconds(40.1);
  return p;
}

}  // namespace

std::pair<std::string, std::string> run_probes(const Workload& workload, LayerReport& report,
                                               std::size_t threads) {
  runtime::set_thread_count(1);
  volatile double sink = 0.0;
  Probe fet{"one FET evaluation", "device.fet_eval_ns"};
  Probe insn{"one ISS instruction", "isa.insn_per_s"};
  Probe assemble{"one assembly", "isa.assemble_us"};
  Probe cell{"one cell characterization", "memsys.characterize_ms"};
  Probe synth{"one synthesis", "synth.synthesize_us"};
  Probe mc{"one Monte-Carlo sample", "carbon.mc_samples_per_s"};
  Probe map{"one map point", "carbon.map_points_per_s"};
  Probe point{"one optimize point", "core.ms_per_point"};

  std::vector<device::VsParams> cards;
  for (const auto pol : {device::Polarity::kNmos, device::Polarity::kPmos}) {
    for (const auto vt : {device::VtFlavor::kHvt, device::VtFlavor::kRvt, device::VtFlavor::kLvt,
                          device::VtFlavor::kSlvt}) {
      cards.push_back(device::silicon_finfet(pol, vt));
    }
    cards.push_back(device::cnfet(pol));
  }
  cards.push_back(device::igzo_fet());
  for (const auto& card : cards) {
    const device::VirtualSourceFet f{card, 1.0};
    measure(fet, [&] {
      double acc = 0.0;
      for (int rep = 0; rep < 20; ++rep) {
        for (int i = 0; i <= 40; ++i) {
          for (int j = 0; j <= 40; ++j) acc += f.drain_current_per_um(0.02 * i, 0.02 * j);
        }
      }
      sink = sink + acc;
      return 20.0 * 41 * 41;
    });
  }

  std::vector<workloads::Workload> kernels = workload.kernels();
  if (kernels.empty()) kernels = workloads::embench_suite();
  for (const auto& k : kernels) {
    measure(assemble, [&] {
      for (int rep = 0; rep < 5; ++rep) sink = sink + isa::assemble(k.assembly).bytes.size();
      return 5.0;
    });
    const isa::Program program = isa::assemble(k.assembly);
    isa::Bus bus;
    bus.load_program(0, program.bytes);
    isa::Cpu cpu{bus};
    cpu.reset(program.entry, isa::kDataBase + isa::kDataSize - 16);
    measure(insn, [&] {
      const auto run = cpu.run(k.instruction_budget);
      if (!run.halted) throw std::runtime_error("probe kernel did not halt: " + k.name);
      return static_cast<double>(run.instructions);
    });
  }

  for (const auto& c : {memsys::all_si_cell(), memsys::m3d_igzo_cnfet_cell()}) {
    measure(cell, [&] {
      sink = sink + units::in_seconds(memsys::characterize(c).write_delay);
      return 1.0;
    });
  }

  const core::DesignSpace space;
  std::vector<synth::M0Model> models;
  for (const auto vt : space.vt_flavors) {
    synth::M0Options o;
    o.vt = vt;
    models.emplace_back(o);
  }
  measure(synth, [&] {
    double calls = 0.0;
    for (int rep = 0; rep < 20; ++rep) {
      for (const auto& model : models) {
        for (const auto f : space.clocks) {
          sink = sink + units::in_joules(model.synthesize(f).energy_per_cycle);
          ++calls;
        }
      }
    }
    return calls;
  });

  const cb::SystemCarbonProfile si = probe_profile(3.11, 9.71);
  const cb::SystemCarbonProfile m3d = probe_profile(3.63, 8.46);
  cb::UncertainProfile usi;
  usi.embodied_per_good_die_g = cb::Interval::factor(3.11, 1.2);
  usi.operational_power_w = cb::Interval::point(9.71e-3);
  usi.execution_time = si.execution_time;
  cb::UncertainProfile um3d = usi;
  um3d.embodied_per_good_die_g = cb::Interval::factor(3.63, 1.2);
  um3d.operational_power_w = cb::Interval::point(8.46e-3);
  cb::UncertainScenario uscen;
  uscen.ci_use_g_per_kwh = cb::Interval::factor(380.0, 3.0);
  uscen.lifetime_months = cb::Interval::plus_minus(24.0, 6.0);
  measure(mc, [&] {
    sink = sink + cb::monte_carlo_tcdp_ratio(um3d, usi, uscen, 100000, 1).mean;
    return 100000.0;
  });
  const cb::AxisSpec axis{0.25, 4.0, 128};
  measure(map, [&] {
    const auto m =
        cb::tcdp_map(m3d, si, cb::OperationalScenario{}, units::months(24.0), axis, axis);
    sink = sink + m.ratio[0][0];
    return 128.0 * 128.0;
  });

  core::DesignSpace small;
  small.vt_flavors = {device::VtFlavor::kRvt};
  small.clocks = {units::megahertz(400), units::megahertz(500)};
  const workloads::Workload edn = workloads::edn();
  measure(point, [&] {
    const auto res = core::optimize(small, edn, core::OptimizationGoal{});
    return static_cast<double>(res.all_points.size());
  });
  runtime::set_thread_count(threads);

  // Each probe in the unit of its per-layer metric. The first four probes are
  // those metrics; the others come from the traced ops, and the probe value
  // stands beside them.
  struct Row {
    const Probe* probe;
    double value;
    bool is_metric;
  };
  const Row table[] = {{&fet, fet.ns_per_unit(), true},
                       {&insn, ratio(1e9, insn.ns_per_unit()), true},
                       {&assemble, assemble.ns_per_unit() * 1e-3, true},
                       {&synth, synth.ns_per_unit() * 1e-3, true},
                       {&cell, cell.ns_per_unit() * 1e-6, false},
                       {&mc, ratio(1e9, mc.ns_per_unit()), false},
                       {&map, ratio(1e9, map.ns_per_unit()), false},
                       {&point, point.ns_per_unit() * 1e-6, false}};
  std::string json = "[";
  char line[200];
  std::snprintf(line, sizeof line, "%-28s %-26s %14s %14s %14s\n", "unit of work", "metric",
                "cpu_ns/unit", "probe value", "traced ops");
  std::string text = line;
  for (const Row& row : table) {
    const Probe& p = *row.probe;
    if (row.is_metric) report.metrics[p.metric] = row.value;
    JsonObject o;
    o.str("unit_of_work", p.stage).str("metric", p.metric);
    o.num("cpu_ns_per_unit", p.ns_per_unit()).num("units", p.units).num("probe_value", row.value);
    json_append(json, o.dump());
    char traced[32] = "-";
    if (!row.is_metric) std::snprintf(traced, sizeof traced, "%.6g", report.metrics[p.metric]);
    std::snprintf(line, sizeof line, "%-28s %-26s %14.1f %14.6g %14s\n", p.stage, p.metric,
                  p.ns_per_unit(), row.value, traced);
    text += line;
  }
  return {json + "]", text};
}

}  // namespace perfbench
