// The three benchmark workloads. Each op calls the program's public API the
// way a user regenerating the paper, sweeping the design space or studying
// uncertainty would, wrapping every layer call in a harness span.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "harness.hpp"
#include "ppatc/carbon/isoline.hpp"
#include "ppatc/carbon/tcdp.hpp"
#include "ppatc/carbon/uncertainty.hpp"
#include "ppatc/common/contract.hpp"
#include "ppatc/core/optimize.hpp"
#include "ppatc/core/system.hpp"
#include "ppatc/memsys/edram.hpp"
#include "ppatc/obs/report.hpp"
#include "ppatc/runtime/parallel.hpp"

namespace perfbench {

namespace {

using namespace ppatc;
namespace cb = ppatc::carbon;
using Values = std::map<std::string, double>;

// Manifest keys, as bench_table2 and bench_fig5 record them.
constexpr const char* kDerived = "Sec. III-C derived ratios / ";
constexpr const char* kDominance = "dominance and crossover points / ";
constexpr const char* kRatios =
    "tCDP ratios (all-Si tCDP / M3D tCDP; >1 means M3D is more carbon-efficient) / ";
constexpr const char* kA6 = "A6: Table II memory energies across the Embench-style suite / ";

obs::Manifest read_golden(const std::string& root, const char* file) {
  return obs::read_manifest(root + "/bench/golden/" + file);
}

cb::OperationalScenario us_scenario() {
  cb::OperationalScenario scen;
  scen.use_intensity = cb::DiurnalIntensity::flat(cb::grids::us().intensity);
  return scen;
}

// Table II rows of both systems. With `workload_independent_only`, only the
// rows that do not depend on the program the system runs.
Values table2_values(const core::SystemEvaluation& si, const core::SystemEvaluation& m3d,
                     bool workload_independent_only) {
  Values v;
  for (const core::SystemEvaluation* e : {&si, &m3d}) {
    const std::string col = e->system_name + " / ";
    v[col + "M0 dynamic energy per cycle"] = units::in_picojoules(e->m0_energy_per_cycle);
    v[col + "64 kB memory area footprint"] = units::in_square_millimetres(e->memory_area);
    v[col + "total area footprint (memory + M0)"] = units::in_square_millimetres(e->total_area);
    v[col + "die height"] = units::in_micrometres(e->die_height);
    v[col + "die width"] = units::in_micrometres(e->die_width);
    v[col + "embodied carbon per wafer (U.S. grid)"] =
        units::in_kilograms_co2e(e->embodied_per_wafer);
    v[col + "total die count per 300 mm wafer"] = static_cast<double>(e->dies_per_wafer);
    v[col + "yield (paper's demonstration value)"] = e->yield * 100.0;
    v[col + "embodied carbon per good die"] = units::in_grams_co2e(e->embodied_per_good_die);
    if (!workload_independent_only) {
      v[col + "average memory energy per cycle"] = units::in_picojoules(e->memory_energy_per_cycle);
      v[col + "clock cycles to run matmult-int"] = static_cast<double>(e->cycles);
      v[col + "operational power while running"] = units::in_milliwatts(e->operational_power);
    }
  }
  v[std::string{kDerived} + "all-Si / M3D die area"] = si.total_area / m3d.total_area;
  v[std::string{kDerived} + "good-die ratio (M3D / all-Si)"] =
      (static_cast<double>(m3d.dies_per_wafer) * m3d.yield) /
      (static_cast<double>(si.dies_per_wafer) * si.yield);
  v[std::string{kDerived} + "embodied per good die (M3D / all-Si)"] =
      m3d.embodied_per_good_die / si.embodied_per_good_die;
  return v;
}

// Checks `values` against the golden results at the golden's tolerances.
// With `every_key`, each numeric golden result must also have been computed.
void check_golden(const obs::Manifest& golden, const Values& values, bool every_key,
                  std::vector<std::string>& errors) {
  for (const auto& [key, v] : values) {
    const auto it = golden.results.find(key);
    if (it == golden.results.end()) {
      errors.push_back(golden.artifact + ": no golden result '" + key + "'");
      continue;
    }
    const obs::ManifestResult& g = it->second;
    if (!(std::abs(v - g.value) <= std::max(g.abs_tol, g.rel_tol * std::abs(g.value)))) {
      char buf[160];
      std::snprintf(buf, sizeof buf, ": '%s' = %.17g, golden %.17g", key.c_str(), v, g.value);
      errors.push_back(golden.artifact + buf);
    }
  }
  if (!every_key) return;
  for (const auto& [key, g] : golden.results) {
    if (values.count(key) == 0) errors.push_back(golden.artifact + ": not computed '" + key + "'");
  }
}

// max |value / paper - 1| over the computed keys the golden pins a paper
// value for.
double paper_deviation(const obs::Manifest& golden, const Values& values) {
  double dev = 0.0;
  for (const auto& [key, v] : values) {
    const auto it = golden.results.find(key);
    if (it != golden.results.end() && it->second.has_paper && it->second.paper != 0.0) {
      dev = std::max(dev, std::abs(v / it->second.paper - 1.0));
    }
  }
  return dev;
}

const obs::ManifestResult& golden_result(const obs::Manifest& golden, const std::string& key) {
  const auto it = golden.results.find(key);
  if (it == golden.results.end()) {
    throw std::runtime_error(golden.artifact + ": golden result missing: " + key);
  }
  return it->second;
}

void add_values(Fingerprint& fp, const Values& values) {
  for (const auto& [key, v] : values) {
    fp.add(key);
    fp.add(v);
  }
}

void add_isoline(Fingerprint& fp, const std::vector<cb::IsolinePoint>& line) {
  for (const auto& pt : line) {
    fp.add(pt.embodied_scale);
    fp.add(pt.energy_scale.value_or(-1.0));
  }
}

void add_evaluation(Fingerprint& fp, const core::SystemEvaluation& e) {
  fp.add(e.cycles);
  fp.add(units::in_seconds(e.execution_time));
  fp.add(static_cast<std::uint64_t>(e.memory_timing_met) * 2 + e.m0_timing_met);
  fp.add(units::in_joules(e.m0_energy_per_cycle));
  fp.add(units::in_joules(e.memory_energy_per_cycle));
  fp.add(units::in_watts(e.operational_power));
  fp.add(units::in_square_centimetres(e.memory_area));
  fp.add(units::in_square_centimetres(e.total_area));
  fp.add(units::in_grams_co2e(e.embodied_per_wafer));
  fp.add(static_cast<std::uint64_t>(e.dies_per_wafer));
  fp.add(units::in_grams_co2e(e.embodied_per_good_die));
}

// Uncertain inputs of Fig. 6b around a design point: C_embodied known to
// within x1.2, everything else exact.
cb::UncertainProfile fig6b_profile(const cb::SystemCarbonProfile& p) {
  cb::UncertainProfile u;
  u.embodied_per_good_die_g =
      cb::Interval::factor(units::in_grams_co2e(p.embodied_per_good_die), 1.2);
  u.operational_power_w = cb::Interval::point(units::in_watts(p.operational_power));
  u.execution_time = p.execution_time;
  return u;
}

cb::UncertainScenario fig6b_scenario() {
  cb::UncertainScenario s;
  s.ci_use_g_per_kwh = cb::Interval::factor(380.0, 3.0);
  s.lifetime_months = cb::Interval::plus_minus(24.0, 6.0);
  return s;
}

// ---- paper -----------------------------------------------------------------

// Regenerates Table II and the analyses that consume it: Fig. 5, Fig. 6a,
// Fig. 6b and ablation A6. The seed sets only the Monte-Carlo seed, so every
// other value stays checkable against the committed goldens.
class PaperWorkload final : public Workload {
 public:
  PaperWorkload(std::uint64_t seed, const std::string& root)
      : mc_seed_{seed},
        matmult_{workloads::matmult_int()},
        suite_{workloads::embench_suite()},
        table2_golden_{read_golden(root, "bench_table2.json")},
        fig5_golden_{read_golden(root, "bench_fig5.json")},
        ablation_golden_{read_golden(root, "bench_ablation.json")} {}

  OpOutcome op(std::size_t) override {
    OpOutcome out;
    Fingerprint fp;
    const Duration life = units::months(24.0);
    const core::Table2 t2 = layer("core.table2", [&] { return core::table2(matmult_); });
    const Values t2_values = table2_values(t2.all_si, t2.m3d, false);
    const cb::SystemCarbonProfile si = t2.all_si.carbon_profile();
    const cb::SystemCarbonProfile m3d = t2.m3d.carbon_profile();
    const cb::OperationalScenario scen = us_scenario();

    // Fig. 5.
    Values fig5;
    const auto si_series =
        layer("carbon.lifetime_series", [&] { return cb::lifetime_series(si, scen, 24); });
    const auto m3d_series =
        layer("carbon.lifetime_series", [&] { return cb::lifetime_series(m3d, scen, 24); });
    for (std::size_t i = 0; i < si_series.size() && i < m3d_series.size(); ++i) {
      const std::string month = "month " + std::to_string(i + 1);
      fig5[month + " all-Si tC"] = units::in_grams_co2e(si_series[i].total);
      fig5[month + " M3D tC"] = units::in_grams_co2e(m3d_series[i].total);
      fig5[month + " tCDP ratio M3D/all-Si"] = m3d_series[i].tcdp / si_series[i].tcdp;
    }
    const Duration horizon = units::months(48.0);
    const auto si_dom = layer("carbon.embodied_dominance_end",
                              [&] { return cb::embodied_dominance_end(si, scen, horizon); });
    const auto m3d_dom = layer("carbon.embodied_dominance_end",
                               [&] { return cb::embodied_dominance_end(m3d, scen, horizon); });
    const auto cross = layer("carbon.total_carbon_crossover",
                             [&] { return cb::total_carbon_crossover(m3d, si, scen, horizon); });
    const std::string dominance{kDominance};
    if (si_dom) fig5[dominance + "C_embodied dominates until (all-Si)"] = units::in_months(*si_dom);
    if (m3d_dom) fig5[dominance + "C_embodied dominates until (M3D)"] = units::in_months(*m3d_dom);
    if (cross) fig5[dominance + "tC crossover"] = units::in_months(*cross);
    for (const int m : {1, 18, 24}) {
      const double r = layer("carbon.tcdp_ratio",
                             [&] { return cb::tcdp_ratio(si, m3d, scen, units::months(m)); });
      fig5[std::string{kRatios} + "at " + std::to_string(m) +
           (m == 24 ? " months (headline)" : " months")] = r;
    }
    fig5[std::string{kRatios} + "EDP-ratio limit (lifetime -> infinity)"] = layer(
        "carbon.asymptotic_edp_ratio", [&] { return cb::asymptotic_edp_ratio(si, m3d, scen); });

    // Fig. 6a on the default axes.
    const cb::TcdpMap map =
        layer("carbon.tcdp_map", [&] { return cb::tcdp_map(m3d, si, scen, life); });
    const auto line =
        layer("carbon.tcdp_isoline", [&] { return cb::tcdp_isoline(m3d, si, scen, life); });

    // Fig. 6b.
    const auto variants =
        layer("carbon.isoline_variants", [&] { return cb::isoline_variants(m3d, si, scen, life); });
    const cb::UncertainProfile m3d_u = fig6b_profile(m3d);
    const cb::UncertainProfile si_u = fig6b_profile(si);
    const cb::UncertainScenario uscen = fig6b_scenario();
    const cb::Interval interval = layer(
        "carbon.tcdp_ratio_interval", [&] { return cb::tcdp_ratio_interval(m3d_u, si_u, uscen); });
    const cb::MonteCarloSummary mc = layer("carbon.monte_carlo_tcdp_ratio", [&] {
      return cb::monte_carlo_tcdp_ratio(m3d_u, si_u, uscen, 20000, mc_seed_);
    });

    // Ablation A6: Table II memory energies across the suite.
    Values a6;
    const memsys::EdramBank si_bank =
        layer("memsys.EdramBank", [] { return memsys::EdramBank{memsys::si_bank_config()}; });
    const memsys::EdramBank m3d_bank =
        layer("memsys.EdramBank", [] { return memsys::EdramBank{memsys::m3d_bank_config()}; });
    for (const auto& w : suite_) {
      const workloads::RunOutcome run =
          layer("workloads.run_workload", [&] { return workloads::run_workload(w); });
      if (!run.checksum_ok) out.errors.push_back("checksum mismatch: " + w.name);
      const auto e_si = layer("memsys.memory_energy", [&] {
        return memsys::memory_energy(si_bank, run.stats, run.cycles, units::megahertz(500));
      });
      const auto e_m3d = layer("memsys.memory_energy", [&] {
        return memsys::memory_energy(m3d_bank, run.stats, run.cycles, units::megahertz(500));
      });
      a6[kA6 + w.name + " cycles"] = static_cast<double>(run.cycles);
      a6[kA6 + w.name + " Si memory energy"] = units::in_picojoules(e_si.per_cycle);
      a6[kA6 + w.name + " M3D memory energy"] = units::in_picojoules(e_m3d.per_cycle);
    }

    check_golden(table2_golden_, t2_values, true, out.errors);
    check_golden(fig5_golden_, fig5, true, out.errors);
    check_golden(ablation_golden_, a6, false, out.errors);
    paper_dev_ = std::max(paper_deviation(table2_golden_, t2_values),
                          paper_deviation(fig5_golden_, fig5));

    add_values(fp, t2_values);
    add_values(fp, fig5);
    add_values(fp, a6);
    for (const auto& row : map.ratio) {
      for (const double r : row) fp.add(r);
    }
    add_isoline(fp, line);
    for (const auto& v : variants) {
      fp.add(v.label);
      add_isoline(fp, v.isoline);
    }
    for (const double v : {interval.lo, interval.hi, mc.mean, mc.p05, mc.p50, mc.p95,
                           mc.probability_candidate_wins}) {
      fp.add(v);
    }
    out.fingerprint = fp.value();
    return out;
  }

  std::vector<workloads::Workload> kernels() const override { return suite_; }
  std::size_t distinct_cells() const override { return 2; }
  std::uint64_t map_points_per_op() const override {
    const cb::AxisSpec axis;
    return static_cast<std::uint64_t>(axis.samples) * static_cast<std::uint64_t>(axis.samples);
  }
  std::string describe() const override {
    JsonObject o;
    o.num("monte_carlo_seed", static_cast<double>(mc_seed_));
    o.num("monte_carlo_samples", 20000);
    return o.dump();
  }

 private:
  std::uint64_t mc_seed_;
  workloads::Workload matmult_;
  std::vector<workloads::Workload> suite_;
  obs::Manifest table2_golden_;
  obs::Manifest fig5_golden_;
  obs::Manifest ablation_golden_;
};

// ---- sweep -----------------------------------------------------------------

// core::optimize over the full 2 x 4 x 7 design space for a short kernel.
// The seed shuffles the six kernels and draws a deadline and a lifetime for
// each; op i uses entry i mod 6, so every run covers each kernel equally
// often and runs with different seeds time the same mix.
class SweepWorkload final : public Workload {
 public:
  SweepWorkload(std::uint64_t seed, const std::string& root)
      : seed_{seed}, table2_golden_{read_golden(root, "bench_table2.json")} {
    std::vector<workloads::Workload> kernels{workloads::crc32(),      workloads::edn(),
                                             workloads::aha_mont(),   workloads::sglib_list(),
                                             workloads::statemate(), workloads::qsort_ints()};
    Rng rng{seed};
    for (std::size_t i = kernels.size(); i > 1; --i) {
      std::swap(kernels[i - 1], kernels[rng.index(i)]);
    }
    for (auto& k : kernels) {
      Input in;
      in.kernel = std::move(k);
      in.goal.max_execution_time = units::milliseconds(rng.uniform(1.0, 10.0));
      in.goal.lifetime = units::months(rng.uniform(12.0, 36.0));
      inputs_.push_back(std::move(in));
    }
  }

  OpOutcome op(std::size_t index) override {
    OpOutcome out;
    const Input& in = inputs_[index % inputs_.size()];
    core::OptimizationResult res = layer("core.optimize", [&] {
      return core::optimize(core::DesignSpace{}, in.kernel, in.goal);
    });
    if (res.all_points.size() != 56) {
      out.errors.push_back("expected 56 design points, got " +
                           std::to_string(res.all_points.size()));
    }
    Fingerprint fp;
    fp.add(in.kernel.name);
    const core::DesignPoint* si = nullptr;
    const core::DesignPoint* m3d = nullptr;
    for (const auto& p : res.all_points) {
      fp.add(static_cast<std::uint64_t>(p.spec.tech) * 16 + static_cast<std::uint64_t>(p.spec.vt));
      fp.add(units::in_hertz(p.spec.fclk));
      fp.add(static_cast<std::uint64_t>(p.feasible) * 2 + p.meets_deadline);
      add_evaluation(fp, p.evaluation);
      fp.add(units::in_gco2e_seconds(p.tcdp));
      fp.add(units::in_grams_co2e(p.total_carbon));
      if (p.spec.vt == device::VtFlavor::kRvt && p.spec.fclk == units::megahertz(500)) {
        (p.spec.tech == core::Technology::kAllSi ? si : m3d) = &p;
      }
    }
    for (const auto* list : {&res.ranked, &res.pareto}) {
      fp.add(static_cast<std::uint64_t>(list->size()));
      for (const auto& p : *list) {
        fp.add(units::in_gco2e_seconds(p.tcdp));
        fp.add(units::in_grams_co2e(p.total_carbon));
      }
    }
    // The Table II design points are in the space; their workload-independent
    // rows must match Table II's golden values.
    if (si != nullptr && m3d != nullptr && si->feasible && m3d->feasible) {
      const Values anchors = table2_values(si->evaluation, m3d->evaluation, true);
      check_golden(table2_golden_, anchors, false, out.errors);
      paper_dev_ = paper_deviation(table2_golden_, anchors);
    } else {
      out.errors.push_back("the Table II design points are missing or infeasible");
    }
    last_ = std::move(res);
    last_input_ = index % inputs_.size();
    out.fingerprint = fp.value();
    return out;
  }

  std::size_t cycle() const override { return inputs_.size(); }

  // Re-evaluates a seeded sample of the last op's points one at a time.
  void final_checks(std::vector<std::string>& errors) override {
    const Input& in = inputs_[last_input_];
    const workloads::RunOutcome run = workloads::run_workload(in.kernel);
    Rng rng{runtime::splitmix64(seed_ ^ 0x5eedULL)};
    for (int s = 0; s < 8 && !last_.all_points.empty(); ++s) {
      const core::DesignPoint& p = last_.all_points[rng.index(last_.all_points.size())];
      const std::string where = std::string{core::to_string(p.spec.tech)} + " " +
                                device::to_string(p.spec.vt) + " " +
                                std::to_string(units::in_megahertz(p.spec.fclk)) + " MHz";
      try {
        const core::SystemEvaluation e = core::evaluate_with_outcome(p.spec, in.kernel.name, run);
        Fingerprint a;
        Fingerprint b;
        add_evaluation(a, e);
        add_evaluation(b, p.evaluation);
        const bool feasible = e.memory_timing_met && e.m0_timing_met;
        if (a.value() != b.value() || feasible != p.feasible) {
          errors.push_back("re-evaluation differs at " + where);
        } else if (feasible && (cb::tcdp(e.carbon_profile(), in.goal.scenario, in.goal.lifetime) !=
                                    p.tcdp ||
                                cb::total_carbon(e.carbon_profile(), in.goal.scenario,
                                                 in.goal.lifetime) != p.total_carbon)) {
          errors.push_back("re-evaluated tCDP differs at " + where);
        }
      } catch (const ContractViolation&) {
        if (p.feasible) errors.push_back("re-evaluation failed at feasible point " + where);
      }
    }
  }

  std::vector<workloads::Workload> kernels() const override {
    std::vector<workloads::Workload> k;
    for (const auto& in : inputs_) k.push_back(in.kernel);
    return k;
  }
  // One CellSpec per technology; every point of a technology reuses it.
  std::size_t distinct_cells() const override { return core::DesignSpace{}.technologies.size(); }
  std::uint64_t map_points_per_op() const override { return 0; }
  std::string describe() const override {
    std::string list = "[";
    for (const auto& in : inputs_) {
      JsonObject o;
      o.str("kernel", in.kernel.name);
      o.num("deadline_ms", units::in_seconds(*in.goal.max_execution_time) * 1e3);
      o.num("lifetime_months", units::in_months(in.goal.lifetime));
      json_append(list, o.dump());
    }
    JsonObject o;
    o.raw("inputs", list + "]");
    return o.dump();
  }

 private:
  struct Input {
    workloads::Workload kernel;
    core::OptimizationGoal goal;
  };
  std::uint64_t seed_;
  obs::Manifest table2_golden_;
  std::vector<Input> inputs_;
  core::OptimizationResult last_;
  std::size_t last_input_ = 0;
};

// ---- uncertainty -----------------------------------------------------------

// Carbon-only analyses over 8 design pairs around the paper's Table II:
// Monte Carlo at large n, a fine tCDP map, the isoline and its variants, and
// tC crossovers across grids. Pair 0 is the paper's own Table II; the others
// scale each input by a seed-drawn factor in [0.8, 1.25].
class UncertaintyWorkload final : public Workload {
 public:
  static constexpr std::size_t kPairs = 8;
  static constexpr std::size_t kMcSamples = 250000;
  static constexpr int kMapSamples = 301;

  UncertaintyWorkload(std::uint64_t seed, const std::string& root)
      : seed_{seed}, fig5_golden_{read_golden(root, "bench_fig5.json")} {
    const obs::Manifest t2 = read_golden(root, "bench_table2.json");
    const auto paper_profile = [&](const std::string& system) {
      const auto paper = [&](const std::string& row) {
        return golden_result(t2, system + " / " + row).paper;
      };
      const Frequency fclk = units::megahertz(500);
      cb::SystemCarbonProfile p;
      p.name = system;
      p.embodied_per_good_die = units::grams_co2e(paper("embodied carbon per good die"));
      p.operational_power = units::picojoules(paper("M0 dynamic energy per cycle") +
                                              paper("average memory energy per cycle")) /
                            period(fclk);
      p.execution_time = period(fclk) * paper("clock cycles to run matmult-int");
      return p;
    };
    const cb::SystemCarbonProfile si = paper_profile(core::to_string(core::Technology::kAllSi));
    const cb::SystemCarbonProfile m3d =
        paper_profile(core::to_string(core::Technology::kM3dIgzoCnfetSi));
    Rng rng{seed};
    for (std::size_t k = 0; k < kPairs; ++k) {
      const auto draw = [&](const cb::SystemCarbonProfile& p) {
        if (k == 0) return p;
        cb::SystemCarbonProfile d = p;
        d.embodied_per_good_die = p.embodied_per_good_die * rng.uniform(0.8, 1.25);
        d.operational_power = p.operational_power * rng.uniform(0.8, 1.25);
        d.execution_time = p.execution_time * rng.uniform(0.8, 1.25);
        return d;
      };
      pairs_.push_back({draw(m3d), draw(si)});
    }
  }

  OpOutcome op(std::size_t) override {
    OpOutcome out;
    Fingerprint fp;
    const Duration life = units::months(24.0);
    const cb::OperationalScenario scen = us_scenario();
    const cb::AxisSpec axis{0.25, 4.0, kMapSamples};
    const cb::UncertainScenario uscen = fig6b_scenario();
    for (std::size_t k = 0; k < pairs_.size(); ++k) {
      const cb::SystemCarbonProfile& cand = pairs_[k].first;
      const cb::SystemCarbonProfile& base = pairs_[k].second;
      const cb::MonteCarloSummary mc = layer("carbon.monte_carlo_tcdp_ratio", [&] {
        return cb::monte_carlo_tcdp_ratio(fig6b_profile(cand), fig6b_profile(base), uscen,
                                          kMcSamples, runtime::splitmix64(seed_ ^ k));
      });
      if (!(mc.p05 <= mc.p50 && mc.p50 <= mc.p95)) {
        out.errors.push_back("pair " + std::to_string(k) + ": Monte-Carlo quantiles out of order");
      }
      const cb::TcdpMap map = layer(
          "carbon.tcdp_map", [&] { return cb::tcdp_map(cand, base, scen, life, axis, axis); });
      const auto line = layer("carbon.tcdp_isoline",
                              [&] { return cb::tcdp_isoline(cand, base, scen, life, axis); });
      if (const auto bad = isoline_off_map(map, line)) {
        out.errors.push_back("pair " + std::to_string(k) +
                             ": isoline off the map's ratio = 1 at x = " + std::to_string(*bad));
      }
      const auto variants = layer("carbon.isoline_variants",
                                  [&] { return cb::isoline_variants(cand, base, scen, life); });
      for (const double v : {mc.mean, mc.p05, mc.p50, mc.p95, mc.probability_candidate_wins}) {
        fp.add(v);
      }
      for (const auto& row : map.ratio) {
        for (const double r : row) fp.add(r);
      }
      add_isoline(fp, line);
      for (const auto& v : variants) add_isoline(fp, v.isoline);
      for (const cb::Grid& grid : cb::grids::figure2c()) {
        cb::OperationalScenario g = scen;
        g.use_intensity = cb::DiurnalIntensity::flat(grid.intensity);
        const auto cross = layer("carbon.total_carbon_crossover", [&] {
          return cb::total_carbon_crossover(cand, base, g, units::months(120.0));
        });
        fp.add(cross ? units::in_months(*cross) : -1.0);
      }
    }
    // Fig. 5 anchors from the paper's own Table II inputs (pair 0).
    const cb::SystemCarbonProfile& m3d = pairs_[0].first;
    const cb::SystemCarbonProfile& si = pairs_[0].second;
    Values anchors;
    for (const auto& system : {std::pair{"(all-Si)", &si}, std::pair{"(M3D)", &m3d}}) {
      const auto dom = layer("carbon.embodied_dominance_end", [&] {
        return cb::embodied_dominance_end(*system.second, scen, units::months(48.0));
      });
      if (dom) {
        anchors[std::string{kDominance} + "C_embodied dominates until " + system.first] =
            units::in_months(*dom);
      }
    }
    anchors[std::string{kRatios} + "at 24 months (headline)"] =
        layer("carbon.tcdp_ratio", [&] { return cb::tcdp_ratio(si, m3d, scen, life); });
    if (anchors.size() != 3) out.errors.push_back("a Fig. 5 anchor was not found");
    paper_dev_ = paper_deviation(fig5_golden_, anchors);
    add_values(fp, anchors);
    out.fingerprint = fp.value();
    return out;
  }

  std::vector<workloads::Workload> kernels() const override { return {}; }
  std::size_t distinct_cells() const override { return 0; }
  std::uint64_t map_points_per_op() const override {
    return kPairs * static_cast<std::uint64_t>(kMapSamples) * kMapSamples;
  }
  std::string describe() const override {
    std::string list = "[";
    for (const auto& [cand, base] : pairs_) {
      JsonObject o;
      o.num("candidate_embodied_g", units::in_grams_co2e(cand.embodied_per_good_die));
      o.num("candidate_power_mw", units::in_milliwatts(cand.operational_power));
      o.num("candidate_exec_ms", units::in_seconds(cand.execution_time) * 1e3);
      o.num("baseline_embodied_g", units::in_grams_co2e(base.embodied_per_good_die));
      o.num("baseline_power_mw", units::in_milliwatts(base.operational_power));
      o.num("baseline_exec_ms", units::in_seconds(base.execution_time) * 1e3);
      json_append(list, o.dump());
    }
    JsonObject o;
    o.raw("pairs", list + "]");
    o.num("monte_carlo_samples", kMcSamples);
    o.num("map_samples_per_axis", kMapSamples);
    return o.dump();
  }

 private:
  // The isoline must lie on the map's ratio = 1 crossing, within one axis
  // step. Returns the first x where it does not. tCDP rises with the energy
  // scale, so each map column crosses 1 at most once.
  static std::optional<double> isoline_off_map(const cb::TcdpMap& map,
                                               const std::vector<cb::IsolinePoint>& line) {
    const cb::AxisSpec& y = map.energy_axis;
    const double step = (y.hi - y.lo) / (y.samples - 1);
    for (std::size_t xi = 0; xi < line.size(); ++xi) {
      int c = 0;  // first row with ratio >= 1
      while (c < y.samples && map.ratio[static_cast<std::size_t>(c)][xi] < 1.0) ++c;
      const double lo = c == 0 ? -HUGE_VAL : y.at(c - 1) - step;
      const double hi = c == y.samples ? HUGE_VAL : y.at(c) + step;
      const auto& e = line[xi].energy_scale;
      const bool crossing_inside = c > 0 && c < y.samples;
      if (e ? !(*e >= lo && *e <= hi) : crossing_inside) return line[xi].embodied_scale;
    }
    return std::nullopt;
  }

  std::uint64_t seed_;
  obs::Manifest fig5_golden_;
  std::vector<std::pair<cb::SystemCarbonProfile, cb::SystemCarbonProfile>> pairs_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        const std::string& root) {
  if (name == "paper") return std::make_unique<PaperWorkload>(seed, root);
  if (name == "sweep") return std::make_unique<SweepWorkload>(seed, root);
  if (name == "uncertainty") return std::make_unique<UncertaintyWorkload>(seed, root);
  throw std::invalid_argument("unknown workload '" + name + "' (paper, sweep, uncertainty)");
}

}  // namespace perfbench
