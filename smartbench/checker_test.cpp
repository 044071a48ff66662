// Self-test of the SMART-Bench output checker: real outputs of the program
// must pass, and corrupted copies of them must be rejected.
//
//   python3 smartbench/run.py --self-test
//
// Prints one PASS/FAIL line per case and exits non-zero on any failure.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/constraints.h"
#include "core/experiment.h"
#include "macros/registry.h"
#include "models/fitter.h"

namespace {

using namespace smartbench;
using namespace smart;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool mentions(const std::vector<std::string>& errors, const std::string& s) {
  for (const auto& e : errors)
    if (e.find(s) != std::string::npos) return true;
  return false;
}

netlist::Netlist make(const core::MacroDatabase& db, const char* type,
                      const char* topo, int n, double load,
                      std::map<std::string, double> params = {}) {
  core::MacroSpec spec;
  spec.type = type;
  spec.n = n;
  spec.load_ff = load;
  spec.params = std::move(params);
  return db.find(type, topo)->generate(spec);
}

void sized_design_cases(const Env& env) {
  const auto nl = make(env.db, "mux", "strong_pass", 4, 12, {{"bits", 8}});
  const auto cmp = core::run_iso_delay(nl, *env.tech, env.lib);
  expect(cmp.ok, "4:1 strong-pass mux sizes to the hand design's delay");
  const auto hand = core::BaselineSizer(*env.tech).size(nl);
  const refsim::RcTimer timer(*env.tech);
  const auto caps = pin_caps(nl, hand, *env.tech);

  SizedDesign d;
  d.nl = &nl;
  d.result = &cmp.smart;
  d.delay_spec_ps = cmp.baseline.measured_delay_ps;
  d.precharge_spec_ps = -1.0;
  d.hand_input_caps = caps;
  d.input_cap_slack = core::ConstraintOptions{}.input_cap_slack;
  const auto clean = check_sized(d, *env.tech);
  for (const auto& e : clean) std::printf("  %s\n", e.c_str());
  expect(clean.empty(), "the delivered design passes the checker");

  // Shrink every free width until the reference timer misses the spec;
  // report the shrunk design's own width and delay so only timing is off.
  core::SizerResult slow = cmp.smart;
  const double limit = d.delay_spec_ps * (1 + d.converge_tol);
  for (int step = 0; step < 40; ++step) {
    if (timer.analyze(nl, slow.sizing).worst_delay > limit) break;
    for (size_t i = 0; i < nl.label_count(); ++i)
      slow.sizing[i] = std::max(
          nl.label(static_cast<netlist::LabelId>(i)).w_min,
          0.8 * slow.sizing[i]);
  }
  slow.total_width_um = recompute_width(nl, slow.sizing);
  slow.measured_delay_ps = timer.analyze(nl, slow.sizing).worst_delay;
  expect(slow.measured_delay_ps > limit, "shrinking widths slows the mux");
  d.result = &slow;
  const auto slow_errors = check_sized(d, *env.tech);
  expect(mentions(slow_errors, "misses spec"),
         "shrunk widths are rejected: the reference timer misses the spec");

  core::SizerResult lying = cmp.smart;
  lying.total_width_um *= 0.9;
  d.result = &lying;
  expect(mentions(check_sized(d, *env.tech), "devices sum to"),
         "a reported width the devices do not add up to is rejected");

  core::SizerResult outside = cmp.smart;
  size_t free_label = 0;
  while (nl.label(static_cast<netlist::LabelId>(free_label)).fixed)
    ++free_label;
  outside.sizing[free_label] =
      2 * nl.label(static_cast<netlist::LabelId>(free_label)).w_max;
  outside.total_width_um = recompute_width(nl, outside.sizing);
  d.result = &outside;
  expect(mentions(check_sized(d, *env.tech), "outside"),
         "a width outside its label's box is rejected");

  core::SizerResult wide_pins = cmp.smart;
  d.hand_input_caps.assign(caps.size(), 1e-3);
  d.result = &wide_pins;
  expect(mentions(check_sized(d, *env.tech), "presents"),
         "input pins above the hand design's caps are rejected");
}

void path_cases(const Env& env) {
  const auto nl = make(env.db, "decoder", "predecode", 3, 10);
  const timing::PathExtractor ex(nl);
  timing::PathStats stats;
  auto paths = ex.extract({}, &stats);
  const double topo = ex.count_topological_paths();
  const auto clean = check_paths(nl, paths, stats, topo);
  for (const auto& e : clean) std::printf("  %s\n", e.c_str());
  expect(clean.empty(), "extracted 3:8 decoder paths pass the checker");
  expect(count_paths(nl) == topo,
         "own path walk equals count_topological_paths");

  // Splice an arc that leaves some other net into a multi-arc path.
  size_t victim = paths.size();
  for (size_t i = 0; i < paths.size() && victim == paths.size(); ++i)
    if (paths[i].steps.size() >= 2) victim = i;
  expect(victim < paths.size(), "a path with two or more arcs exists");
  if (victim == paths.size()) return;
  auto broken = paths;
  auto& steps = broken[victim].steps;
  for (const auto& arc : nl.arcs()) {
    if (arc.from != steps[0].arc.to) {
      steps[1].arc = arc;
      break;
    }
  }
  expect(mentions(check_paths(nl, broken, stats, topo), "previous arc ended"),
         "a path whose arcs do not chain is rejected");

  auto grown = stats;
  grown.after_dominance = grown.after_precedence + 1;
  expect(mentions(check_paths(nl, paths, grown, topo), "more than"),
         "a prune stage that adds paths is rejected");
  expect(mentions(check_paths(nl, paths, stats, topo + 1), "own walk"),
         "a path count that disagrees with the own walk is rejected");
}

void advice_cases(const Env& env) {
  const core::DesignAdvisor advisor(env.db, *env.tech, env.lib);
  core::AdvisorRequest request;
  request.spec.type = "mux";
  request.spec.n = 4;
  request.spec.params["bits"] = 8;
  request.spec.load_ff = 12;
  const auto advice = advisor.advise(request);
  const size_t applicable = env.db.topologies("mux", &request.spec).size();
  const auto check = [&](const core::Advice& a) {
    return check_advice(a, applicable, request.cost,
                        advice.derived_delay_spec_ps,
                        request.sizer.converge_tol, *env.tech);
  };
  const auto clean = check(advice);
  for (const auto& e : clean) std::printf("  %s\n", e.c_str());
  expect(clean.empty(), "advice for a 4:1 mux passes the checker");
  expect(advice.solutions.size() >= 2, "the advice ranks two or more designs");
  if (advice.solutions.size() < 2) return;

  // Swap the cheapest spec-meeting design behind a costlier one.
  auto misranked = advice;
  size_t last = 1;
  for (size_t i = 1; i < misranked.solutions.size(); ++i)
    if (misranked.solutions[i].meets_spec == misranked.solutions[0].meets_spec)
      last = i;
  std::swap(misranked.solutions[0], misranked.solutions[last]);
  expect(mentions(check(misranked), "advice ranks"),
         "a misranked Advice is rejected");

  auto missing = advice;
  missing.solutions.pop_back();
  expect(mentions(check(missing), "accounts for"),
         "an Advice that drops a topology is rejected");
}

}  // namespace

int main() {
  Env env;
  env.tech = &tech::default_tech();
  env.lib = models::calibrate(*env.tech);
  macros::register_all(env.db);
  sized_design_cases(env);
  path_cases(env);
  advice_cases(env);
  std::printf("%s: %d failure(s)\n", failures ? "FAIL" : "PASS", failures);
  return failures ? 1 : 0;
}
