// SMART-Bench output checker. Every check re-derives its expectation from
// the program's public functions (the reference timer, the baseline sizer,
// the power estimator) or from a property the method must have; none
// compares against a stored copy of an earlier run.

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <set>

#include "bench.h"
#include "core/baseline.h"
#include "power/power.h"
#include "util/strfmt.h"

namespace smartbench {

using namespace smart;
using util::strfmt;

namespace {

/// Relative comparison for quantities the program and the checker compute
/// by the same formula (summation order may differ by an ulp or two).
bool same(double a, double b, double rel = 1e-9) {
  return std::fabs(a - b) <= rel * std::max({1.0, std::fabs(a), std::fabs(b)});
}

bool is_source(const netlist::Netlist& nl, netlist::NetId n) {
  if (nl.net(n).kind == netlist::NetKind::kClock) return true;
  for (const auto& p : nl.inputs())
    if (p.net == n) return true;
  return false;
}

bool is_output(const netlist::Netlist& nl, netlist::NetId n) {
  for (const auto& p : nl.outputs())
    if (p.net == n) return true;
  return false;
}

}  // namespace

std::vector<double> pin_caps(const netlist::Netlist& nl,
                             const netlist::Sizing& sizing,
                             const tech::Tech& tech) {
  const refsim::RcTimer timer(tech);
  std::vector<double> caps;
  for (const auto& p : nl.inputs())
    caps.push_back(timer.net_cap(nl, sizing, p.net));
  return caps;
}

double recompute_width(const netlist::Netlist& nl,
                       const netlist::Sizing& sizing) {
  double total = 0.0;
  for (size_t c = 0; c < nl.comp_count(); ++c) {
    for (const auto& ref :
         nl.all_device_widths(static_cast<netlist::CompId>(c))) {
      const auto& label = nl.label(ref.label);
      const double w = label.fixed
                           ? label.fixed_width
                           : sizing.at(static_cast<size_t>(ref.label));
      total += ref.scale * w;
    }
  }
  return total;
}

double recompute_cost(const netlist::Netlist& nl,
                      const netlist::Sizing& sizing, core::CostMetric cost,
                      const tech::Tech& tech) {
  switch (cost) {
    case core::CostMetric::kTotalWidth:
      return recompute_width(nl, sizing);
    case core::CostMetric::kPower:
      return power::PowerEstimator(tech).estimate(nl, sizing).total_mw;
    case core::CostMetric::kClockLoad: {
      double clock = 0.0;
      for (size_t n = 0; n < nl.net_count(); ++n) {
        const auto net = static_cast<netlist::NetId>(n);
        if (nl.net(net).kind != netlist::NetKind::kClock) continue;
        for (size_t c = 0; c < nl.comp_count(); ++c)
          clock += nl.resolve_width(
              nl.gate_width_on_net(static_cast<netlist::CompId>(c), net),
              sizing);
      }
      return clock;
    }
  }
  return 0.0;
}

std::vector<std::string> check_sized(const SizedDesign& d,
                                     const tech::Tech& tech) {
  std::vector<std::string> errors;
  const auto& nl = *d.nl;
  const auto& r = *d.result;
  if (r.sizing.size() != nl.label_count()) {
    errors.push_back(strfmt("sizing has %zu entries for %zu labels",
                            r.sizing.size(), nl.label_count()));
    return errors;
  }
  for (size_t i = 0; i < nl.label_count(); ++i) {
    const auto& label = nl.label(static_cast<netlist::LabelId>(i));
    if (label.fixed) continue;
    const double w = r.sizing[i];
    if (!(w >= label.w_min * (1 - 1e-9) && w <= label.w_max * (1 + 1e-9)))
      errors.push_back(strfmt("label %s width %.6g outside [%.6g, %.6g]",
                              label.name.c_str(), w, label.w_min,
                              label.w_max));
  }
  const double width = recompute_width(nl, r.sizing);
  if (!same(width, r.total_width_um))
    errors.push_back(strfmt("reported width %.9g um, devices sum to %.9g um",
                            r.total_width_um, width));

  const auto report = refsim::RcTimer(tech).analyze(nl, r.sizing);
  if (!std::isfinite(report.worst_delay) || report.worst_delay <= 0.0)
    errors.push_back(strfmt("re-timed delay %.6g ps is not positive",
                            report.worst_delay));
  if (!same(report.worst_delay, r.measured_delay_ps))
    errors.push_back(strfmt("reported delay %.6g ps, re-timed %.6g ps",
                            r.measured_delay_ps, report.worst_delay));
  const double delay_limit = d.delay_spec_ps * (1 + d.converge_tol);
  if (report.worst_delay > delay_limit * (1 + 1e-9))
    errors.push_back(strfmt("re-timed delay %.4f ps misses spec %.4f ps",
                            report.worst_delay, delay_limit));
  const double pre_spec =
      d.precharge_spec_ps > 0.0 ? d.precharge_spec_ps : d.delay_spec_ps;
  const double pre_limit = pre_spec * (1 + d.converge_tol);
  if (report.worst_precharge > pre_limit * (1 + 1e-9))
    errors.push_back(strfmt("re-timed precharge %.4f ps misses spec %.4f ps",
                            report.worst_precharge, pre_limit));

  if (!d.hand_input_caps.empty()) {
    const auto caps = pin_caps(nl, r.sizing, tech);
    if (caps.size() != d.hand_input_caps.size()) {
      errors.push_back("input port count differs from the hand design");
    } else {
      for (size_t i = 0; i < caps.size(); ++i) {
        const double limit = d.hand_input_caps[i] * d.input_cap_slack;
        if (caps[i] > limit * (1 + 1e-6))
          errors.push_back(strfmt(
              "input %s presents %.4f fF, hand design %.4f fF x %.2f",
              nl.net(nl.inputs()[i].net).name.c_str(), caps[i],
              d.hand_input_caps[i], d.input_cap_slack));
      }
    }
  }
  return errors;
}

std::vector<std::string> check_advice(const core::Advice& advice,
                                      size_t applicable,
                                      core::CostMetric cost,
                                      double delay_spec_ps,
                                      double converge_tol,
                                      const tech::Tech& tech) {
  std::vector<std::string> errors;
  std::set<std::string> seen;
  for (const auto& s : advice.solutions) seen.insert(s.topology);
  for (const auto& f : advice.failures) seen.insert(f.topology);
  const size_t reported = advice.solutions.size() + advice.failures.size();
  if (reported != applicable || seen.size() != applicable)
    errors.push_back(strfmt(
        "advice accounts for %zu candidates (%zu distinct) of %zu applicable "
        "topologies",
        reported, seen.size(), applicable));

  const core::BaselineSizer hand(tech);
  std::vector<double> costs;
  for (const auto& s : advice.solutions) {
    costs.push_back(recompute_cost(s.netlist, s.sizing.sizing, cost, tech));
    if (!s.meets_spec) continue;
    if (s.sizing.rung != core::SizingRung::kGp) {
      errors.push_back(s.topology + " meets spec from a degraded rung");
      continue;
    }
    SizedDesign d;
    d.nl = &s.netlist;
    d.result = &s.sizing;
    d.delay_spec_ps = delay_spec_ps;
    d.converge_tol = converge_tol;
    d.hand_input_caps = pin_caps(s.netlist, hand.size(s.netlist), tech);
    for (const auto& e : check_sized(d, tech))
      errors.push_back(s.topology + ": " + e);
  }
  for (size_t i = 1; i < advice.solutions.size(); ++i) {
    const auto& a = advice.solutions[i - 1];
    const auto& b = advice.solutions[i];
    const bool ordered = a.meets_spec != b.meets_spec
                             ? a.meets_spec
                             : costs[i - 1] <= costs[i];
    if (!ordered)
      errors.push_back(strfmt(
          "advice ranks %s (cost %.6g%s) above %s (cost %.6g%s)",
          a.topology.c_str(), costs[i - 1], a.meets_spec ? ", meets" : "",
          b.topology.c_str(), costs[i], b.meets_spec ? ", meets" : ""));
  }
  return errors;
}

double count_paths(const netlist::Netlist& nl) {
  const size_t n_nets = nl.net_count();
  std::vector<char> output(n_nets, 0);
  for (const auto& p : nl.outputs()) output[static_cast<size_t>(p.net)] = 1;
  std::vector<double> memo(n_nets, -1.0);
  std::function<double(netlist::NetId)> walk = [&](netlist::NetId n) {
    double& m = memo[static_cast<size_t>(n)];
    if (m >= 0.0) return m;
    double paths = output[static_cast<size_t>(n)] ? 1.0 : 0.0;
    for (const auto& arc : nl.arcs_from(n)) paths += walk(arc.to);
    memo[static_cast<size_t>(n)] = paths;
    return paths;
  };
  std::vector<char> counted(n_nets, 0);
  double total = 0.0;
  auto add_source = [&](netlist::NetId n) {
    if (counted[static_cast<size_t>(n)]) return;
    counted[static_cast<size_t>(n)] = 1;
    total += walk(n);
  };
  for (const auto& p : nl.inputs()) add_source(p.net);
  for (size_t n = 0; n < n_nets; ++n)
    if (nl.net(static_cast<netlist::NetId>(n)).kind ==
        netlist::NetKind::kClock)
      add_source(static_cast<netlist::NetId>(n));
  return total;
}

std::vector<std::string> check_paths(
    const netlist::Netlist& nl, const std::vector<timing::Path>& paths,
    const timing::PathStats& stats, double program_topological_count) {
  std::vector<std::string> errors;
  for (size_t i = 0; i < paths.size(); ++i) {
    const auto& p = paths[i];
    if (p.steps.empty()) {
      errors.push_back(strfmt("path %zu has no arcs", i));
      continue;
    }
    if (!is_source(nl, p.start) || p.steps.front().arc.from != p.start)
      errors.push_back(strfmt("path %zu does not start at an input or clock "
                              "source",
                              i));
    for (size_t k = 0; k < p.steps.size(); ++k) {
      const auto& arc = p.steps[k].arc;
      if (k > 0 && arc.from != p.steps[k - 1].arc.to) {
        errors.push_back(strfmt("path %zu: arc %zu starts at %s, previous "
                                "arc ended at %s",
                                i, k, nl.net(arc.from).name.c_str(),
                                nl.net(p.steps[k - 1].arc.to).name.c_str()));
        break;
      }
      const auto& out = nl.arcs_from(arc.from);
      const bool in_netlist =
          std::any_of(out.begin(), out.end(), [&](const netlist::Arc& a) {
            return a.to == arc.to && a.comp == arc.comp && a.kind == arc.kind;
          });
      if (!in_netlist) {
        errors.push_back(strfmt("path %zu: arc %zu is not a netlist arc", i,
                                k));
        break;
      }
    }
    if (!is_output(nl, p.end()))
      errors.push_back(strfmt("path %zu ends at %s, not an output", i,
                              nl.net(p.end()).name.c_str()));
    if (errors.size() > 8) break;
  }
  const double stages[] = {stats.raw_edge_paths,
                           static_cast<double>(stats.after_regularity),
                           static_cast<double>(stats.after_precedence),
                           static_cast<double>(stats.after_dominance)};
  for (size_t k = 1; k < 4; ++k)
    if (stages[k] > stages[k - 1])
      errors.push_back(strfmt("prune stage %zu keeps %.0f paths, more than "
                              "the %.0f before it",
                              k, stages[k], stages[k - 1]));
  if (stats.final_paths != paths.size())
    errors.push_back(strfmt("stats report %zu final paths, %zu returned",
                            stats.final_paths, paths.size()));
  const double own = count_paths(nl);
  if (own != program_topological_count || own != stats.raw_topological)
    errors.push_back(strfmt("topological paths: own walk %.0f, extractor "
                            "%.0f, stats %.0f",
                            own, program_topological_count,
                            stats.raw_topological));
  return errors;
}

std::vector<std::string> check_hand_timing(
    const netlist::Netlist& nl, const refsim::TimingReport& report) {
  std::vector<std::string> errors;
  for (const auto& port : nl.outputs()) {
    const refsim::OutputTiming* t = nullptr;
    for (const auto& o : report.outputs)
      if (o.net == port.net) t = &o;
    const double worst =
        t ? std::max(t->arr_rise, t->arr_fall)
          : -std::numeric_limits<double>::infinity();
    if (!std::isfinite(worst) || worst <= 0.0)
      errors.push_back(strfmt("output %s arrival %.6g ps is not finite and "
                              "positive",
                              nl.net(port.net).name.c_str(), worst));
  }
  if (!std::isfinite(report.worst_delay) || report.worst_delay <= 0.0)
    errors.push_back(strfmt("worst delay %.6g ps", report.worst_delay));
  return errors;
}

}  // namespace smartbench
