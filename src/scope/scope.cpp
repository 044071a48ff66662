#include "scope/scope.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>

#include "refsim/rc_timer.h"
#include "util/strfmt.h"
#include "util/table.h"

namespace smart::scope {

namespace {

using core::RespecIteration;
using core::SolveSnapshot;

const char* arc_kind_name(netlist::ArcKind kind) {
  switch (kind) {
    case netlist::ArcKind::kStaticData: return "static_data";
    case netlist::ArcKind::kPassData: return "pass_data";
    case netlist::ArcKind::kPassControl: return "pass_control";
    case netlist::ArcKind::kTristateData: return "tristate_data";
    case netlist::ArcKind::kTristateEnable: return "tristate_enable";
    case netlist::ArcKind::kDominoEval: return "domino_eval";
    case netlist::ArcKind::kDominoClkEval: return "domino_clk_eval";
    case netlist::ArcKind::kDominoPrecharge: return "domino_precharge";
  }
  return "unknown";
}

/// Replays one representative path through the reference timer at the
/// accepted sizing, producing the per-stage delay/slope/borrow breakdown.
/// Mirrors the model's path composition (slope chains through the arcs)
/// but with the richer non-posynomial STA delays, so the replayed arrival
/// is the reference view of exactly the arcs the GP constrained.
std::vector<StageReport> replay_path(const netlist::Netlist& nl,
                                     const netlist::Sizing& sizing,
                                     const timing::Path& path,
                                     const tech::Tech& tech,
                                     double target_ps) {
  const refsim::RcTimer timer(tech);
  std::vector<StageReport> stages;
  stages.reserve(path.steps.size());
  double arrival = path.start_arrival;
  double slope =
      path.start_slope >= 0.0 ? path.start_slope : tech.default_input_slope;
  const int stages_total = path.domino_stages();
  int stages_seen = 0;
  for (const auto& step : path.steps) {
    StageReport sr;
    sr.from = nl.net(step.arc.from).name;
    sr.to = nl.net(step.arc.to).name;
    sr.comp = nl.comp(step.arc.comp).name;
    sr.kind = arc_kind_name(step.arc.kind);
    sr.out_rise = step.out_rise;
    const bool enters_domino =
        step.arc.kind == netlist::ArcKind::kDominoEval ||
        step.arc.kind == netlist::ArcKind::kDominoClkEval;
    if (enters_domino) {
      ++stages_seen;
      sr.domino_stage = stages_seen;
      // OTB view (paper §5.3): how far past its even phase share the data
      // arrives at this stage's entry — the time the stage borrows.
      if (stages_seen >= 2 && stages_total > 0 && target_ps > 0.0 &&
          path.phase == netlist::Phase::kEvaluate) {
        const double share = target_ps *
                             static_cast<double>(stages_seen - 1) /
                             static_cast<double>(stages_total);
        sr.borrow_ps = std::max(0.0, arrival - share);
      }
    }
    const auto ed = timer.arc_delay(nl, sizing, step.arc, step.out_rise,
                                    slope, path.phase);
    arrival += ed.delay_ps;
    slope = ed.out_slope_ps;
    sr.delay_ps = ed.delay_ps;
    sr.slope_ps = ed.out_slope_ps;
    sr.arrival_ps = arrival;
    stages.push_back(std::move(sr));
  }
  return stages;
}

std::string edge_name(const netlist::Netlist& nl, netlist::NetId net,
                      bool rise) {
  return util::strfmt("%s (%s)", nl.net(net).name.c_str(), rise ? "R" : "F");
}

/// Dual-weighted log-domain sensitivities: for binding constraint j with
/// normalized lhs g_j and dual estimate lambda_j, the score of variable v
/// is lambda_j * dlog g_j / dlog x_v (the softmax-weighted exponent of v
/// in g_j). Positive => growing the device pushes g_j toward violation.
std::vector<LabelSensitivity> sensitivities(
    const netlist::Netlist& nl, const SolveSnapshot& snap,
    const ScopeOptions& opt) {
  const auto& gen = snap.gen;
  const auto& diag = snap.gp.diag;
  const auto& x = snap.gp.x;
  const auto& constraints = gen.problem->constraints();

  // Per-variable driver lists over the loose binding set (the designer's
  // binding_tol); dual weighting already discounts marginal members.
  std::unordered_map<int, std::vector<SensitivityDriver>> by_var;
  const size_t nc = std::min(constraints.size(), diag.constraints.size());
  for (size_t j = 0; j < nc; ++j) {
    const auto& cd = diag.constraints[j];
    if (!cd.binding || cd.lhs <= 0.0) continue;
    std::unordered_map<int, double> exps;
    for (const auto& term : constraints[j].lhs.terms()) {
      const double val = term.eval(x);
      for (const auto& fac : term.factors())
        exps[fac.var] += val * fac.exp;
    }
    for (const auto& [var, weighted] : exps) {
      const double score = cd.dual * weighted / cd.lhs;
      if (score == 0.0) continue;
      by_var[var].push_back({cd.tag, score});
    }
  }

  std::vector<LabelSensitivity> out;
  for (size_t li = 0; li < nl.label_count(); ++li) {
    const auto& label = nl.label(static_cast<netlist::LabelId>(li));
    if (label.fixed) continue;
    const posy::Monomial& m = gen.labels.at(li);
    if (m.factors().size() != 1) continue;
    const int var = m.factors()[0].var;
    LabelSensitivity ls;
    ls.label = label.name;
    const auto& info = gen.vars->info(var);
    const double w = var < static_cast<int>(x.size())
                         ? x[static_cast<size_t>(var)]
                         : 0.0;
    ls.width_um = w;
    ls.at_lower = w <= info.lower * 1.001;
    ls.at_upper = w >= info.upper * 0.999;
    auto it = by_var.find(var);
    if (it != by_var.end()) {
      auto drivers = it->second;
      std::stable_sort(drivers.begin(), drivers.end(),
                       [](const SensitivityDriver& a,
                          const SensitivityDriver& b) {
                         return std::fabs(a.score) > std::fabs(b.score);
                       });
      if (drivers.size() > opt.max_drivers)
        drivers.resize(opt.max_drivers);
      ls.drivers = std::move(drivers);
    }
    out.push_back(std::move(ls));
  }
  return out;
}

// ---- JSON helpers (same conventions as the obs exporter) ----

std::string jesc(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string jnum(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace

ScopeReport build_report(const netlist::Netlist& nl,
                         const core::SizerResult& result,
                         const tech::Tech& tech, const ScopeOptions& opt) {
  ScopeReport report;
  report.macro = nl.name();
  report.measured_delay_ps = result.measured_delay_ps;
  report.measured_precharge_ps = result.measured_precharge_ps;
  report.respec = result.respec_trace;
  if (!result.snapshot) {
    report.message =
        "no solve snapshot (set SizerOptions::keep_solve_snapshot)";
    return report;
  }
  try {
    const SolveSnapshot& snap = *result.snapshot;
    const auto& gen = snap.gen;
    const auto& diag = snap.gp.diag;
    report.message = "ok";
    report.solve_status = gp::to_string(snap.gp.status);
    report.objective = snap.gp.objective;
    report.target_delay_ps = snap.target_delay_ps;
    report.target_precharge_ps = snap.target_precharge_ps;
    report.model_delay_spec_ps = snap.model_delay_spec_ps;
    report.model_precharge_spec_ps = snap.model_precharge_spec_ps;
    report.total_paths = gen.paths.size();
    report.total_constraints = gen.problem->constraints().size();
    report.final_t = diag.final_t;
    report.duality_gap = diag.duality_gap;
    report.trace = diag.trace;

    std::unordered_map<std::string, size_t> diag_by_tag;
    diag_by_tag.reserve(diag.constraints.size());
    for (size_t j = 0; j < diag.constraints.size(); ++j)
      diag_by_tag.emplace(diag.constraints[j].tag, j);

    // ---- per-path reports: model view + reference-STA replay ----
    std::vector<PathReport> all;
    all.reserve(gen.paths.size());
    for (size_t pi = 0; pi < gen.paths.size(); ++pi) {
      if (pi >= gen.path_templates.size()) break;
      const auto& path = gen.paths[pi];
      const auto& tmpl = gen.path_templates[pi];
      PathReport pr;
      pr.path_index = pi;
      const bool eval = tmpl.phase == netlist::Phase::kEvaluate;
      pr.tag = util::strfmt("%s_path%zu", eval ? "eval" : "pre", pi);
      pr.phase = eval ? "evaluate" : "precharge";
      pr.startpoint = edge_name(nl, path.start, path.start_rise);
      pr.endpoint =
          edge_name(nl, path.end(), path.steps.back().out_rise);
      pr.spec_ps =
          pi < gen.path_specs.size() ? gen.path_specs[pi] : 0.0;
      pr.target_ps =
          eval ? snap.target_delay_ps : snap.target_precharge_ps;
      pr.model_delay_ps = tmpl.total.eval(snap.gp.x);
      pr.model_slack_ps = pr.spec_ps - pr.model_delay_ps;
      if (auto it = diag_by_tag.find(pr.tag); it != diag_by_tag.end()) {
        const auto& cd = diag.constraints[it->second];
        pr.gp_slack = cd.slack;
        pr.gp_dual = cd.dual;
        pr.binding = std::fabs(cd.slack) <= opt.binding_slack_tol;
      }
      pr.stages =
          replay_path(nl, result.sizing, path, tech, pr.target_ps);
      pr.sta_arrival_ps =
          pr.stages.empty() ? path.start_arrival
                            : pr.stages.back().arrival_ps;
      pr.sta_slack_ps = pr.target_ps - pr.sta_arrival_ps;
      all.push_back(std::move(pr));
    }

    // Slack histogram over every representative path (before truncation).
    std::vector<double> slacks;
    slacks.reserve(all.size());
    for (const auto& pr : all) slacks.push_back(pr.sta_slack_ps);
    report.slack_hist = obs::summarize_samples(slacks);

    // Worst STA slack first; deterministic tie-break on the path index.
    std::stable_sort(all.begin(), all.end(),
                     [](const PathReport& a, const PathReport& b) {
                       if (a.sta_slack_ps != b.sta_slack_ps)
                         return a.sta_slack_ps < b.sta_slack_ps;
                       return a.path_index < b.path_index;
                     });
    if (all.size() > opt.top_k) all.resize(opt.top_k);
    report.paths = std::move(all);

    // ---- tight binding set over every constraint family ----
    for (const auto& cd : diag.constraints) {
      if (!(std::fabs(cd.slack) <= opt.binding_slack_tol)) continue;
      report.binding.push_back({cd.tag, cd.lhs, cd.slack, cd.dual});
    }
    std::stable_sort(report.binding.begin(), report.binding.end(),
                     [](const BindingReport& a, const BindingReport& b) {
                       return a.dual > b.dual;
                     });

    report.sensitivities = sensitivities(nl, snap, opt);
  } catch (const std::exception& e) {
    report.message = util::strfmt("report failed: %s", e.what());
  }
  return report;
}

std::string render_text(const ScopeReport& r) {
  std::ostringstream out;
  out << "SMART-Scope timing report — " << r.macro << "\n";
  if (r.message != "ok") {
    out << "  " << r.message << "\n";
    return out.str();
  }
  out << util::strfmt(
      "  solve %s | objective %.4g | gap %.3g (t %.3g)\n",
      r.solve_status.c_str(), r.objective, r.duality_gap, r.final_t);
  out << util::strfmt(
      "  target %.1f ps (precharge %.1f ps) | model spec %.1f ps "
      "(pre %.1f ps)\n",
      r.target_delay_ps, r.target_precharge_ps, r.model_delay_spec_ps,
      r.model_precharge_spec_ps);
  out << util::strfmt(
      "  measured: delay %.1f ps, precharge %.1f ps\n",
      r.measured_delay_ps, r.measured_precharge_ps);
  out << util::strfmt(
      "  %zu representative paths, %zu constraints, %zu binding "
      "(|slack| <= 1e-6)\n",
      r.total_paths, r.total_constraints, r.binding.size());

  size_t rank = 0;
  for (const auto& p : r.paths) {
    ++rank;
    out << util::strfmt(
        "\nPath #%zu  %s  (%s)%s\n", rank, p.tag.c_str(), p.phase.c_str(),
        p.binding ? util::strfmt("  [binding, dual %.3g]", p.gp_dual)
                      .c_str()
                  : "");
    out << "  Startpoint: " << p.startpoint
        << "   Endpoint: " << p.endpoint << "\n";
    out << util::strfmt(
        "  model %.2f ps vs spec %.2f ps (slack %.2f) | STA %.2f ps vs "
        "target %.2f ps (slack %.2f)\n",
        p.model_delay_ps, p.spec_ps, p.model_slack_ps, p.sta_arrival_ps,
        p.target_ps, p.sta_slack_ps);
    util::Table table(
        {"from", "to", "comp", "kind", "edge", "delay", "slope", "arrival",
         "borrow"});
    for (const auto& s : p.stages) {
      table.add_row(
          {s.from, s.to, s.comp, s.kind, s.out_rise ? "R" : "F",
           util::strfmt("%.2f", s.delay_ps),
           util::strfmt("%.2f", s.slope_ps),
           util::strfmt("%.2f", s.arrival_ps),
           s.domino_stage > 0
               ? util::strfmt("%.2f@s%d", s.borrow_ps, s.domino_stage)
               : std::string("-")});
    }
    out << table.render();
  }

  if (r.slack_hist.count > 0) {
    out << util::strfmt(
        "\nSlack histogram (ps): %zu paths, min %.2f, p50 %.2f, max %.2f\n",
        r.slack_hist.count, r.slack_hist.min, r.slack_hist.p50,
        r.slack_hist.max);
    out << "  counts:";
    for (size_t c : r.slack_hist.bucket_counts)
      out << util::strfmt(" %zu", c);
    out << "\n";
  }

  if (!r.binding.empty()) {
    out << "\nBinding constraints (|slack| <= 1e-6):\n";
    util::Table table({"tag", "lhs", "slack", "dual"});
    for (const auto& b : r.binding)
      table.add_row({b.tag, util::strfmt("%.9f", b.lhs),
                     util::strfmt("%.3g", b.slack),
                     util::strfmt("%.3g", b.dual)});
    out << table.render();
  }

  if (!r.sensitivities.empty()) {
    out << "\nWidth sensitivity (\"what limits this width\"):\n";
    for (const auto& ls : r.sensitivities) {
      out << util::strfmt("  %-12s %7.2f um%s%s", ls.label.c_str(),
                          ls.width_um, ls.at_lower ? " [at w_min]" : "",
                          ls.at_upper ? " [at w_max]" : "");
      if (!ls.drivers.empty()) {
        out << "  <-";
        for (const auto& d : ls.drivers)
          out << util::strfmt(" %s (%+.3g)", d.tag.c_str(), d.score);
      }
      out << "\n";
    }
  }

  if (!r.trace.empty()) {
    size_t p1 = 0;
    for (const auto& t : r.trace) p1 += t.phase1 ? 1u : 0u;
    const auto& last = r.trace.back();
    out << util::strfmt(
        "\nSolver: %zu barrier stages (%zu phase-I), final t %.3g, "
        "gap %.3g\n",
        r.trace.size(), p1, last.t, last.gap);
    // Stages that did not end on the Newton decrement test are the ones
    // that explain a slow or non-converged solve.
    for (const auto& t : r.trace) {
      if (t.exit == gp::StageExit::kDecrement) continue;
      out << util::strfmt("  stage %d (%s, t %.3g): %d Newton iters, "
                          "%d line-search trials (%d slack-floor "
                          "rejects, %d halvings skipped), exit %s\n",
                          t.stage, t.phase1 ? "phase I" : "phase II", t.t,
                          t.newton_iters, t.ls_trials, t.ls_floor_rejects,
                          t.ls_skipped, gp::to_string(t.exit));
    }
  }
  if (!r.respec.empty()) {
    out << "Respec trace (model spec -> measured):\n";
    for (const auto& it : r.respec) {
      out << util::strfmt(
          "  iter %d: spec %.1f -> measured %.1f ps (mismatch %.1f%%), "
          "width %.1f um, %zu binding, gp %s%s%s\n",
          it.iter, it.model_spec_ps, it.measured_delay_ps,
          it.mismatch * 100.0, it.total_width_um, it.binding_count,
          gp::to_string(it.gp_status), it.meets ? ", meets" : "",
          it.accepted ? " [accepted]" : "");
    }
  }
  return out.str();
}

std::string render_json(const ScopeReport& r) {
  std::string out = "{\n";
  out += "  \"macro\": \"" + jesc(r.macro) + "\",\n";
  out += "  \"message\": \"" + jesc(r.message) + "\",\n";
  out += "  \"status\": \"" + jesc(r.solve_status) + "\",\n";
  out += "  \"objective\": " + jnum(r.objective) + ",\n";
  out += "  \"specs\": {\"target_delay_ps\": " + jnum(r.target_delay_ps) +
         ", \"target_precharge_ps\": " + jnum(r.target_precharge_ps) +
         ", \"model_delay_spec_ps\": " + jnum(r.model_delay_spec_ps) +
         ", \"model_precharge_spec_ps\": " +
         jnum(r.model_precharge_spec_ps) + "},\n";
  out += "  \"measured\": {\"delay_ps\": " + jnum(r.measured_delay_ps) +
         ", \"precharge_ps\": " + jnum(r.measured_precharge_ps) + "},\n";
  out += "  \"summary\": {\"total_paths\": " +
         jnum(static_cast<double>(r.total_paths)) +
         ", \"total_constraints\": " +
         jnum(static_cast<double>(r.total_constraints)) +
         ", \"binding_count\": " +
         jnum(static_cast<double>(r.binding.size())) +
         ", \"final_t\": " + jnum(r.final_t) +
         ", \"duality_gap\": " + jnum(r.duality_gap) + "},\n";

  out += "  \"paths\": [";
  for (size_t i = 0; i < r.paths.size(); ++i) {
    const auto& p = r.paths[i];
    out += i ? ",\n    " : "\n    ";
    out += "{\"rank\": " + jnum(static_cast<double>(i + 1)) +
           ", \"index\": " + jnum(static_cast<double>(p.path_index)) +
           ", \"tag\": \"" + jesc(p.tag) + "\", \"phase\": \"" +
           jesc(p.phase) + "\", \"startpoint\": \"" + jesc(p.startpoint) +
           "\", \"endpoint\": \"" + jesc(p.endpoint) +
           "\", \"spec_ps\": " + jnum(p.spec_ps) +
           ", \"target_ps\": " + jnum(p.target_ps) +
           ", \"model_delay_ps\": " + jnum(p.model_delay_ps) +
           ", \"model_slack_ps\": " + jnum(p.model_slack_ps) +
           ", \"gp_slack\": " + jnum(p.gp_slack) +
           ", \"gp_dual\": " + jnum(p.gp_dual) +
           ", \"binding\": " + (p.binding ? "true" : "false") +
           ", \"sta_arrival_ps\": " + jnum(p.sta_arrival_ps) +
           ", \"sta_slack_ps\": " + jnum(p.sta_slack_ps) +
           ", \"stages\": [";
    for (size_t si = 0; si < p.stages.size(); ++si) {
      const auto& s = p.stages[si];
      out += si ? ", " : "";
      out += "{\"from\": \"" + jesc(s.from) + "\", \"to\": \"" +
             jesc(s.to) + "\", \"comp\": \"" + jesc(s.comp) +
             "\", \"kind\": \"" + jesc(s.kind) + "\", \"edge\": \"" +
             (s.out_rise ? "R" : "F") +
             "\", \"delay_ps\": " + jnum(s.delay_ps) +
             ", \"slope_ps\": " + jnum(s.slope_ps) +
             ", \"arrival_ps\": " + jnum(s.arrival_ps) +
             ", \"borrow_ps\": " + jnum(s.borrow_ps) +
             ", \"stage\": " + jnum(static_cast<double>(s.domino_stage)) +
             "}";
    }
    out += "]}";
  }
  out += r.paths.empty() ? "],\n" : "\n  ],\n";

  out += "  \"slack_histogram\": {\"count\": " +
         jnum(static_cast<double>(r.slack_hist.count)) +
         ", \"min\": " + jnum(r.slack_hist.min) +
         ", \"max\": " + jnum(r.slack_hist.max) +
         ", \"p50\": " + jnum(r.slack_hist.p50) +
         ", \"buckets\": {\"bounds\": [";
  for (size_t b = 0; b < r.slack_hist.bucket_bounds.size(); ++b)
    out += (b ? ", " : "") + jnum(r.slack_hist.bucket_bounds[b]);
  out += "], \"counts\": [";
  for (size_t b = 0; b < r.slack_hist.bucket_counts.size(); ++b)
    out += (b ? ", " : "") +
           jnum(static_cast<double>(r.slack_hist.bucket_counts[b]));
  out += "]}},\n";

  out += "  \"binding\": [";
  for (size_t i = 0; i < r.binding.size(); ++i) {
    const auto& b = r.binding[i];
    out += i ? ",\n    " : "\n    ";
    out += "{\"tag\": \"" + jesc(b.tag) + "\", \"lhs\": " + jnum(b.lhs) +
           ", \"slack\": " + jnum(b.slack) +
           ", \"dual\": " + jnum(b.dual) + "}";
  }
  out += r.binding.empty() ? "],\n" : "\n  ],\n";

  out += "  \"sensitivity\": [";
  for (size_t i = 0; i < r.sensitivities.size(); ++i) {
    const auto& ls = r.sensitivities[i];
    out += i ? ",\n    " : "\n    ";
    out += "{\"label\": \"" + jesc(ls.label) +
           "\", \"width_um\": " + jnum(ls.width_um) +
           ", \"at_lower\": " + (ls.at_lower ? "true" : "false") +
           ", \"at_upper\": " + (ls.at_upper ? "true" : "false") +
           ", \"drivers\": [";
    for (size_t di = 0; di < ls.drivers.size(); ++di) {
      out += di ? ", " : "";
      out += "{\"tag\": \"" + jesc(ls.drivers[di].tag) +
             "\", \"score\": " + jnum(ls.drivers[di].score) + "}";
    }
    out += "]}";
  }
  out += r.sensitivities.empty() ? "],\n" : "\n  ],\n";

  out += "  \"solver_trace\": [";
  for (size_t i = 0; i < r.trace.size(); ++i) {
    const auto& t = r.trace[i];
    out += i ? ", " : "";
    out += "{\"stage\": " + jnum(static_cast<double>(t.stage)) +
           ", \"phase1\": " + (t.phase1 ? "true" : "false") +
           ", \"t\": " + jnum(t.t) +
           ", \"newton_iters\": " + jnum(t.newton_iters) +
           ", \"ls_trials\": " + jnum(t.ls_trials) +
           ", \"ls_floor_rejects\": " + jnum(t.ls_floor_rejects) +
           ", \"ls_skipped\": " + jnum(t.ls_skipped) +
           ", \"converged\": " + (t.converged ? "true" : "false") +
           ", \"exit\": \"" + gp::to_string(t.exit) + "\"" +
           ", \"gap\": " + jnum(t.gap) + "}";
  }
  out += "],\n";

  out += "  \"respec\": [";
  for (size_t i = 0; i < r.respec.size(); ++i) {
    const auto& it = r.respec[i];
    out += i ? ", " : "";
    out += "{\"iter\": " + jnum(it.iter) +
           ", \"model_spec_ps\": " + jnum(it.model_spec_ps) +
           ", \"model_pre_spec_ps\": " + jnum(it.model_pre_spec_ps) +
           ", \"measured_delay_ps\": " + jnum(it.measured_delay_ps) +
           ", \"measured_precharge_ps\": " +
           jnum(it.measured_precharge_ps) +
           ", \"mismatch\": " + jnum(it.mismatch) +
           ", \"total_width_um\": " + jnum(it.total_width_um) +
           ", \"binding_count\": " +
           jnum(static_cast<double>(it.binding_count)) +
           ", \"gp_status\": \"" + jesc(gp::to_string(it.gp_status)) +
           "\", \"meets\": " + (it.meets ? "true" : "false") +
           ", \"accepted\": " + (it.accepted ? "true" : "false") + "}";
  }
  out += "]\n}\n";
  return out;
}

}  // namespace scope
