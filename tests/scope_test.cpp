// Tests for SMART-Scope: GP solve diagnostics (binding set, dual
// estimates, convergence trace) and the report builder that maps binding
// constraints back to netlist paths (model vs reference-STA views, slack
// histogram, sensitivities) plus its text/JSON renderers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "core/sizer.h"
#include "gp/solver.h"
#include "helpers.h"
#include "refsim/critical_path.h"
#include "scope/scope.h"
#include "util/json.h"

namespace smart::scope {
namespace {

using posy::Monomial;
using posy::Posynomial;
using posy::VarTable;

// ---- solver diagnostics on a hand-built GP with a known KKT point ----

// min x1 + x2  s.t.  (x1*x2)^-1 <= 1, box [0.1, 10]^2.
// Optimum (1, 1), objective 2. In the log-domain formulation the solver
// works in, the KKT multiplier of the coupling constraint is 1/2: at
// y = (0, 0) the objective gradient is the softmax weights (1/2, 1/2) and
// the constraint gradient is (-1, -1) with u = -log lhs as the slack.
TEST(SolveDiagnosticsTest, TwoVariableKnownKktPoint) {
  VarTable vars;
  const auto x1 = vars.add("x1", 0.1, 10.0);
  const auto x2 = vars.add("x2", 0.1, 10.0);
  gp::GpProblem p(vars);
  p.set_objective(Posynomial::variable(x1) + Posynomial::variable(x2));
  p.add_constraint(
      Posynomial(Monomial::variable(x1, -1) * Monomial::variable(x2, -1)),
      "x1x2>=1");
  // A slack constraint that must NOT be reported binding: 0.2*x1 <= 1 sits
  // at lhs = 0.2 at the optimum.
  p.add_constraint(Posynomial(Monomial(0.2) * Monomial::variable(x1)),
                   "x1<=5");

  gp::SolverOptions opt;
  opt.tolerance = 1e-6;  // report-grade: active constraints to |slack|<=1e-6
  const auto r = gp::GpSolver(opt).solve(p);
  ASSERT_EQ(r.status, gp::SolveStatus::kOptimal) << r.message;
  EXPECT_NEAR(r.x[0], 1.0, 1e-3);
  EXPECT_NEAR(r.x[1], 1.0, 1e-3);

  const auto& diag = r.diag;
  ASSERT_EQ(diag.constraints.size(), 2u);

  const auto& active = diag.constraints[0];
  EXPECT_EQ(active.tag, "x1x2>=1");
  EXPECT_TRUE(active.binding);
  EXPECT_LE(std::fabs(active.slack), 1e-6);
  // Log-barrier dual estimate converges to the KKT multiplier.
  EXPECT_NEAR(active.dual, 0.5, 0.05);

  const auto& inactive = diag.constraints[1];
  EXPECT_FALSE(inactive.binding);
  EXPECT_NEAR(inactive.lhs, 0.2, 1e-2);
  EXPECT_LT(inactive.dual, 1e-3);  // complementary slackness

  ASSERT_EQ(diag.binding_set.size(), 1u);
  EXPECT_EQ(diag.binding_set[0], 0u);

  // Convergence trace: at least one phase-II stage, gap within tolerance
  // at exit, and final_t consistent with gap = m_total / t.
  ASSERT_FALSE(diag.trace.empty());
  const auto& last = diag.trace.back();
  EXPECT_FALSE(last.phase1);
  EXPECT_TRUE(last.converged);
  EXPECT_GT(diag.final_t, 0.0);
  EXPECT_GT(diag.duality_gap, 0.0);
  EXPECT_LE(diag.duality_gap, 1e-6);
  const double m_total = 2.0 + 2.0 * 2.0;  // constraints + box walls
  EXPECT_NEAR(diag.duality_gap, m_total / diag.final_t,
              1e-9 * m_total / diag.final_t + 1e-12);
}

// Diagnostics must not perturb the solve: same problem, same point with
// and without anyone reading the diagnostics (they are always computed
// from the values finish() already evaluates).
TEST(SolveDiagnosticsTest, DiagnosticsAreFreeOfSideEffects) {
  VarTable vars;
  const auto x = vars.add("x", 0.5, 50.0);
  const auto y = vars.add("y", 0.5, 50.0);
  gp::GpProblem p(vars);
  p.set_objective(Posynomial::variable(x) + 2.0 * Posynomial::variable(y));
  p.add_constraint(
      Posynomial(Monomial::variable(x, -1) * Monomial::variable(y, -1)),
      "xy>=1");
  const auto a = gp::GpSolver().solve(p);
  const auto b = gp::GpSolver().solve(p);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.x[0], b.x[0]);
  EXPECT_EQ(a.x[1], b.x[1]);
  EXPECT_EQ(a.diag.constraints.size(), b.diag.constraints.size());
}

// ---- report builder over real macros ----

class ScopeReportTest : public ::testing::Test {
 protected:
  static netlist::Netlist make(const char* type, const char* topo, int n,
                               int bits) {
    core::MacroSpec spec;
    spec.type = type;
    spec.n = n;
    if (bits > 0) spec.params["bits"] = bits;
    const auto* entry = macros::builtin_database().find(type, topo);
    EXPECT_NE(entry, nullptr);
    return entry->generate(spec);
  }

  core::SizerResult size_with_snapshot(const netlist::Netlist& nl,
                                       double delay_ps,
                                       double precharge_ps = -1.0) const {
    core::Sizer sizer(tech_, lib_);
    core::SizerOptions opt;
    opt.delay_spec_ps = delay_ps;
    opt.precharge_spec_ps = precharge_ps;
    opt.keep_solve_snapshot = true;
    opt.gp.tolerance = 1e-6;
    return sizer.size(nl, opt);
  }

  const tech::Tech& tech_ = tech::default_tech();
  const models::ModelLibrary& lib_ = models::default_library();
};

TEST_F(ScopeReportTest, WorstPathAgreesWithReferenceCriticalPath) {
  const auto nl = make("mux", "encoded2", 2, 8);
  const auto result = size_with_snapshot(nl, 120.0);
  ASSERT_TRUE(result.ok) << result.message;
  ASSERT_NE(result.snapshot, nullptr);

  ScopeOptions opt;
  opt.top_k = 100;  // keep every path so the worst is definitely present
  const auto report = build_report(nl, result, tech_, opt);
  ASSERT_EQ(report.message, "ok");
  ASSERT_FALSE(report.paths.empty());
  EXPECT_EQ(report.macro, nl.name());
  EXPECT_EQ(report.solve_status, "optimal");

  // The worst evaluate-phase path of the report is the reference timer's
  // critical path: same endpoint, same arrival (the report replays the
  // same arcs through the same timer).
  const auto cp = refsim::critical_path(nl, result.sizing, tech_);
  ASSERT_FALSE(cp.steps.empty());
  const PathReport* worst_eval = nullptr;
  for (const auto& pr : report.paths) {
    if (pr.phase == "evaluate") {
      worst_eval = &pr;
      break;
    }
  }
  ASSERT_NE(worst_eval, nullptr);
  EXPECT_NE(worst_eval->endpoint.find(nl.net(cp.end).name),
            std::string::npos);
  EXPECT_NEAR(worst_eval->sta_arrival_ps, cp.arrival_ps,
              0.05 * cp.arrival_ps);

  // Paths are ranked worst STA slack first.
  for (size_t i = 1; i < report.paths.size(); ++i)
    EXPECT_LE(report.paths[i - 1].sta_slack_ps, report.paths[i].sta_slack_ps);

  // Per-stage breakdown sums to the replayed arrival.
  const auto& stages = worst_eval->stages;
  ASSERT_FALSE(stages.empty());
  double sum = 0.0;
  for (const auto& s : stages) sum += s.delay_ps;
  EXPECT_NEAR(sum, worst_eval->sta_arrival_ps, 1e-6);

  // Binding set: report-level cut is |slack| <= 1e-6, duals positive.
  EXPECT_FALSE(report.binding.empty());
  for (const auto& b : report.binding) {
    EXPECT_LE(std::fabs(b.slack), 1e-6) << b.tag;
    EXPECT_GT(b.dual, 0.0) << b.tag;
  }

  // Slack histogram covers every representative path, not just top-K.
  EXPECT_EQ(report.slack_hist.count, report.total_paths);
  size_t hist_total = 0;
  for (size_t c : report.slack_hist.bucket_counts) hist_total += c;
  EXPECT_EQ(hist_total, report.slack_hist.count);

  // Sensitivities: every free label appears, drivers sorted by |score|.
  EXPECT_FALSE(report.sensitivities.empty());
  for (const auto& ls : report.sensitivities) {
    EXPECT_FALSE(ls.label.empty());
    for (size_t d = 1; d < ls.drivers.size(); ++d)
      EXPECT_GE(std::fabs(ls.drivers[d - 1].score),
                std::fabs(ls.drivers[d].score));
  }

  // Respec + solver traces made it through.
  EXPECT_FALSE(report.respec.empty());
  EXPECT_FALSE(report.trace.empty());
  const bool any_accepted =
      std::any_of(report.respec.begin(), report.respec.end(),
                  [](const core::RespecIteration& it) { return it.accepted; });
  EXPECT_TRUE(any_accepted);
}

TEST_F(ScopeReportTest, DominoReportJsonRoundTrips) {
  const auto nl = make("mux", "domino_unsplit", 8, 8);
  const auto result = size_with_snapshot(nl, 150.0, 200.0);
  ASSERT_TRUE(result.ok) << result.message;

  const auto report = build_report(nl, result, tech_, {});
  ASSERT_EQ(report.message, "ok");

  const std::string json = render_json(report);
  util::JsonValue root;
  ASSERT_TRUE(util::json_parse(json, &root)) << json;

  EXPECT_EQ(root.find("message")->str, "ok");
  EXPECT_EQ(root.find("status")->str, "optimal");

  const auto* paths = root.find("paths");
  ASSERT_NE(paths, nullptr);
  ASSERT_FALSE(paths->array.empty());
  // Domino eval paths report 1-based stage entries; borrow is only ever
  // non-negative and only on stage >= 2 entries.
  bool saw_stage = false;
  for (const auto& pv : paths->array) {
    for (const auto& sv : pv.find("stages")->array) {
      const double stage = sv.find("stage")->number;
      const double borrow = sv.find("borrow_ps")->number;
      EXPECT_GE(borrow, 0.0);
      if (stage < 2) {
        EXPECT_EQ(borrow, 0.0);
      }
      if (stage >= 1) saw_stage = true;
    }
  }
  EXPECT_TRUE(saw_stage) << "domino macro reported no stage entries";

  // Acceptance: every reported binding constraint sits at |slack| <= 1e-6
  // in the solved GP.
  const auto* binding = root.find("binding");
  ASSERT_NE(binding, nullptr);
  ASSERT_FALSE(binding->array.empty());
  for (const auto& b : binding->array)
    EXPECT_LE(std::fabs(b.find("slack")->number), 1e-6)
        << b.find("tag")->str;

  // Histogram buckets survive the round trip: bounds = counts + 1, counts
  // sum to the path population.
  const auto* hist = root.find("slack_histogram");
  ASSERT_NE(hist, nullptr);
  const auto& bounds = hist->find("buckets")->find("bounds")->array;
  const auto& counts = hist->find("buckets")->find("counts")->array;
  ASSERT_EQ(bounds.size(), counts.size() + 1);
  double total = 0.0;
  for (const auto& c : counts) total += c.number;
  EXPECT_EQ(total, hist->find("count")->number);

  EXPECT_FALSE(root.find("sensitivity")->array.empty());
  EXPECT_FALSE(root.find("solver_trace")->array.empty());
  // Every stage says how its Newton loop ended.
  for (const auto& st : root.find("solver_trace")->array) {
    const auto* exit = st.find("exit");
    ASSERT_NE(exit, nullptr);
    EXPECT_TRUE(exit->str == "decrement" || exit->str == "stall" ||
                exit->str == "feasible" || exit->str == "iter_limit")
        << exit->str;
    // ... and how many line-search trials it spent, of which the slack
    // floor rejected at most all, and how many halvings the convexity
    // bound skipped; evaluated and skipped halvings share the 70-trial
    // budget of every Newton iteration.
    const auto* trials = st.find("ls_trials");
    const auto* rejects = st.find("ls_floor_rejects");
    const auto* skipped = st.find("ls_skipped");
    const auto* iters = st.find("newton_iters");
    ASSERT_NE(trials, nullptr);
    ASSERT_NE(rejects, nullptr);
    ASSERT_NE(skipped, nullptr);
    ASSERT_NE(iters, nullptr);
    EXPECT_GE(rejects->number, 0.0);
    EXPECT_LE(rejects->number, trials->number);
    EXPECT_GE(skipped->number, 0.0);
    EXPECT_LE(trials->number + skipped->number, 70.0 * iters->number);
  }
  EXPECT_FALSE(root.find("respec")->array.empty());
}

TEST_F(ScopeReportTest, TextRenderingCarriesTheHeadlines) {
  const auto nl = make("mux", "encoded2", 2, 8);
  const auto result = size_with_snapshot(nl, 120.0);
  ASSERT_TRUE(result.ok) << result.message;
  const auto report = build_report(nl, result, tech_, {});
  const std::string text = render_text(report);
  EXPECT_NE(text.find(nl.name()), std::string::npos);
  EXPECT_NE(text.find("Startpoint:"), std::string::npos);
  EXPECT_NE(text.find("Binding constraints"), std::string::npos);
  EXPECT_NE(text.find("Respec trace"), std::string::npos);
}

TEST_F(ScopeReportTest, StubReportWithoutSnapshot) {
  const auto nl = test::inverter_chain(4);
  core::Sizer sizer(tech_, lib_);
  core::SizerOptions opt;
  opt.delay_spec_ps = 200.0;
  const auto result = sizer.size(nl, opt);  // no keep_solve_snapshot
  ASSERT_TRUE(result.ok) << result.message;
  ASSERT_EQ(result.snapshot, nullptr);

  const auto report = build_report(nl, result, tech_, {});
  EXPECT_NE(report.message.find("snapshot"), std::string::npos);
  EXPECT_TRUE(report.paths.empty());
  // Renderers must still produce well-formed output for the stub.
  EXPECT_FALSE(render_text(report).empty());
  util::JsonValue root;
  EXPECT_TRUE(util::json_parse(render_json(report), &root));
}

}  // namespace
}  // namespace smart::scope
