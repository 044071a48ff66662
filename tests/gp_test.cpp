// Tests for the geometric-program solver: analytic optima, infeasibility
// detection, box bounds, and randomized feasible-by-construction problems.

#include <gtest/gtest.h>

#include <cmath>

#include "gp/solver.h"
#include "util/rng.h"

namespace smart::gp {
namespace {

using posy::Monomial;
using posy::Posynomial;
using posy::VarId;
using posy::VarTable;

/// Phase-I stages the barrier schedule runs when no certificate stops it:
/// it ends once (constraint count) / t falls below the tolerance.
int uncertified_phase1_stages(size_t constraints, const SolverOptions& o) {
  int stages = 1;
  for (double t = 1.0; static_cast<double>(constraints) / t >= o.tolerance;
       t *= o.barrier_mu)
    ++stages;
  return stages;
}

int phase1_stages(const GpResult& r) {
  int stages = 0;
  for (const auto& st : r.diag.trace) stages += st.phase1 ? 1 : 0;
  return stages;
}

/// A certified verdict: one attempt, a phase I cut short of the full
/// schedule, ending on a centered (decrement-test) stage.
void expect_certified_infeasible(const GpResult& r, size_t constraints) {
  EXPECT_EQ(r.status, SolveStatus::kInfeasible);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_NE(r.message.find("certified"), std::string::npos) << r.message;
  EXPECT_LT(phase1_stages(r), uncertified_phase1_stages(constraints, {}));
  ASSERT_FALSE(r.diag.trace.empty());
  EXPECT_EQ(r.diag.trace.back().exit, StageExit::kDecrement);
}

TEST(GpProblemTest, DropsTrivialAndRejectsImpossibleConstants) {
  VarTable vars;
  vars.add("x");
  GpProblem p(vars);
  p.add_constraint(Posynomial(0.5), "ok");
  EXPECT_TRUE(p.constraints().empty());
  EXPECT_THROW(p.add_constraint(Posynomial(2.0), "bad"), util::Error);
}

TEST(GpSolverTest, AnalyticOptimum) {
  // min x + 2y s.t. xy >= 1: optimum x = sqrt(2), y = 1/sqrt(2).
  VarTable vars;
  const VarId x = vars.add("x", 1e-3, 1e3);
  const VarId y = vars.add("y", 1e-3, 1e3);
  GpProblem p(vars);
  p.set_objective(Posynomial::variable(x) + 2.0 * Posynomial::variable(y));
  p.add_constraint(
      Posynomial(Monomial::variable(x, -1) * Monomial::variable(y, -1)),
      "xy>=1");
  const GpResult r = GpSolver().solve(p);
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_NEAR(r.objective, 2.0 * std::sqrt(2.0), 1e-3);
  EXPECT_NEAR(r.x[0], std::sqrt(2.0), 1e-2);
  EXPECT_NEAR(r.x[1], 1.0 / std::sqrt(2.0), 1e-2);
  EXPECT_LE(r.max_violation, 1e-6);
}

TEST(GpSolverTest, UnconstrainedGoesToLowerBounds) {
  VarTable vars;
  const VarId x = vars.add("x", 0.25, 8.0);
  GpProblem p(vars);
  p.set_objective(Posynomial::variable(x));
  const GpResult r = GpSolver().solve(p);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.x[0], 0.25, 0.02);
}

TEST(GpSolverTest, DetectsInfeasible) {
  VarTable vars;
  const VarId x = vars.add("x", 1e-3, 1e3);
  const VarId y = vars.add("y", 1e-3, 1e3);
  GpProblem p(vars);
  p.set_objective(Posynomial::variable(x) + Posynomial::variable(y));
  // x <= 0.5 and x >= 2 simultaneously.
  p.add_constraint(Posynomial(Monomial(2.0) * Monomial::variable(x)),
                   "x<=0.5");
  p.add_constraint(Posynomial(Monomial(2.0) * Monomial::variable(x, -1)),
                   "x>=2");
  const GpResult r = GpSolver().solve(p);
  expect_certified_infeasible(r, 2);
}

TEST(GpSolverTest, BoundsInfeasibilityViaConstraint) {
  VarTable vars;
  const VarId x = vars.add("x", 1.0, 2.0);
  GpProblem p(vars);
  p.set_objective(Posynomial::variable(x));
  // Requires x >= 5 but the box caps x at 2.
  p.add_constraint(Posynomial(Monomial(5.0) * Monomial::variable(x, -1)),
                   "x>=5");
  const GpResult r = GpSolver().solve(p);
  expect_certified_infeasible(r, 1);
}

TEST(GpSolverTest, NarrowFeasibleBandIsNeverCertified) {
  // 2 <= x <= 2 * (1 + 1e-6): feasible with 1e-6 relative slack, so the
  // certificate must never fire and the solve must reach the optimum x = 2.
  VarTable vars;
  const VarId x = vars.add("x", 1e-3, 1e3);
  GpProblem p(vars);
  p.set_objective(Posynomial::variable(x));
  p.add_constraint(Posynomial(Monomial(2.0) * Monomial::variable(x, -1)),
                   "x>=2");
  p.add_constraint(
      Posynomial(Monomial(1.0 / (2.0 * (1.0 + 1e-6))) * Monomial::variable(x)),
      "x<=2(1+1e-6)");
  const GpResult r = GpSolver().solve(p);
  ASSERT_EQ(r.status, SolveStatus::kOptimal) << r.message;
  EXPECT_EQ(r.attempts, 1);
  EXPECT_NEAR(r.x[0], 2.0, 1e-5);
  EXPECT_LE(r.max_violation, 0.0);
}

TEST(GpSolverTest, EqualityPinnedOptimum) {
  // min x s.t. 3/x <= 1: optimum exactly at the constraint, x = 3.
  VarTable vars;
  const VarId x = vars.add("x", 1e-2, 1e4);
  GpProblem p(vars);
  p.set_objective(Posynomial::variable(x));
  p.add_constraint(Posynomial(Monomial(3.0) * Monomial::variable(x, -1)),
                   "x>=3");
  const GpResult r = GpSolver().solve(p);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.x[0], 3.0, 1e-2);
}

TEST(GpSolverTest, MultiTermConstraint) {
  // min x + y s.t. 1/x + 1/y <= 1 -> x = y = 2 by symmetry.
  VarTable vars;
  const VarId x = vars.add("x", 1e-3, 1e3);
  const VarId y = vars.add("y", 1e-3, 1e3);
  GpProblem p(vars);
  p.set_objective(Posynomial::variable(x) + Posynomial::variable(y));
  p.add_constraint(Posynomial::variable(x, -1.0) +
                       Posynomial::variable(y, -1.0),
                   "harmonic");
  const GpResult r = GpSolver().solve(p);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.x[0], 2.0, 2e-2);
  EXPECT_NEAR(r.x[1], 2.0, 2e-2);
}

TEST(GpSolverTest, AddLeNormalizes) {
  VarTable vars;
  const VarId x = vars.add("x", 1e-3, 1e3);
  GpProblem p(vars);
  p.set_objective(Posynomial::variable(x));
  // x >= 4 expressed as 4 <= x.
  p.add_le(Posynomial(4.0), Monomial::variable(x), "4<=x");
  const GpResult r = GpSolver().solve(p);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.x[0], 4.0, 4e-2);
}

// Property: random GPs constructed around a known strictly feasible point
// must solve, satisfy all constraints, and beat (or match) that point.
TEST(GpSolverProperty, RandomFeasibleProblems) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 15; ++trial) {
    const int n = rng.uniform_int(2, 5);
    VarTable vars;
    std::vector<VarId> ids;
    for (int i = 0; i < n; ++i)
      ids.push_back(vars.add("v" + std::to_string(i), 1e-3, 1e3));
    util::Vec feasible(static_cast<size_t>(n));
    for (auto& v : feasible) v = rng.uniform(0.5, 5.0);

    GpProblem p(vars);
    Posynomial obj;
    for (int i = 0; i < n; ++i)
      obj += Monomial(rng.uniform(0.5, 2.0)) * Monomial::variable(ids[static_cast<size_t>(i)]);
    p.set_objective(obj);

    const int m = rng.uniform_int(1, 5);
    for (int c = 0; c < m; ++c) {
      Posynomial lhs;
      const int terms = rng.uniform_int(1, 3);
      for (int t = 0; t < terms; ++t) {
        Monomial mono(rng.uniform(0.1, 2.0));
        for (int i = 0; i < n; ++i)
          mono.mul_var(ids[static_cast<size_t>(i)],
                       static_cast<double>(rng.uniform_int(-2, 2)));
        lhs += mono;
      }
      if (lhs.is_zero() || lhs.is_constant()) continue;
      // Scale so the feasible point satisfies lhs <= 1 with 20% slack.
      const double at = lhs.eval(feasible);
      lhs *= 0.8 / at;
      p.add_constraint(lhs, "c" + std::to_string(c));
    }

    const GpResult r = GpSolver().solve(p);
    ASSERT_TRUE(r.ok()) << "trial " << trial << ": " << r.message;
    EXPECT_LE(r.max_violation, 1e-5) << "trial " << trial;
    EXPECT_LE(r.objective, obj.eval(feasible) * (1.0 + 1e-6))
        << "trial " << trial;
  }
}

TEST(GpSolverTest, WarmStartFromOptimumIsCheap) {
  VarTable vars;
  const VarId x = vars.add("x", 1e-3, 1e3);
  const VarId y = vars.add("y", 1e-3, 1e3);
  GpProblem p(vars);
  p.set_objective(Posynomial::variable(x) + 2.0 * Posynomial::variable(y));
  p.add_constraint(
      Posynomial(Monomial::variable(x, -1) * Monomial::variable(y, -1)),
      "xy>=1");
  const GpResult cold = GpSolver().solve(p);
  ASSERT_TRUE(cold.ok());
  const GpResult warm = GpSolver().solve_from(p, cold.x);
  ASSERT_TRUE(warm.ok());
  EXPECT_NEAR(warm.objective, cold.objective, 1e-4 * cold.objective);
  // Starting at the optimum can never cost more Newton steps than the
  // cold solve (it skips phase I and all centering line searches accept
  // immediately).
  EXPECT_LE(warm.newton_iterations, cold.newton_iterations);
}

TEST(GpSolverTest, WarmStartFromInfeasiblePointRecovers) {
  VarTable vars;
  const VarId x = vars.add("x", 1e-3, 1e3);
  GpProblem p(vars);
  p.set_objective(Posynomial::variable(x));
  p.add_constraint(Posynomial(Monomial(3.0) * Monomial::variable(x, -1)),
                   "x>=3");
  const GpResult r = GpSolver().solve_from(p, {0.01});  // violates x>=3
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_NEAR(r.x[0], 3.0, 0.05);
}

TEST(GpSolverTest, WarmStartRejectsWrongSize) {
  VarTable vars;
  vars.add("x");
  GpProblem p(vars);
  p.set_objective(Posynomial::variable(0));
  // The solver never throws: a malformed call comes back as a structured
  // kInvalidInput result with a finite fallback point.
  const auto r = GpSolver().solve_from(p, {1.0, 2.0});
  EXPECT_EQ(r.status, SolveStatus::kInvalidInput);
  EXPECT_EQ(r.diagnostics.reason, util::FailureReason::kInvalidInput);
  ASSERT_EQ(r.x.size(), 1u);
  EXPECT_TRUE(std::isfinite(r.x[0]));
}

TEST(GpSolverTest, ReportsNewtonIterations) {
  VarTable vars;
  const VarId x = vars.add("x", 1e-3, 1e3);
  GpProblem p(vars);
  p.set_objective(Posynomial::variable(x));
  p.add_constraint(Posynomial(Monomial(2.0) * Monomial::variable(x, -1)),
                   "x>=2");
  const GpResult r = GpSolver().solve(p);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.newton_iterations, 0);
}

}  // namespace
}  // namespace smart::gp
