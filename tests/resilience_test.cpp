// Robustness tests for the resilient sizing pipeline: the fault injector
// itself, the GP solver's never-throw/never-NaN contract on degenerate and
// poisoned problems, the sizer's degradation ladder, and the acceptance
// sweep — the advisor must complete a full mux topology sweep under every
// fault class, reporting poisoned candidates with a concrete FailureReason
// while un-poisoned candidates size identically to the fault-free run.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>

#include "core/advisor.h"
#include "core/experiment.h"
#include "gp/solver.h"
#include "helpers.h"
#include "macros/registry.h"
#include "models/fitter.h"
#include "obs/obs.h"
#include "util/fault.h"

namespace smart {
namespace {

using core::AdvisorRequest;
using core::DesignAdvisor;
using core::Sizer;
using core::SizerOptions;
using core::SizingRung;
using gp::GpProblem;
using gp::GpResult;
using gp::GpSolver;
using gp::SolveStatus;
using posy::Monomial;
using posy::Posynomial;
using posy::VarId;
using posy::VarTable;
using util::FailureReason;
using util::FaultClass;
using util::FaultInjector;
using util::FaultScope;

// util::Vec and netlist::Sizing are both std::vector<double>.
void expect_finite(const std::vector<double>& x) {
  for (double v : x) EXPECT_TRUE(std::isfinite(v));
}

// ---------------------------------------------------------------------------
// FaultInjector mechanics
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, DisarmedPassesValuesThrough) {
  FaultInjector::instance().disarm();
  EXPECT_EQ(util::fault_corrupt(FaultClass::kModelNonFinite, "model.coeff",
                                3.25),
            3.25);
  EXPECT_FALSE(util::fault_fires(FaultClass::kSolverExhaustIters,
                                 "gp.newton"));
}

TEST(FaultInjectorTest, SiteFilterSkipHitsAndFireBudget) {
  auto& fi = FaultInjector::instance();
  fi.arm(FaultClass::kModelCoeffPerturb, "model.coeff", /*magnitude=*/2.0,
         /*skip_hits=*/1, /*max_fires=*/2);
  // Non-matching site: passes through, no hit counted.
  EXPECT_EQ(util::fault_corrupt(FaultClass::kModelCoeffPerturb, "gp.newton",
                                1.0),
            1.0);
  EXPECT_EQ(fi.hits(), 0);
  // First matching hit is skipped, the next two fire, then the budget is
  // spent and later hits pass through untouched.
  EXPECT_EQ(util::fault_corrupt(FaultClass::kModelCoeffPerturb,
                                "model.coeff.a_rc", 1.0),
            1.0);
  EXPECT_EQ(util::fault_corrupt(FaultClass::kModelCoeffPerturb,
                                "model.coeff.a_rc", 1.0),
            2.0);
  EXPECT_EQ(util::fault_corrupt(FaultClass::kModelCoeffPerturb,
                                "model.coeff.a_rc", 1.0),
            2.0);
  EXPECT_EQ(util::fault_corrupt(FaultClass::kModelCoeffPerturb,
                                "model.coeff.a_rc", 1.0),
            1.0);
  EXPECT_EQ(fi.hits(), 4);
  EXPECT_EQ(fi.fired(), 2);
  fi.disarm();
  EXPECT_EQ(util::fault_corrupt(FaultClass::kModelCoeffPerturb,
                                "model.coeff.a_rc", 1.0),
            1.0);
}

TEST(FaultInjectorTest, NonFiniteClassesPoisonWithNaN) {
  FaultScope scope(FaultClass::kTimerNonFinite);
  EXPECT_TRUE(std::isnan(
      util::fault_corrupt(FaultClass::kTimerNonFinite, "refsim.delay", 5.0)));
}

// ---------------------------------------------------------------------------
// GpSolver guardrails: degenerate problems come back as structured
// failures with finite fallback points — never an exception, never NaN.
// ---------------------------------------------------------------------------

GpProblem simple_problem(VarTable& vars) {
  const VarId x = vars.add("x", 1e-3, 1e3);
  GpProblem p(vars);
  p.set_objective(Posynomial::variable(x));
  p.add_constraint(Posynomial(Monomial(3.0) * Monomial::variable(x, -1)),
                   "x>=3");
  return p;
}

TEST(GpResilienceTest, MissingObjectiveIsInvalidInput) {
  VarTable vars;
  vars.add("x", 0.5, 2.0);
  GpProblem p(vars);
  const GpResult r = GpSolver().solve(p);
  EXPECT_EQ(r.status, SolveStatus::kInvalidInput);
  EXPECT_EQ(r.diagnostics.reason, FailureReason::kInvalidInput);
  ASSERT_EQ(r.x.size(), 1u);
  expect_finite(r.x);
}

TEST(GpResilienceTest, NonFiniteExponentIsNumericalError) {
  VarTable vars;
  const VarId x = vars.add("x", 1e-3, 1e3);
  GpProblem p(vars);
  p.set_objective(Posynomial::variable(x));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  p.add_constraint(Posynomial(Monomial(0.5) * Monomial::variable(x, nan)),
                   "poisoned");
  const GpResult r = GpSolver().solve(p);
  EXPECT_EQ(r.status, SolveStatus::kNumericalError);
  EXPECT_EQ(r.diagnostics.reason, FailureReason::kNumericalError);
  expect_finite(r.x);
}

TEST(GpResilienceTest, InfeasibleCarriesDiagnosticsAndFinitePoint) {
  VarTable vars;
  const VarId x = vars.add("x", 1e-3, 1e3);
  GpProblem p(vars);
  p.set_objective(Posynomial::variable(x));
  p.add_constraint(Posynomial(Monomial(2.0) * Monomial::variable(x)),
                   "x<=0.5");
  p.add_constraint(Posynomial(Monomial(2.0) * Monomial::variable(x, -1)),
                   "x>=2");
  const GpResult r = GpSolver().solve(p);
  EXPECT_EQ(r.status, SolveStatus::kInfeasible);
  EXPECT_EQ(r.diagnostics.reason, FailureReason::kInfeasible);
  EXPECT_FALSE(r.diagnostics.detail.empty());
  expect_finite(r.x);
}

TEST(GpResilienceTest, ExpiredDeadlineReturnsTimeout) {
  VarTable vars;
  GpProblem p = simple_problem(vars);
  gp::SolverOptions opt;
  opt.deadline_ms = 0.0;  // already expired when solve starts
  const GpResult r = GpSolver(opt).solve(p);
  EXPECT_EQ(r.status, SolveStatus::kTimeout);
  EXPECT_EQ(r.diagnostics.reason, FailureReason::kTimeout);
  expect_finite(r.x);
}

TEST(GpResilienceTest, ForcedIterationExhaustionIsMaxIter) {
  // Unconstrained problem: phase I is skipped, so the forced exhaustion in
  // phase II surfaces as kMaxIter rather than a phase I infeasibility.
  VarTable vars;
  const VarId x = vars.add("x", 1e-3, 1e3);
  GpProblem p(vars);
  p.set_objective(Posynomial::variable(x));
  FaultScope scope(FaultClass::kSolverExhaustIters, "gp.newton");
  const GpResult r = GpSolver().solve(p);
  EXPECT_EQ(r.status, SolveStatus::kMaxIter);
  EXPECT_EQ(r.diagnostics.reason, FailureReason::kMaxIter);
  // The problem is convex: a jittered restart would exhaust the same
  // budget, so an exhausted solve is not retried.
  EXPECT_EQ(r.attempts, 1);
  expect_finite(r.x);
}

TEST(GpResilienceTest, NonFiniteNewtonValueIsNumericalError) {
  VarTable vars;
  GpProblem p = simple_problem(vars);
  FaultScope scope(FaultClass::kSolverNonFinite, "gp.newton.phi");
  const GpResult r = GpSolver().solve(p);
  EXPECT_EQ(r.status, SolveStatus::kNumericalError);
  EXPECT_EQ(r.diagnostics.reason, FailureReason::kNumericalError);
  expect_finite(r.x);
}

TEST(GpResilienceTest, MultiStartRecoversFromTransientFault) {
  // Poison exactly the first Newton evaluation: attempt 1 dies with a
  // numerical error, the restart runs clean and must find the optimum.
  VarTable vars;
  GpProblem p = simple_problem(vars);
  FaultScope scope(FaultClass::kSolverNonFinite, "gp.newton.phi",
                   /*magnitude=*/10.0, /*skip_hits=*/0, /*max_fires=*/1);
  gp::SolverOptions sopt;
  sopt.restarts = 2;
  const GpResult r = GpSolver(sopt).solve(p);
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_GE(r.attempts, 2);
  EXPECT_NEAR(r.x[0], 3.0, 0.05);
}

TEST(GpResilienceTest, HighWeightStageDoesNotExhaustNewtonBudget) {
  // Regression: the first GP of Table 1's 4:1 x 8-bit tri-state mux at
  // 40 fF (4 variables, 184 constraints) spent a whole 400-iteration Newton
  // stage at t ~ 3.4e7 on line-search steps that left the barrier value
  // unchanged, so the solve ended kMaxIter.
  core::MacroSpec spec;
  spec.type = "mux";
  spec.n = 4;
  spec.params["bits"] = 8;
  spec.load_ff = 40.0;
  const auto* entry = macros::builtin_database().find("mux", "tristate");
  ASSERT_NE(entry, nullptr);
  const auto nl = entry->generate(spec);
  core::IsoDelayOptions opt;
  opt.sizer.max_respec_iters = 1;
  opt.sizer.keep_solve_snapshot = true;
  opt.sizer.allow_relaxed_retry = false;
  opt.sizer.allow_baseline_fallback = false;
  const auto cmp = core::run_iso_delay(nl, tech::default_tech(),
                                       models::default_library(), opt);
  ASSERT_NE(cmp.smart.snapshot, nullptr) << cmp.smart.message;
  const auto& snap = *cmp.smart.snapshot;
  ASSERT_EQ(snap.gen.problem->vars().size(), 4u);
  ASSERT_EQ(snap.gen.problem->constraints().size(), 184u);
  const GpResult& r = snap.gp;
  EXPECT_EQ(r.attempts, 1);
  EXPECT_EQ(r.status, SolveStatus::kOptimal) << r.message;
  ASSERT_FALSE(r.diag.trace.empty());
  for (const auto& st : r.diag.trace) {
    EXPECT_LT(st.newton_iters, gp::SolverOptions{}.max_newton_iters)
        << "stage " << st.stage << " at t " << st.t;
    EXPECT_NE(st.exit, gp::StageExit::kIterLimit) << "stage " << st.stage;
  }
}

TEST(GpResilienceTest, SplitDominoMuxConvergesWithoutPhaseOneIterLimit) {
  // Regression: Table 1's 16:1 x 16-bit split-domino mux at 16 fF (power
  // cost) never converged. Armijo-accepted full steps collapsed a phase-I
  // slack to ~1e-8, so phase-I stages ran out their Newton budget and the
  // respec loop alternated between uncertified infeasible and kMaxIter
  // solves. The slack floor of the line search keeps phase I centered.
  core::MacroSpec spec;
  spec.type = "mux";
  spec.n = 16;
  spec.params["bits"] = 16;
  spec.load_ff = 16.0;
  const auto* entry = macros::builtin_database().find("mux", "domino_split");
  ASSERT_NE(entry, nullptr);
  const auto nl = entry->generate(spec);
  core::IsoDelayOptions opt;
  opt.sizer.cost = core::CostMetric::kPower;
  auto& tel = obs::Telemetry::instance();
  tel.reset();
  tel.enable(true);
  const auto cmp = core::run_iso_delay(nl, tech::default_tech(),
                                       models::default_library(), opt);
  tel.enable(false);
  EXPECT_TRUE(cmp.ok) << cmp.smart.message;
  EXPECT_EQ(cmp.smart.rung, SizingRung::kGp);
  EXPECT_EQ(cmp.smart.message, "converged");
  EXPECT_GT(tel.counter("gp.solve.calls"), 0.0);
  EXPECT_GT(tel.counter("gp.stage.phase1.decrement") +
                tel.counter("gp.stage.phase1.feasible"),
            0.0)
      << "no phase-I stage ran";
  EXPECT_EQ(tel.counter("gp.stage.phase1.iter_limit"), 0.0);
  tel.reset();
}

TEST(GpResilienceTest, DecoderRespecSolvesNeverEndMaxIter) {
  // Regression: the Fig 5(c) 6:64 decoder at 20 fF had a warm-started
  // respec solve whose phase-II stages all hit the Newton budget (kMaxIter).
  core::MacroSpec spec;
  spec.type = "decoder";
  spec.n = 6;
  spec.load_ff = 20.0;
  const auto* entry = macros::builtin_database().find("decoder", "predecode");
  ASSERT_NE(entry, nullptr);
  const auto nl = entry->generate(spec);
  const auto cmp = core::run_iso_delay(nl, tech::default_tech(),
                                       models::default_library());
  EXPECT_TRUE(cmp.ok) << cmp.smart.message;
  ASSERT_FALSE(cmp.smart.respec_trace.empty());
  for (const auto& it : cmp.smart.respec_trace)
    EXPECT_NE(it.gp_status, SolveStatus::kMaxIter) << "respec iter " << it.iter;
}

TEST(GpResilienceTest, DecoderIsoDelayNewtonEffortStaysBounded) {
  // One-sided effort bound on the Fig 5(c) 7:128 decoder iso-delay sizing
  // at 10 fF, whose three respec solves took at most 2,378 Newton
  // iterations before the flat barrier kernel (2,360 in a RelWithDebInfo
  // build). A wrong Hessian term still converges to matching widths, but
  // only after extra iterations.
  core::MacroSpec spec;
  spec.type = "decoder";
  spec.n = 7;
  spec.load_ff = 10.0;
  const auto* entry = macros::builtin_database().find("decoder", "predecode");
  ASSERT_NE(entry, nullptr);
  const auto nl = entry->generate(spec);
  const auto cmp = core::run_iso_delay(nl, tech::default_tech(),
                                       models::default_library());
  ASSERT_TRUE(cmp.ok) << cmp.smart.message;
  EXPECT_LE(cmp.smart.gp_newton_iterations, static_cast<int>(1.01 * 2378));
}

// ---------------------------------------------------------------------------
// Sizer degradation ladder
// ---------------------------------------------------------------------------

class SizerResilienceTest : public ::testing::Test {
 protected:
  const tech::Tech& tech_ = tech::default_tech();
  const models::ModelLibrary& lib_ = models::default_library();
  Sizer sizer_{tech_, lib_};
  netlist::Netlist nl_ = test::inverter_chain(3, 30.0);

  SizerOptions options() const {
    SizerOptions opt;
    opt.delay_spec_ps = 150.0;
    return opt;
  }
};

TEST_F(SizerResilienceTest, TransientModelPoisonDegradesToRelaxedGp) {
  // One poisoned coefficient kills the rung-1 constraint generation; the
  // rung-2 relaxed retry regenerates clean and still optimizes.
  FaultScope scope(FaultClass::kModelNonFinite, "model.coeff",
                   /*magnitude=*/10.0, /*skip_hits=*/0, /*max_fires=*/1);
  const auto res = sizer_.size(nl_, options());
  ASSERT_TRUE(res.ok) << res.message;
  EXPECT_EQ(res.rung, SizingRung::kGpRelaxed);
  EXPECT_NE(res.message.find("relaxed"), std::string::npos);
  expect_finite(res.sizing);
}

TEST_F(SizerResilienceTest, PersistentModelPoisonFallsBackToBaseline) {
  FaultScope scope(FaultClass::kModelNonFinite, "model.coeff");
  const auto res = sizer_.size(nl_, options());
  ASSERT_TRUE(res.ok) << res.message;
  EXPECT_EQ(res.rung, SizingRung::kBaseline);
  EXPECT_EQ(res.status.reason, FailureReason::kNumericalError);
  EXPECT_NE(res.message.find("baseline"), std::string::npos);
  expect_finite(res.sizing);
  EXPECT_TRUE(std::isfinite(res.measured_delay_ps));
}

TEST_F(SizerResilienceTest, LadderDisabledReportsStructuredFailure) {
  FaultScope scope(FaultClass::kModelNonFinite, "model.coeff");
  SizerOptions opt = options();
  opt.allow_relaxed_retry = false;
  opt.allow_baseline_fallback = false;
  const auto res = sizer_.size(nl_, opt);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.status.reason, FailureReason::kNumericalError);
  EXPECT_FALSE(res.status.detail.empty());
}

TEST_F(SizerResilienceTest, PoisonedTimerNeverThrowsOrReturnsNaN) {
  // With the reference timer poisoned even the baseline fallback cannot be
  // verified; the sizer must fail with a structured reason, not throw.
  FaultScope scope(FaultClass::kTimerNonFinite, "refsim.delay");
  const auto res = sizer_.size(nl_, options());
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.status.reason, FailureReason::kNumericalError);
  expect_finite(res.sizing);
}

TEST_F(SizerResilienceTest, SolverPoisonFallsBackToBaseline) {
  FaultScope scope(FaultClass::kSolverNonFinite, "gp.newton.phi");
  const auto res = sizer_.size(nl_, options());
  ASSERT_TRUE(res.ok) << res.message;
  EXPECT_EQ(res.rung, SizingRung::kBaseline);
  EXPECT_EQ(res.status.reason, FailureReason::kNumericalError);
  expect_finite(res.sizing);
}

// ---------------------------------------------------------------------------
// Acceptance sweep: the advisor completes a full mux topology sweep under
// every fault class.
// ---------------------------------------------------------------------------

class AdvisorResilienceTest : public ::testing::Test {
 protected:
  const tech::Tech& tech_ = tech::default_tech();
  const models::ModelLibrary& lib_ = models::default_library();
  DesignAdvisor advisor_{macros::builtin_database(), tech_, lib_};

  AdvisorRequest request() const {
    AdvisorRequest req;
    req.spec.type = "mux";
    req.spec.n = 4;
    req.spec.params["bits"] = 4;
    req.spec.load_ff = 12.0;
    req.delay_spec_ps = 200.0;  // explicit: keep spec derivation off the
                                // fault-injected paths
    req.parallel = false;       // deterministic candidate order
    return req;
  }

  size_t applicable_count() const {
    const auto req = request();
    return macros::builtin_database().topologies("mux", &req.spec).size();
  }
};

TEST_F(AdvisorResilienceTest, SweepCompletesUnderEveryFaultClass) {
  const FaultClass classes[] = {
      FaultClass::kModelCoeffPerturb, FaultClass::kModelNonFinite,
      FaultClass::kSolverNonFinite,   FaultClass::kSolverExhaustIters,
      FaultClass::kTimerPerturb,      FaultClass::kTimerNonFinite,
  };
  const size_t total = applicable_count();
  ASSERT_GE(total, 2u);
  for (const FaultClass fault : classes) {
    SCOPED_TRACE(util::to_string(fault));
    FaultScope scope(fault);
    const auto advice = advisor_.advise(request());
    // Every applicable topology is accounted for: ranked or reported.
    EXPECT_EQ(advice.solutions.size() + advice.failures.size(), total);
    for (const auto& fail : advice.failures) {
      EXPECT_NE(fail.status.reason, FailureReason::kNone)
          << fail.topology << ": " << fail.message;
      EXPECT_FALSE(fail.topology.empty());
      // Failed candidates carry their wall time too — a sweep report must
      // show where the time went even when a candidate died early.
      EXPECT_GT(fail.wall_ms, 0.0) << fail.topology;
    }
    for (const auto& sol : advice.solutions) {
      expect_finite(sol.sizing.sizing);
      EXPECT_TRUE(std::isfinite(sol.cost_value));
    }
  }
  // NaN fault classes must actually surface failures, not silently rank
  // poisoned candidates.
  {
    FaultScope scope(FaultClass::kModelNonFinite);
    const auto advice = advisor_.advise(request());
    EXPECT_EQ(advice.failures.size(), total);
    for (const auto& fail : advice.failures)
      EXPECT_EQ(fail.status.reason, FailureReason::kNumericalError);
  }
  {
    FaultScope scope(FaultClass::kTimerNonFinite);
    const auto advice = advisor_.advise(request());
    EXPECT_EQ(advice.failures.size(), total);
    EXPECT_TRUE(advice.solutions.empty());
  }
}

TEST_F(AdvisorResilienceTest, UnpoisonedCandidatesMatchFaultFreeSizing) {
  // Poison only the first candidate (single fire, ladder shortened to the
  // baseline fallback): it must land in failures with a concrete reason
  // while every other topology sizes exactly as in the fault-free sweep.
  AdvisorRequest req = request();
  req.sizer.allow_relaxed_retry = false;

  const auto clean = advisor_.advise(req);
  ASSERT_GE(clean.solutions.size(), 2u) << clean.message;
  EXPECT_TRUE(clean.failures.empty());
  std::map<std::string, double> clean_width;
  for (const auto& sol : clean.solutions)
    clean_width[sol.topology] = sol.sizing.total_width_um;

  FaultScope scope(FaultClass::kModelNonFinite, "model.coeff",
                   /*magnitude=*/10.0, /*skip_hits=*/0, /*max_fires=*/1);
  const auto faulted = advisor_.advise(req);
  ASSERT_EQ(faulted.failures.size(), 1u) << faulted.message;
  const auto& fail = faulted.failures.front();
  EXPECT_EQ(fail.status.reason, FailureReason::kNumericalError);
  EXPECT_EQ(fail.rung, SizingRung::kBaseline);
  EXPECT_GT(fail.wall_ms, 0.0);
  EXPECT_EQ(faulted.solutions.size(), clean.solutions.size() - 1u);
  for (const auto& sol : faulted.solutions) {
    ASSERT_NE(sol.topology, fail.topology);
    const auto it = clean_width.find(sol.topology);
    ASSERT_NE(it, clean_width.end()) << sol.topology;
    EXPECT_NEAR(sol.sizing.total_width_um, it->second,
                1e-6 * it->second + 1e-9)
        << sol.topology;
  }
}

}  // namespace
}  // namespace smart
