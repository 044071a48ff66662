#pragma once

/// \file solver.h
/// Interior-point solver for geometric programs. The GP is transformed to a
/// convex program via y = log x (posynomials become log-sum-exp functions,
/// paper refs [3][6][7]) and solved with a two-phase barrier Newton method:
///   phase I  — minimize a smoothed max of constraint functions until a
///              strictly feasible point is found or a centered stage
///              certifies that none exists;
///   phase II — standard log-barrier path following with damped Newton.
///
/// Each solve compiles its posynomials into one flat log-sum-exp table
/// that both phases share (phase I appends an auxiliary variable s and
/// reads F_j - s). A point is evaluated in one batch: every term exponent,
/// one vectorized exp over all terms and one vectorized log over the
/// per-function sums and over the slacks (util/vecmath.h). The Newton
/// system's lower triangle is assembled straight from the term weights,
/// which are kept from the accepted line-search trial, so the derivative
/// pass does not evaluate that point again.
///
/// The Newton line search accepts only steps that strictly decrease the
/// barrier value; a stage that cannot make one ends as stationary. It also
/// rejects a step that shrinks any barrier slack (a constraint's -F_j or a
/// box side) below 0.3x its value at the current iterate, the interior-point
/// fraction-to-the-boundary rule: it keeps the iterates near the central
/// path, where the stage ends on the Newton decrement test. Halvings that
/// convexity proves would break that rule are skipped unevaluated. Phase I
/// also minimizes exactly over its auxiliary variable after every step,
/// which lifts a slack that slid far below 1/t over many steps.
///
/// Guardrails: the solver never throws and never returns non-finite
/// variable values. Malformed problems, NaN/Inf surfacing mid-solve,
/// iteration exhaustion and wall-clock overrun all come back as a
/// SolveStatus plus a structured util::Status diagnostic. Only transient
/// numerical faults are retried from a perturbed starting point: both
/// phases are convex, so a new start changes neither the optimum nor the
/// feasibility verdict.

#include <cstddef>
#include <string>
#include <vector>

#include "gp/problem.h"
#include "util/linalg.h"
#include "util/status.h"

namespace smart::gp {

/// Solver knobs; defaults are tuned for SMART sizing problems (tens to a few
/// hundred variables, hundreds of constraints).
struct SolverOptions {
  double tolerance = 3e-5;       ///< duality-gap-style stopping criterion
  double binding_tol = 0.02;     ///< |lhs - 1| threshold to report binding
  double barrier_mu = 18.0;      ///< barrier parameter growth factor
  double t_initial = 1.0;        ///< initial barrier weight
  int max_newton_iters = 400;    ///< per barrier stage
  int max_barrier_stages = 60;
  double feas_margin = 1e-7;     ///< required slack to call a point feasible
  bool verbose = false;

  /// Wall-clock budget for one solve() call including restarts (ms);
  /// < 0 disables the deadline. Checked once per Newton iteration.
  double deadline_ms = -1.0;
  /// Extra solve attempts from deterministically perturbed initial points
  /// after an attempt that ended kNumericalError (NaN/Inf in a Newton step
  /// or an unsolvable Newton system). No other status is retried: phase I
  /// and phase II are convex, so a new start changes neither the optimum
  /// nor the feasibility verdict (and on the paper workloads it never
  /// turned a kMaxIter solve into a converged one).
  int restarts = 1;
  /// Seed of the deterministic restart perturbations.
  uint64_t restart_seed = 0x5eed5eedULL;

  /// Newton KKT backend. The Hessian of the barrier is a union of
  /// per-function support cliques plus the box diagonal; when its skyline
  /// profile is at most `sparse_max_fill` of the dense lower triangle and
  /// the problem has at least `sparse_min_vars` variables, the Newton
  /// systems assemble and factorize in skyline form (util::SkylineMatrix).
  /// `force_dense_kkt` pins the dense path regardless.
  int sparse_min_vars = 48;
  double sparse_max_fill = 0.5;
  bool force_dense_kkt = false;
};

enum class SolveStatus {
  kOptimal,         ///< converged to tolerance
  kInfeasible,      ///< phase I certified or exhausted without a feasible point
  kMaxIter,         ///< iteration limit hit; best point returned
  kTimeout,         ///< deadline_ms exceeded; best point returned
  kNumericalError,  ///< NaN/Inf in the problem data or a Newton step
  kInvalidInput,    ///< malformed problem (no vars, empty box, zero objective)
};

const char* to_string(SolveStatus status);

/// Post-solve view of one constraint, evaluated at the returned point.
/// `dual` is the log-barrier dual estimate lambda_j = 1 / (t_final * u_j)
/// with u_j = -log lhs_j(x) the log-domain slack; by barrier
/// complementarity lambda_j * u_j = 1/t_final, so at convergence the dual
/// is large exactly on the constraints that bind. Duals are only populated
/// for kOptimal solves (phase II finished); elsewhere they stay 0.
struct ConstraintDiagnostics {
  std::string tag;        ///< constraint tag from the GpProblem
  double lhs = 0.0;       ///< lhs(x), feasible iff <= 1
  double slack = 0.0;     ///< 1 - lhs(x)
  double log_slack = 0.0; ///< u_j = -log lhs(x)
  double dual = 0.0;      ///< barrier dual estimate (kOptimal only)
  bool binding = false;   ///< lhs within binding_tol of 1 at an optimum
};

/// Why the Newton loop of one barrier stage stopped.
enum class StageExit {
  kDecrement,  ///< Newton decrement test met: the iterate is centered
  kStall,      ///< line search found no strictly decreasing step
  kFeasible,   ///< phase I reached a strictly feasible point mid-stage
  kIterLimit,  ///< max_newton_iters exhausted
  kFailed,     ///< non-finite value, unsolvable Newton system or deadline
};

const char* to_string(StageExit exit);

/// One barrier stage of the convergence trace. Phase I stages minimize the
/// feasibility auxiliary (gap stays < 0); phase II stages report the
/// duality-gap estimate m_total / t after the stage's Newton solve.
struct StageTrace {
  int stage = 0;          ///< 0-based across both phases of the attempt
  bool phase1 = false;
  double t = 0.0;         ///< barrier weight for the stage
  int newton_iters = 0;
  bool converged = false; ///< decrement, stall or feasible exit
  double gap = -1.0;      ///< duality-gap estimate; < 0 in phase I
  StageExit exit = StageExit::kDecrement;
  int ls_trials = 0;         ///< line-search trials (barrier evaluations)
  int ls_floor_rejects = 0;  ///< of those, rejected by the slack floor
  /// Halvings skipped without a barrier evaluation because convexity
  /// proves they would fail the slack floor; ls_trials + ls_skipped is at
  /// most 70 per Newton iteration.
  int ls_skipped = 0;
};

/// Introspection record exported by every solve without perturbing it: all
/// quantities are derived from values the solver already computes (the
/// final point, the per-constraint evaluations, the barrier schedule).
struct SolveDiagnostics {
  /// Per-constraint view in GpProblem constraint order.
  std::vector<ConstraintDiagnostics> constraints;
  /// Indices into `constraints` of the binding set (kOptimal solves).
  std::vector<size_t> binding_set;
  /// Barrier-stage convergence trace of the accepted attempt.
  std::vector<StageTrace> trace;
  double final_t = 0.0;     ///< barrier weight at exit; 0 if no phase II
  double duality_gap = -1.0;///< m_total / final_t at exit; < 0 if no phase II
};

/// Result of a GP solve. x is in the original (positive) domain and always
/// finite, even on failure (failed solves return a clamped best-effort
/// point so downstream reporting never sees NaN widths).
struct GpResult {
  SolveStatus status = SolveStatus::kMaxIter;
  util::Vec x;               ///< variable values (size = vars in table)
  double objective = 0.0;    ///< objective value at x
  double max_violation = 0;  ///< max over constraints of (lhs(x) - 1)
  int newton_iterations = 0;
  int attempts = 1;          ///< solve attempts including restarts
  std::string message;
  /// Structured failure reason mirroring `status` (ok() iff kOptimal).
  util::Status diagnostics;
  /// Tags of constraints active at the solution (lhs within binding_tol of
  /// 1) — the designer's answer to "what is limiting this design".
  std::vector<std::string> binding;
  /// Full introspection record (slacks, duals, convergence trace).
  SolveDiagnostics diag;

  bool ok() const { return status == SolveStatus::kOptimal; }
};

/// Solves a geometric program. Thread-compatible (no shared state).
class GpSolver {
 public:
  explicit GpSolver(SolverOptions options = {}) : options_(options) {}

  /// Solves from the box midpoint. Never throws.
  GpResult solve(const GpProblem& problem) const;

  /// Solves warm-started from `x0` (clipped into the variable box). When
  /// x0 is already strictly feasible — the common case in the sizer's
  /// re-specification loop, where consecutive problems differ only in
  /// their constraint scaling — phase I is skipped entirely. Never throws.
  GpResult solve_from(const GpProblem& problem, const util::Vec& x0) const;

 private:
  GpResult run(const GpProblem& problem, const util::Vec* x0) const;

  SolverOptions options_;
};

}  // namespace smart::gp
