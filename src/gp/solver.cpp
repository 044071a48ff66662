#include "gp/solver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>

#include "obs/obs.h"
#include "prof/resource.h"
#include "util/check.h"
#include "util/deadline.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/strfmt.h"
#include "util/vecmath.h"

namespace smart::gp {
namespace {

using util::FailureReason;
using util::Matrix;
using util::Status;
using util::Vec;

/// A compiled convex function in the log domain:
///   F(y) = log sum_k exp(logc_k + a_k . y)  +  linear . y + linear_const
/// The optional linear part supports the phase-I auxiliary variable
/// (F_j(y) - s) without special-casing the Newton machinery.
///
/// Evaluation is support-local: gradients and Hessians are produced on the
/// function's own variable support and scattered by the caller, so the
/// per-constraint cost is O(|support|^2), not O(n^2).
struct Func {
  struct Term {
    double logc = 0.0;
    // (support-local index, exponent) pairs
    std::vector<std::pair<int, double>> factors;
  };
  std::vector<Term> terms;
  std::vector<int> support;        ///< global var ids touched by LSE part
  std::vector<int> linear_vars;    ///< global var ids of linear part
  std::vector<double> linear_coef;
  double linear_const = 0.0;
  /// union of support and linear_vars; gradient lives on these entries.
  std::vector<int> full_support;

  void finish() {
    full_support = support;
    for (int v : linear_vars)
      if (std::find(full_support.begin(), full_support.end(), v) ==
          full_support.end())
        full_support.push_back(v);
  }

  /// Value only; `scratch_z` is a caller-owned buffer reused across calls
  /// (the per-call vector churn dominated small-problem solve profiles).
  double value_at(const Vec& y, std::vector<double>& scratch_z) const {
    double value = linear_const;
    for (size_t i = 0; i < linear_vars.size(); ++i)
      value += linear_coef[i] * y[static_cast<size_t>(linear_vars[i])];
    if (terms.empty()) return value;
    double zmax = -std::numeric_limits<double>::infinity();
    scratch_z.resize(terms.size());
    for (size_t k = 0; k < terms.size(); ++k) {
      double zk = terms[k].logc;
      for (const auto& [li, e] : terms[k].factors)
        zk += e * y[static_cast<size_t>(support[static_cast<size_t>(li)])];
      scratch_z[k] = zk;
      zmax = std::max(zmax, zk);
    }
    const double denom =
        util::sum_exp_shifted(scratch_z.data(), zmax, terms.size());
    return value + zmax + std::log(denom);
  }

  /// Value plus local derivatives. g_local is indexed by full_support
  /// (gradient), h_local row-major |support| x |support| (LSE Hessian; the
  /// linear part has none). Buffers are resized here; callers reuse them.
  double eval_local(const Vec& y, std::vector<double>& g_local,
                    std::vector<double>& h_local,
                    std::vector<double>& scratch_z,
                    std::vector<double>& scratch_g) const {
    g_local.assign(full_support.size(), 0.0);
    double value = linear_const;
    for (size_t i = 0; i < linear_vars.size(); ++i) {
      value += linear_coef[i] * y[static_cast<size_t>(linear_vars[i])];
      // linear vars are appended after support in full_support order; find
      // their slot (few entries, linear scan is fine).
      for (size_t fi = 0; fi < full_support.size(); ++fi)
        if (full_support[fi] == linear_vars[i]) {
          g_local[fi] += linear_coef[i];
          break;
        }
    }
    const size_t sz = support.size();
    h_local.assign(sz * sz, 0.0);
    if (terms.empty()) return value;

    scratch_z.resize(terms.size());
    double zmax = -std::numeric_limits<double>::infinity();
    for (size_t k = 0; k < terms.size(); ++k) {
      double zk = terms[k].logc;
      for (const auto& [li, e] : terms[k].factors)
        zk += e * y[static_cast<size_t>(support[static_cast<size_t>(li)])];
      scratch_z[k] = zk;
      zmax = std::max(zmax, zk);
    }
    const double denom = util::exp_shifted(scratch_z.data(), zmax,
                                           scratch_z.data(), terms.size());
    value += zmax + std::log(denom);

    // softmax weights p_k; gradient over support slots [0, sz).
    scratch_g.assign(sz, 0.0);
    std::vector<double>& g_lse = scratch_g;
    for (size_t k = 0; k < terms.size(); ++k) {
      const double pk = scratch_z[k] / denom;
      for (const auto& [li, e] : terms[k].factors) {
        g_lse[static_cast<size_t>(li)] += pk * e;
        for (const auto& [lj, ej] : terms[k].factors)
          h_local[static_cast<size_t>(li) * sz + static_cast<size_t>(lj)] +=
              pk * e * ej;
      }
    }
    for (size_t i = 0; i < sz; ++i) {
      g_local[i] += g_lse[i];
      for (size_t j = 0; j < sz; ++j)
        h_local[i * sz + j] -= g_lse[i] * g_lse[j];
    }
    return value;
  }
};

/// Compiles a posynomial into a Func over n_total log-variables.
Func compile(const posy::Posynomial& p) {
  Func f;
  std::vector<int> support;
  for (const auto& t : p.terms())
    for (const auto& fac : t.factors()) support.push_back(fac.var);
  std::sort(support.begin(), support.end());
  support.erase(std::unique(support.begin(), support.end()), support.end());
  f.support = support;
  auto local = [&](int var) {
    return static_cast<int>(
        std::lower_bound(support.begin(), support.end(), var) -
        support.begin());
  };
  for (const auto& t : p.terms()) {
    SMART_CHECK(t.coeff() > 0.0, "GP terms must have positive coefficients");
    Func::Term ct;
    ct.logc = std::log(t.coeff());
    for (const auto& fac : t.factors())
      ct.factors.emplace_back(local(fac.var), fac.exp);
    f.terms.push_back(std::move(ct));
  }
  f.finish();
  return f;
}

/// Validates problem data before any numerics touch it: every coefficient
/// must be finite and positive, every exponent finite, the box non-empty.
/// Returns the structured reason a solve cannot proceed, or Ok.
Status validate_problem(const GpProblem& problem) {
  if (problem.vars().size() == 0)
    return Status::Fail(FailureReason::kInvalidInput, "GP has no variables");
  if (problem.objective().is_zero())
    return Status::Fail(FailureReason::kInvalidInput, "GP objective not set");
  for (size_t i = 0; i < problem.vars().size(); ++i) {
    const auto& info = problem.vars().info(static_cast<posy::VarId>(i));
    if (!(info.lower > 0.0) || !std::isfinite(info.lower) ||
        !std::isfinite(info.upper) || info.upper < info.lower * (1 - 1e-12))
      return Status::Fail(
          FailureReason::kInvalidInput,
          util::strfmt("variable %s has empty or non-positive box",
                       info.name.c_str()));
  }
  auto check_posy = [](const posy::Posynomial& p,
                       const std::string& where) -> Status {
    for (const auto& t : p.terms()) {
      if (!std::isfinite(t.coeff()))
        return Status::Fail(FailureReason::kNumericalError,
                            "non-finite coefficient in " + where);
      if (!(t.coeff() > 0.0))
        return Status::Fail(FailureReason::kInvalidInput,
                            "non-positive coefficient in " + where);
      for (const auto& fac : t.factors())
        if (!std::isfinite(fac.exp))
          return Status::Fail(FailureReason::kNumericalError,
                              "non-finite exponent in " + where);
    }
    return Status::Ok();
  };
  if (auto s = check_posy(problem.objective(), "objective"); !s.ok())
    return s;
  for (const auto& c : problem.constraints())
    if (auto s = check_posy(c.lhs, "constraint " + c.tag); !s.ok()) return s;
  return Status::Ok();
}

/// Barrier-method state shared by both phases. Non-owning: the compiled
/// functions and bounds live in the caller so multi-start restarts don't
/// re-copy them per attempt.
struct BarrierProblem {
  const std::vector<Func>* constraints = nullptr;  ///< F_j(y) <= 0
  const Func* objective = nullptr;  ///< minimized (times barrier weight t)
  const Vec* ylo = nullptr;         ///< strict box bounds in log domain
  const Vec* yhi = nullptr;
  /// Phase I: the last variable is the auxiliary s, the objective is s
  /// and every constraint reads F_j(y) - s.
  bool aux_last = false;
};

/// Fraction-to-the-boundary rule (Wächter & Biegler, IPOPT, 2006): a
/// line-search trial may shrink no barrier slack below this fraction of its
/// value at the current iterate. A fixed algorithm constant, like the
/// Armijo 1e-4.
constexpr double kSlackFloor = 0.3;

/// Scratch buffers reused across barrier evaluations.
struct BarrierScratch {
  std::vector<double> g_local;
  std::vector<double> h_local;
  std::vector<double> z;
  std::vector<double> g_lse;
  /// Barrier slacks at the current iterate, recorded by the derivative
  /// pass: -F_j for every constraint, then the lower and upper box side of
  /// every variable. The value-only (line-search trial) pass rejects a
  /// point that leaves any of them below kSlackFloor times this value.
  std::vector<double> slack;
  /// Constraint slacks -F_j of the last value-only pass (valid when it
  /// returned a finite value).
  std::vector<double> trial_slack;
  /// Set by a value-only pass that the slack floor rejected.
  bool floor_rejected = false;
};

/// Wall-clock budget for one solve() call (shared across restarts).
using Deadline = util::Deadline;

/// Hessian assembly target: a dense matrix or a skyline profile. At most
/// one pointer is set; both unset means "no second derivatives wanted".
/// The skyline sink drops strict upper-triangle adds (the scatter loops
/// write both halves of the symmetric matrix; the factorization only ever
/// reads the lower one, for dense and skyline alike).
struct HessSink {
  util::Matrix* dense = nullptr;
  util::SkylineMatrix* sky = nullptr;
  explicit operator bool() const { return dense != nullptr || sky != nullptr; }
  void add(size_t i, size_t j, double v) const {
    if (dense)
      (*dense)(i, j) += v;
    else
      sky->add(i, j, v);
  }
};

/// Evaluates the barrier objective
///   phi(y) = t * f0(y) - sum_j log(-F_j(y)) - sum_i log box slacks
/// Returns +inf when outside the domain. grad/hess optional; local
/// derivatives are scattered per function, so cost scales with the total
/// constraint support, not with constraints x n^2. A derivative pass
/// records the slacks of y in `scratch`; a value-only pass also returns
/// +inf, and sets `scratch.floor_rejected`, when a slack of y falls below
/// kSlackFloor times the recorded one.
double barrier_eval(const BarrierProblem& bp, double t, const Vec& y,
                    Vec* grad, HessSink hess, BarrierScratch& scratch) {
  const size_t n = y.size();
  if (grad) std::fill(grad->begin(), grad->end(), 0.0);
  double phi = 0.0;

  auto scatter = [&](const Func& f, double g_scale, double h_scale,
                     double outer_scale) {
    // grad += g_scale * g_local ; hess += h_scale * h_lse
    //                            + outer_scale * g_local g_local^T
    const auto& fs = f.full_support;
    if (grad) {
      for (size_t i = 0; i < fs.size(); ++i)
        (*grad)[static_cast<size_t>(fs[i])] +=
            g_scale * scratch.g_local[i];
    }
    if (hess) {
      const size_t sz = f.support.size();
      for (size_t i = 0; i < sz; ++i) {
        const auto gi = static_cast<size_t>(f.support[i]);
        for (size_t j = 0; j < sz; ++j)
          hess.add(gi, static_cast<size_t>(f.support[j]),
                   h_scale * scratch.h_local[i * sz + j]);
      }
      if (outer_scale != 0.0) {
        for (size_t i = 0; i < fs.size(); ++i) {
          const double gi = scratch.g_local[i];
          if (gi == 0.0) continue;
          for (size_t j = 0; j < fs.size(); ++j)
            hess.add(static_cast<size_t>(fs[i]), static_cast<size_t>(fs[j]),
                     outer_scale * gi * scratch.g_local[j]);
        }
      }
    }
  };

  const bool derivs = grad != nullptr || static_cast<bool>(hess);
  const size_t m = bp.constraints->size();
  if (derivs) {
    scratch.slack.resize(m + 2 * n);
  } else {
    scratch.trial_slack.resize(m);
    scratch.floor_rejected = false;
  }
  // Records slack k (derivative pass) or checks it against its floor.
  auto floor_ok = [&](size_t k, double u) {
    if (derivs) {
      scratch.slack[k] = u;
      return true;
    }
    if (k < m) scratch.trial_slack[k] = u;
    if (u >= kSlackFloor * scratch.slack[k]) return true;
    scratch.floor_rejected = true;
    return false;
  };
  {
    const double f0 =
        derivs ? bp.objective->eval_local(y, scratch.g_local,
                                          scratch.h_local, scratch.z,
                                          scratch.g_lse)
               : bp.objective->value_at(y, scratch.z);
    phi += t * f0;
    if (derivs) scatter(*bp.objective, t, t, 0.0);
  }

  for (size_t j = 0; j < m; ++j) {
    const Func& fj = (*bp.constraints)[j];
    const double v =
        derivs ? fj.eval_local(y, scratch.g_local, scratch.h_local,
                               scratch.z, scratch.g_lse)
               : fj.value_at(y, scratch.z);
    const double u = -v;  // slack, must stay positive
    if (u <= 0.0 || !std::isfinite(u) || !floor_ok(j, u))
      return std::numeric_limits<double>::infinity();
    phi += -std::log(u);
    // d(-log(-F)) = F'/u ; d2 = F''/u + F' F'^T / u^2.
    if (derivs) scatter(fj, 1.0 / u, 1.0 / u, 1.0 / (u * u));
  }

  for (size_t i = 0; i < n; ++i) {
    const double a = y[i] - (*bp.ylo)[i];
    const double b = (*bp.yhi)[i] - y[i];
    if (a <= 0.0 || b <= 0.0 || !floor_ok(m + 2 * i, a) ||
        !floor_ok(m + 2 * i + 1, b))
      return std::numeric_limits<double>::infinity();
    phi += -std::log(a) - std::log(b);
    if (grad) (*grad)[i] += -1.0 / a + 1.0 / b;
    if (hess) hess.add(i, i, 1.0 / (a * a) + 1.0 / (b * b));
  }
  return phi;
}

/// Phase I only: minimizes phi exactly over the auxiliary s = y.back(),
/// the other variables fixed, given the constraint slacks at y in
/// `scratch.trial_slack`. Along s, phi is the 1-D self-concordant
///   t s - sum_j log(u_j + d) - log(s - lo + d) - log(hi - s - d)
/// of the shift d, so damped Newton steps (1 / (1 + lambda) while lambda >
/// 1/4) stay in its domain and never raise phi. Without this, a phase-I
/// stage can settle with some u_j far below 1/t (5e-9 at t = 1e5), where
/// the Newton step's curvature error along the active constraint cancels
/// its recovery of u_j, and crawl through its whole iteration budget even
/// under the slack floor; at the 1-D optimum sum_j 1/u_j ~ t, which lifts
/// such a u_j back to ~1/t.
void center_aux(const BarrierProblem& bp, double t, Vec& y,
                const BarrierScratch& scratch) {
  const size_t k = y.size() - 1;
  const double a = y[k] - (*bp.ylo)[k];
  const double b = (*bp.yhi)[k] - y[k];
  double d = 0.0;
  for (int it = 0; it < 50; ++it) {
    double g = t - 1.0 / (a + d) + 1.0 / (b - d);
    double h = 1.0 / ((a + d) * (a + d)) + 1.0 / ((b - d) * (b - d));
    for (const double u : scratch.trial_slack) {
      g -= 1.0 / (u + d);
      h += 1.0 / ((u + d) * (u + d));
    }
    const double lambda = std::fabs(g) / std::sqrt(h);
    if (!std::isfinite(lambda) || lambda * lambda < 1e-12) break;
    d -= (g / h) / (lambda > 0.25 ? 1.0 + lambda : 1.0);
  }
  if (std::isfinite(d)) y[k] += d;
}

/// How a Newton minimization ended. kNonFinite covers both NaN/Inf in the
/// barrier value or step and an unsolvable (indefinite) Newton system.
enum class NewtonFailure { kNone, kNonFinite, kTimeout };

struct NewtonOutcome {
  int iterations = 0;
  int ls_trials = 0;         ///< line-search trials (barrier evaluations)
  int ls_floor_rejects = 0;  ///< trials rejected by the slack floor
  StageExit exit = StageExit::kIterLimit;
  NewtonFailure failure = NewtonFailure::kNone;

  bool converged() const {
    return exit == StageExit::kDecrement || exit == StageExit::kStall ||
           exit == StageExit::kFeasible;
  }
};

/// Damped Newton minimization of the barrier objective for fixed t.
/// early_exit, when set, is checked after every accepted step and stops the
/// minimization as soon as it returns true (used by phase I). `y` only ever
/// moves to finite accepted points: a failed iteration leaves it at the
/// last good iterate, so callers can always report a usable point.
///
/// The line search accepts a step only if it strictly lowers phi. At high t
/// the Armijo decrease 1e-4 * alpha * lambda^2 falls below the rounding
/// error of phi, and a non-strict test then accepts steps that change
/// nothing, burning the stage's whole iteration budget; with the strict
/// test such a stage ends at once as a line-search stall.
///
/// A trial that leaves some barrier slack below kSlackFloor times its
/// current value is rejected like an out-of-domain one. Armijo alone lets
/// one full step right after a t increase drive a slack from 0.33 to 3e-8;
/// Newton then crawls against a ~1e15 rank-one Hessian term for the rest
/// of the stage, far from the central path.
NewtonOutcome newton_minimize(const BarrierProblem& bp, double t, Vec& y,
                              const SolverOptions& opt,
                              const Deadline& deadline,
                              const std::function<bool(const Vec&)>&
                                  early_exit = {}) {
  const size_t n = y.size();
  NewtonOutcome out;
  if (util::fault_fires(util::FaultClass::kSolverExhaustIters, "gp.newton")) {
    out.iterations = opt.max_newton_iters;
    return out;
  }
  Vec grad(n, 0.0);
  Vec trial(n, 0.0);
  BarrierScratch scratch;

  // KKT backend selection, once per minimization: the Hessian's sparsity
  // profile is the union of per-function support cliques (each function
  // couples only its own variables) plus the box diagonal, so row i of the
  // lower triangle can start no earlier than the smallest variable that
  // shares a function with i. When that envelope is sparse enough, assemble
  // and factorize in skyline form; otherwise fall back to the dense path.
  std::vector<size_t> first(n);
  for (size_t i = 0; i < n; ++i) first[i] = i;
  auto widen = [&](const Func& f) {
    if (f.full_support.empty()) return;
    int mn = f.full_support[0];
    for (const int v : f.full_support) mn = std::min(mn, v);
    for (const int v : f.full_support)
      first[static_cast<size_t>(v)] =
          std::min(first[static_cast<size_t>(v)], static_cast<size_t>(mn));
  };
  widen(*bp.objective);
  for (const auto& f : *bp.constraints) widen(f);
  size_t profile = 0;
  for (size_t i = 0; i < n; ++i) profile += i - first[i] + 1;
  const size_t dense_lower = n * (n + 1) / 2;
  const bool use_skyline =
      !opt.force_dense_kkt &&
      n >= static_cast<size_t>(opt.sparse_min_vars) &&
      static_cast<double>(profile) <=
          opt.sparse_max_fill * static_cast<double>(dense_lower);

  // Assembly buffers live across iterations; only the values are cleared.
  util::SkylineMatrix sky;
  Matrix hess;
  if (use_skyline)
    sky = util::SkylineMatrix(std::move(first));
  else
    hess = Matrix(n, n, 0.0);

  for (int it = 0; it < opt.max_newton_iters; ++it) {
    if (deadline.expired()) {
      out.exit = StageExit::kFailed;
      out.failure = NewtonFailure::kTimeout;
      return out;
    }
    HessSink sink;
    if (use_skyline) {
      sky.clear_values();
      sink.sky = &sky;
    } else {
      hess.fill(0.0);
      sink.dense = &hess;
    }
    double phi = barrier_eval(bp, t, y, &grad, sink, scratch);
    phi = util::fault_corrupt(util::FaultClass::kSolverNonFinite,
                              "gp.newton.phi", phi);
    if (!std::isfinite(phi)) {
      out.exit = StageExit::kFailed;
      out.failure = NewtonFailure::kNonFinite;
      return out;
    }
    // Levenberg-style floor keeps the system solvable when the Hessian is
    // nearly singular (e.g. slack variables far from activity).
    for (size_t i = 0; i < n; ++i) sink.add(i, i, 1e-12);
    Vec step;
    try {
      step = use_skyline
                 ? util::skyline_cholesky_solve(sky, util::scaled(grad, -1.0))
                 : util::cholesky_solve(hess, util::scaled(grad, -1.0));
    } catch (const util::Error&) {
      out.exit = StageExit::kFailed;
      out.failure = NewtonFailure::kNonFinite;
      return out;
    }
    const double decrement2 = -util::dot(grad, step);
    if (!std::isfinite(decrement2)) {
      out.exit = StageExit::kFailed;
      out.failure = NewtonFailure::kNonFinite;
      return out;
    }
    out.iterations = it + 1;
    if (decrement2 / 2.0 < opt.tolerance * 1e-2) {
      out.exit = StageExit::kDecrement;
      return out;
    }
    // Backtracking line search (Armijo on phi, strict decrease,
    // domain-respecting). `trial` is reused across trials and iterations.
    double alpha = 1.0;
    bool accepted = false;
    for (int ls = 0; ls < 70; ++ls) {
      trial = y;
      util::axpy(alpha, step, trial);
      const double phi_trial =
          barrier_eval(bp, t, trial, nullptr, HessSink{}, scratch);
      ++out.ls_trials;
      if (scratch.floor_rejected) ++out.ls_floor_rejects;
      if (std::isfinite(phi_trial) && phi_trial < phi &&
          phi_trial <= phi - 1e-4 * alpha * decrement2) {
        std::swap(y, trial);
        if (bp.aux_last) center_aux(bp, t, y, scratch);
        accepted = true;
        break;
      }
      alpha *= 0.5;
    }
    if (!accepted) {
      out.exit = StageExit::kStall;  // no progress; treat as stationary
      return out;
    }
    if (early_exit && early_exit(y)) {
      out.exit = StageExit::kFeasible;
      return out;
    }
  }
  return out;
}

/// Status/diagnostic pairing shared by run-attempt exits.
FailureReason reason_of(SolveStatus s) {
  switch (s) {
    case SolveStatus::kOptimal:
      return FailureReason::kNone;
    case SolveStatus::kInfeasible:
      return FailureReason::kInfeasible;
    case SolveStatus::kMaxIter:
      return FailureReason::kMaxIter;
    case SolveStatus::kTimeout:
      return FailureReason::kTimeout;
    case SolveStatus::kNumericalError:
      return FailureReason::kNumericalError;
    case SolveStatus::kInvalidInput:
      return FailureReason::kInvalidInput;
  }
  return FailureReason::kInternal;
}

}  // namespace

const char* to_string(StageExit exit) {
  switch (exit) {
    case StageExit::kDecrement:
      return "decrement";
    case StageExit::kStall:
      return "stall";
    case StageExit::kFeasible:
      return "feasible";
    case StageExit::kIterLimit:
      return "iter_limit";
    case StageExit::kFailed:
      return "failed";
  }
  return "unknown";
}

const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal:
      return "optimal";
    case SolveStatus::kInfeasible:
      return "infeasible";
    case SolveStatus::kMaxIter:
      return "max_iterations";
    case SolveStatus::kTimeout:
      return "timeout";
    case SolveStatus::kNumericalError:
      return "numerical_error";
    case SolveStatus::kInvalidInput:
      return "invalid_input";
  }
  return "unknown";
}

namespace {

/// Finite best-effort point for solves that fail before producing one.
GpResult failed_result(const GpProblem& problem, SolveStatus status,
                       std::string detail) {
  GpResult result;
  result.status = status;
  result.message = detail;
  result.diagnostics = Status::Fail(reason_of(status), std::move(detail));
  const size_t n = problem.vars().size();
  result.x.assign(n, 1.0);
  for (size_t i = 0; i < n; ++i) {
    const auto& info = problem.vars().info(static_cast<posy::VarId>(i));
    if (info.lower > 0.0 && std::isfinite(info.lower) &&
        std::isfinite(info.upper) && info.upper >= info.lower)
      result.x[i] = std::sqrt(info.lower * info.upper);
  }
  return result;
}

/// Per-solve telemetry: status/iteration counters, per-phase stage-exit
/// counters of the accepted attempt (`gp.stage.phase1.iter_limit`, ...),
/// restart count, barrier stage count and the final duality-gap estimate
/// (< 0 = never reached phase II). One relaxed atomic load when telemetry
/// is disabled.
void record_solve(obs::Span& span, const GpResult& result, int barrier_stages,
                  double duality_gap) {
  auto& tel = obs::Telemetry::instance();
  if (!tel.enabled()) return;
  tel.counter_add("gp.solve.calls");
  tel.counter_add(std::string("gp.solve.status.") + to_string(result.status));
  for (const auto& st : result.diag.trace)
    tel.counter_add(std::string(st.phase1 ? "gp.stage.phase1."
                                          : "gp.stage.phase2.") +
                    to_string(st.exit));
  tel.hist_record("gp.solve.newton_iters", result.newton_iterations);
  tel.hist_record("gp.solve.restarts", result.attempts - 1);
  tel.hist_record("gp.solve.barrier_stages", barrier_stages);
  if (duality_gap >= 0.0) tel.hist_record("gp.solve.duality_gap", duality_gap);
  span.arg("newton_iters", result.newton_iterations);
  span.arg("attempts", result.attempts);
  span.arg("barrier_stages", barrier_stages);
  if (duality_gap >= 0.0) span.arg("duality_gap", duality_gap);
}

}  // namespace

GpResult GpSolver::solve(const GpProblem& problem) const {
  try {
    return run(problem, nullptr);
  } catch (const std::exception& e) {
    return failed_result(problem, SolveStatus::kNumericalError, e.what());
  }
}

GpResult GpSolver::solve_from(const GpProblem& problem,
                              const util::Vec& x0) const {
  if (x0.size() != problem.vars().size()) {
    return failed_result(problem, SolveStatus::kInvalidInput,
                         "warm start size mismatch");
  }
  try {
    return run(problem, &x0);
  } catch (const std::exception& e) {
    return failed_result(problem, SolveStatus::kNumericalError, e.what());
  }
}

GpResult GpSolver::run(const GpProblem& problem, const util::Vec* x0) const {
  obs::Span solve_span("gp.solve");
  prof::ResourceScope solve_rusage("gp.solve");
  const auto& vars = problem.vars();
  const size_t n = vars.size();
  GpResult result;

  // Reject malformed data up front; the fallback point is finite by
  // construction so downstream consumers never see NaN widths.
  if (Status v = validate_problem(problem); !v.ok()) {
    GpResult rejected =
        failed_result(problem,
                      v.reason == FailureReason::kNumericalError
                          ? SolveStatus::kNumericalError
                          : SolveStatus::kInvalidInput,
                      v.detail);
    record_solve(solve_span, rejected, 0, -1.0);
    return rejected;
  }

  // Log-domain box bounds.
  Vec ylo(n), yhi(n);
  for (size_t i = 0; i < n; ++i) {
    const auto& info = vars.info(static_cast<posy::VarId>(i));
    ylo[i] = std::log(info.lower);
    yhi[i] = std::log(std::max(info.upper, info.lower));
  }

  std::vector<Func> constraints;
  constraints.reserve(problem.constraints().size());
  for (const auto& c : problem.constraints())
    constraints.push_back(compile(c.lhs));
  Func objective = compile(problem.objective());
  // Conditioning guardrail: shift the objective's log-coefficients so its
  // largest term has logc 0 (equivalent to scaling the objective by a
  // positive constant, which moves no argmin). Keeps t * f0 tame when cost
  // coefficients are huge (e.g. power objectives in fF*V^2 units).
  if (!objective.terms.empty()) {
    double logc_max = -std::numeric_limits<double>::infinity();
    for (const auto& t : objective.terms)
      logc_max = std::max(logc_max, t.logc);
    if (std::fabs(logc_max) > 30.0)
      for (auto& t : objective.terms) t.logc -= logc_max;
  }

  const Deadline deadline = Deadline::from_ms(options_.deadline_ms);

  // max_j F_j(yy). Only reads yy[0..n), so phase I passes its augmented
  // (y, s) iterate directly.
  std::vector<double> max_scratch;
  auto max_constraint = [&](const Vec& yy) {
    double m = -std::numeric_limits<double>::infinity();
    for (const auto& f : constraints)
      m = std::max(m, f.value_at(yy, max_scratch));
    return m;
  };

  // Telemetry accumulators across attempts: barrier stages consumed and
  // the most recent duality-gap estimate (m_total / t; < 0 until phase II).
  int total_stages = 0;
  double last_gap = -1.0;

  // One barrier solve from a given starting point. Writes into `out`.
  auto attempt = [&](const Vec& y_init, GpResult& out, int* newton_used) {
    Vec y = y_init;
    int total_newton = 0;
    // Introspection state accumulated as the attempt runs: the barrier-stage
    // trace and the final phase-II barrier weight (0 until phase II runs).
    // All of it is derived from values the solve computes anyway, so the
    // iterate trajectory is untouched.
    const double m_total = static_cast<double>(constraints.size()) +
                           2.0 * static_cast<double>(n);
    std::vector<StageTrace> trace;
    double t_final = 0.0;
    auto finish = [&](SolveStatus status, const std::string& msg) {
      out.x.assign(n, 0.0);
      for (size_t i = 0; i < n; ++i) {
        double xi = std::exp(y[i]);
        if (!std::isfinite(xi))
          xi = std::exp(0.5 * (ylo[i] + yhi[i]));
        out.x[i] = xi;
      }
      out.objective = problem.objective().eval(out.x);
      double viol = 0.0;
      out.binding.clear();
      out.diag = SolveDiagnostics{};
      out.diag.trace = std::move(trace);
      out.diag.final_t = t_final;
      out.diag.duality_gap = t_final > 0.0 ? m_total / t_final : -1.0;
      out.diag.constraints.reserve(problem.constraints().size());
      for (const auto& c : problem.constraints()) {
        const double v = c.lhs.eval(out.x);
        viol = std::max(viol, v - 1.0);
        ConstraintDiagnostics cd;
        cd.tag = c.tag;
        cd.lhs = v;
        cd.slack = 1.0 - v;
        cd.log_slack = v > 0.0 ? -std::log(v)
                               : std::numeric_limits<double>::infinity();
        if (status == SolveStatus::kOptimal && t_final > 0.0 &&
            cd.log_slack > 0.0 && std::isfinite(cd.log_slack))
          cd.dual = 1.0 / (t_final * cd.log_slack);
        if (status == SolveStatus::kOptimal &&
            v >= 1.0 - options_.binding_tol) {
          cd.binding = true;
          out.diag.binding_set.push_back(out.diag.constraints.size());
          out.binding.push_back(c.tag);
        }
        out.diag.constraints.push_back(std::move(cd));
      }
      out.max_violation = viol;
      out.newton_iterations = total_newton;
      out.status = status;
      out.message = msg;
      out.diagnostics = status == SolveStatus::kOptimal
                            ? Status::Ok()
                            : Status::Fail(reason_of(status), msg);
      *newton_used = total_newton;
    };

    // ---- Phase I: find a strictly feasible point ----
    if (!constraints.empty() && max_constraint(y) >= -options_.feas_margin) {
      obs::Span phase1_span("gp.phase1");
      // Augment with auxiliary s: minimize s subject to F_j(y) - s <= 0.
      Vec ylo1 = ylo, yhi1 = yhi;
      const double s0 = max_constraint(y) + 1.0;
      if (!std::isfinite(s0)) {
        finish(SolveStatus::kNumericalError,
               "non-finite constraint value at the starting point");
        return;
      }
      // Generous box for s keeps the barrier well-behaved.
      ylo1.push_back(std::min(-10.0, s0 - 100.0));
      yhi1.push_back(s0 + 100.0);
      std::vector<Func> aug;
      aug.reserve(constraints.size());
      for (const auto& f : constraints) {
        Func fa = f;
        fa.linear_vars.push_back(static_cast<int>(n));
        fa.linear_coef.push_back(-1.0);
        fa.finish();
        aug.push_back(std::move(fa));
      }
      Func obj_s;  // objective = s (pure linear)
      obj_s.linear_vars.push_back(static_cast<int>(n));
      obj_s.linear_coef.push_back(1.0);
      obj_s.finish();
      BarrierProblem p1{&aug, &obj_s, &ylo1, &yhi1, /*aux_last=*/true};

      Vec ys = y;
      ys.push_back(s0);
      const double want = -2.0 * options_.feas_margin;
      auto feasible_now = [&](const Vec& yy) {
        return max_constraint(yy) < want;
      };
      // Infeasibility certificate. At the central point of weight t the
      // duality gap of "min s s.t. F_j(y) <= s, y and s in their boxes" is
      // m1 / t, m1 counting the constraints plus both sides of all n + 1
      // boxes (Boyd & Vandenberghe §11.2), so s(t) - m1/t bounds the
      // optimal s from below. Once that bound exceeds feas_margin no point
      // can be strictly feasible and the rest of the schedule cannot
      // change the verdict. Only a stage that ended on the Newton
      // decrement test is centered enough to issue it.
      const double m1 = static_cast<double>(aug.size()) +
                        2.0 * static_cast<double>(n + 1);
      double certified_bound = -std::numeric_limits<double>::infinity();
      double t = 1.0;
      NewtonFailure p1_failure = NewtonFailure::kNone;
      for (int stage = 0; stage < options_.max_barrier_stages; ++stage) {
        ++total_stages;
        auto outcome =
            newton_minimize(p1, t, ys, options_, deadline, feasible_now);
        total_newton += outcome.iterations;
        trace.push_back({static_cast<int>(trace.size()), true, t,
                         outcome.iterations, outcome.converged(), -1.0,
                         outcome.exit, outcome.ls_trials,
                         outcome.ls_floor_rejects});
        if (outcome.failure != NewtonFailure::kNone) {
          p1_failure = outcome.failure;
          break;
        }
        if (feasible_now(ys)) break;
        if (outcome.exit == StageExit::kDecrement &&
            ys[n] - m1 / t > options_.feas_margin) {
          certified_bound = ys[n] - m1 / t;
          break;
        }
        if (static_cast<double>(aug.size()) / t < options_.tolerance) break;
        t *= options_.barrier_mu;
      }
      y.assign(ys.begin(), ys.begin() + static_cast<long>(n));
      if (p1_failure == NewtonFailure::kTimeout) {
        finish(SolveStatus::kTimeout, "deadline exceeded in phase I");
        return;
      }
      if (p1_failure == NewtonFailure::kNonFinite) {
        finish(SolveStatus::kNumericalError,
               "non-finite value in a phase I Newton step");
        return;
      }
      if (certified_bound > options_.feas_margin) {
        obs::Telemetry::instance().counter_add(
            "gp.solve.infeasible_certified");
        finish(SolveStatus::kInfeasible,
               util::strfmt("phase I certified infeasible: at every point "
                            "some constraint has lhs >= %.6g (log-domain "
                            "lower bound %.4g at t=%.3g)",
                            std::exp(certified_bound), certified_bound, t));
        return;
      }
      if (max_constraint(y) >= 0.0) {
        finish(SolveStatus::kInfeasible,
               util::strfmt(
                   "phase I failed: max constraint value %.4g (want < 1)",
                   std::exp(max_constraint(y))));
        return;
      }
    }

    // ---- Phase II: barrier path following ----
    obs::Span phase2_span("gp.phase2");
    const BarrierProblem p2{&constraints, &objective, &ylo, &yhi};

    double t = options_.t_initial;
    // A warm start that is strictly feasible sits near the previous
    // optimum — close to its active constraints. Low-t centering would
    // drag the iterate back toward the analytic center only to return, so
    // skip two stages of the barrier schedule. Jumping further (e.g.
    // straight to the terminal weight) backfires: far from the central
    // path at high t, Newton exhausts its per-stage budget and the solve
    // settles on an uncentered point. Phase I above restores strict
    // feasibility when the raw warm point sat on its binding set.
    if (x0 != nullptr && max_constraint(y) < -options_.feas_margin)
      t *= options_.barrier_mu * options_.barrier_mu;
    bool hit_limit = true;
    bool stage_exhausted = false;
    for (int stage = 0; stage < options_.max_barrier_stages; ++stage) {
      ++total_stages;
      auto outcome = newton_minimize(p2, t, y, options_, deadline);
      total_newton += outcome.iterations;
      t_final = t;
      trace.push_back({static_cast<int>(trace.size()), false, t,
                       outcome.iterations, outcome.converged(), m_total / t,
                       outcome.exit, outcome.ls_trials,
                       outcome.ls_floor_rejects});
      if (outcome.failure == NewtonFailure::kTimeout) {
        finish(SolveStatus::kTimeout, "deadline exceeded in phase II");
        return;
      }
      if (outcome.failure == NewtonFailure::kNonFinite) {
        finish(SolveStatus::kNumericalError,
               "non-finite value in a phase II Newton step");
        return;
      }
      stage_exhausted = outcome.exit == StageExit::kIterLimit;
      if (options_.verbose) {
        util::log_debug(util::strfmt("gp: stage %d t=%.3g newton=%d", stage,
                                     t, outcome.iterations));
      }
      last_gap = m_total / t;
      if (m_total / t < options_.tolerance) {
        hit_limit = false;
        break;
      }
      t *= options_.barrier_mu;
    }

    if (hit_limit || stage_exhausted)
      finish(SolveStatus::kMaxIter, "iteration budget exhausted");
    else
      finish(SolveStatus::kOptimal, "optimal");
  };

  // Initial point: warm start (clipped strictly inside the box) or the box
  // midpoint (geometric mean of the bounds).
  Vec y0(n);
  for (size_t i = 0; i < n; ++i) {
    if (x0 != nullptr) {
      const double margin = 1e-3 * std::max(1.0, yhi[i] - ylo[i]);
      y0[i] = std::clamp(std::log(std::max((*x0)[i], 1e-300)),
                         ylo[i] + margin, yhi[i] - margin);
      if (!std::isfinite(y0[i])) y0[i] = 0.5 * (ylo[i] + yhi[i]);
    } else {
      y0[i] = 0.5 * (ylo[i] + yhi[i]);
    }
    if (yhi[i] - ylo[i] < 1e-12) y0[i] = ylo[i];  // effectively fixed var
  }

  // Multi-start: retry a numerical fault from deterministically perturbed
  // initial points. Nothing else is retried: both phases are convex, so a
  // new start changes neither the optimum nor the feasibility verdict.
  int cumulative_newton = 0;
  for (int a = 0; a <= std::max(0, options_.restarts); ++a) {
    Vec y_start = y0;
    if (a > 0) {
      util::Rng rng(options_.restart_seed + static_cast<uint64_t>(a));
      for (size_t i = 0; i < n; ++i) {
        if (yhi[i] - ylo[i] < 1e-12) continue;
        const double span = yhi[i] - ylo[i];
        const double jitter = rng.uniform(-0.2, 0.2) * std::min(span, 4.0);
        y_start[i] =
            std::clamp(y0[i] + jitter, ylo[i] + 1e-3 * span,
                       yhi[i] - 1e-3 * span);
      }
    }
    GpResult r;
    int used = 0;
    attempt(y_start, r, &used);
    cumulative_newton += used;
    const bool better =
        a == 0 || (r.status == SolveStatus::kOptimal && !result.ok()) ||
        (!result.ok() && r.max_violation < result.max_violation);
    if (better) result = std::move(r);
    result.newton_iterations = cumulative_newton;
    result.attempts = a + 1;
    if (result.ok()) break;
    if (deadline.expired()) break;
    if (result.status != SolveStatus::kNumericalError) break;
  }
  record_solve(solve_span, result, total_stages, last_gap);
  return result;
}

}  // namespace smart::gp
