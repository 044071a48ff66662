#include "gp/solver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
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

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// The log-sum-exp table of one solve, built once from the posynomials.
/// Function f < m is constraint f, function m the objective:
///   F_f(y) = log sum_{k in terms(f)} exp(logc_k + a_k . y).
/// Flat arrays instead of per-function objects: term offsets per function,
/// factor offsets per term, every factor as (global variable, slot of that
/// variable in its function's support, exponent), and the sorted supports.
/// Factors of a term are strictly increasing in variable (posy::Monomial
/// keeps them so), which the lower-triangle Hessian assembly relies on.
struct LseTable {
  struct Factor {
    int var = 0;
    int slot = 0;
    double exp = 0.0;
  };
  std::vector<size_t> fn_term{0};  ///< f owns terms [fn_term[f], fn_term[f+1])
  std::vector<size_t> fn_sup{0};   ///< f's support is sup[fn_sup[f] ...)
  std::vector<int> sup;
  std::vector<double> logc;          ///< per term
  std::vector<size_t> term_fac{0};   ///< k owns fac[term_fac[k] ...)
  std::vector<Factor> fac;

  void add(const posy::Posynomial& p) {
    SMART_CHECK(!p.terms().empty(), "GP functions must have terms");
    const auto s0 = static_cast<std::ptrdiff_t>(sup.size());
    for (const auto& t : p.terms())
      for (const auto& fc : t.factors()) sup.push_back(fc.var);
    std::sort(sup.begin() + s0, sup.end());
    sup.erase(std::unique(sup.begin() + s0, sup.end()), sup.end());
    for (const auto& t : p.terms()) {
      SMART_CHECK(t.coeff() > 0.0, "GP terms must have positive coefficients");
      logc.push_back(std::log(t.coeff()));
      int prev = -1;
      for (const auto& fc : t.factors()) {
        SMART_CHECK(fc.var > prev, "monomial factors must be sorted");
        prev = fc.var;
        const auto slot =
            std::lower_bound(sup.begin() + s0, sup.end(), fc.var) -
            (sup.begin() + s0);
        fac.push_back({fc.var, static_cast<int>(slot), fc.exp});
      }
      term_fac.push_back(fac.size());
    }
    fn_term.push_back(logc.size());
    fn_sup.push_back(sup.size());
  }
};

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

/// Fraction-to-the-boundary rule (Wächter & Biegler, IPOPT, 2006): a
/// line-search trial may shrink no barrier slack below this fraction of its
/// value at the current iterate. A fixed algorithm constant, like the
/// Armijo 1e-4.
constexpr double kSlackFloor = 0.3;

/// Wall-clock budget for one solve() call (shared across restarts).
using Deadline = util::Deadline;

/// The log-barrier objective of one solve over its LseTable, in one of two
/// phases:
///   phase II: phi(y) = t F_m(y) - sum_j log u_j - sum_i log box slacks,
///             u_j = -F_j(y);
///   phase I:  y ends in the auxiliary s = y[n], the objective is t s and
///             u_j = s - F_j(y).
/// A point is evaluated in one batch: gather every term exponent z_k, shift
/// each function by its largest, one exp over all terms, one log over the
/// per-function sums (each >= 1) and, once the slacks are checked positive,
/// one log over them. The term weights and function values of the last
/// evaluated point are kept, keyed by its y[0..n), so the derivative pass
/// at an accepted line-search trial and phase I's feasibility test read
/// them instead of evaluating the point again.
class Barrier {
 public:
  Barrier(const GpProblem& problem, size_t n) : n_(n) {
    m_ = problem.constraints().size();
    for (const auto& c : problem.constraints()) tab_.add(c.lhs);
    tab_.add(problem.objective());
    // Conditioning guardrail: shift the objective's log-coefficients so its
    // largest term has logc 0 (equivalent to scaling the objective by a
    // positive constant, which moves no argmin). Keeps t * f0 tame when
    // cost coefficients are huge (e.g. power objectives in fF*V^2 units).
    const auto obj_begin = tab_.logc.begin() +
                           static_cast<std::ptrdiff_t>(tab_.fn_term[m_]);
    const double logc_max = *std::max_element(obj_begin, tab_.logc.end());
    if (std::fabs(logc_max) > 30.0)
      for (auto it = obj_begin; it != tab_.logc.end(); ++it) *it -= logc_max;
    w_.resize(tab_.logc.size());
    sum_.resize(m_ + 1);
    f_.resize(m_ + 1);
    g_.resize(tab_.sup.size());
    u_.resize(m_);
    logs_.resize(m_ + 1);
  }

  size_t constraints() const { return m_; }

  /// Selects phase I (`aux`, boxes of n + 1 entries, s last) or phase II.
  void set_phase(bool aux, const Vec& ylo, const Vec& yhi) {
    aux_ = aux;
    ylo_ = &ylo;
    yhi_ = &yhi;
    slack_.resize(m_ + 2 * ylo.size());
  }
  bool aux() const { return aux_; }

  /// max_j F_j(y); reads y[0..n) only.
  double max_constraint(const Vec& y) {
    evaluate(y, m_);
    double mx = -kInf;  // NaN, once seen, sticks
    for (size_t j = 0; j < m_; ++j)
      if (std::isnan(f_[j]) || f_[j] > mx) mx = f_[j];
    return mx;
  }

  /// Skyline profile of the barrier Hessian in the current phase: row i
  /// can start no earlier than the smallest variable sharing a function
  /// with i (each function couples only its support; the box adds the
  /// diagonal, and phase I's s joins every constraint).
  std::vector<size_t> profile_first() const {
    const size_t nv = ylo_->size();
    std::vector<size_t> first(nv);
    for (size_t i = 0; i < nv; ++i) first[i] = i;
    for (size_t f = 0; f < fns(); ++f) {
      if (tab_.fn_sup[f] == tab_.fn_sup[f + 1]) continue;
      const auto mn = static_cast<size_t>(tab_.sup[tab_.fn_sup[f]]);
      for (size_t a = tab_.fn_sup[f]; a < tab_.fn_sup[f + 1]; ++a) {
        auto& fv = first[static_cast<size_t>(tab_.sup[a])];
        fv = std::min(fv, mn);
      }
      if (aux_) first[n_] = std::min(first[n_], mn);
    }
    return first;
  }

  /// phi at y, or +inf outside the domain. The derivative pass
  /// (`iterate`) records every slack of y: -F_j or s - F_j per constraint,
  /// then the lower and upper box side of every variable. A line-search
  /// trial also returns +inf, and sets floor_rejected(), when a slack falls
  /// below kSlackFloor times its recorded value. Both keep the constraint
  /// slacks in u_ (center_aux reads the accepted trial's).
  double phi_at(double t, const Vec& y, bool iterate) {
    floor_rejected_ = false;
    evaluate(y, fns());
    auto ok = [&](size_t k, double u) {
      if (!(u > 0.0) || !std::isfinite(u)) return false;
      if (iterate) slack_[k] = u;
      if (iterate || u >= kSlackFloor * slack_[k]) return true;
      floor_rejected_ = true;
      return false;
    };
    for (size_t j = 0; j < m_; ++j) {
      u_[j] = aux_ ? y[n_] - f_[j] : -f_[j];
      if (!ok(j, u_[j])) return kInf;
    }
    util::log_batch(u_.data(), logs_.data(), m_);
    double phi = t * (aux_ ? y[n_] : f_[m_]);
    for (size_t j = 0; j < m_; ++j) phi += -logs_[j];
    for (size_t i = 0; i < y.size(); ++i) {
      const double a = y[i] - (*ylo_)[i];
      const double b = (*yhi_)[i] - y[i];
      if (!ok(m_ + 2 * i, a) || !ok(m_ + 2 * i + 1, b)) return kInf;
      phi += -std::log(a) - std::log(b);
    }
    return phi;
  }
  bool floor_rejected() const { return floor_rejected_; }

  /// phi_at(y) as an iterate, plus its gradient and the lower triangle of
  /// its Hessian. Entry (i, j), i >= j, of the Hessian is h[row[i] + j]
  /// (dense and skyline storage alike); it is added to, so the caller
  /// zeroes it. Also leaves the per-function gradients for step_cap.
  ///   H = sum_k (c_f p_k) a_k a_k^T + sum_f o_f g_f g_f^T
  /// with softmax weights p_k, g_f = grad F_f, c_f = 1/u_f and
  /// o_f = 1/u_f^2 - 1/u_f for a constraint, c = t and o = -t for the
  /// phase-II objective.
  double derivs(double t, const Vec& y, Vec& grad, double* h,
                const std::ptrdiff_t* row) {
    const double phi = phi_at(t, y, /*iterate=*/true);
    if (!std::isfinite(phi)) return phi;
    std::fill(grad.begin(), grad.end(), 0.0);
    if (aux_)
      grad[n_] += t;
    else
      add_function(m_, t, -t, grad, h, row);
    for (size_t j = 0; j < m_; ++j) {
      const double inv_u = 1.0 / u_[j];
      const double inv_u2 = inv_u * inv_u;
      add_function(j, inv_u, inv_u2 - inv_u, grad, h, row);
      if (!aux_) continue;
      // d(F_j - s)/ds = -1: the s row of g g^T / u^2, and the gradient.
      grad[n_] -= inv_u;
      double* hs = h + row[n_];
      hs[n_] += inv_u2;
      for (size_t a = tab_.fn_sup[j]; a < tab_.fn_sup[j + 1]; ++a)
        hs[tab_.sup[a]] -= inv_u2 * g_[a];
    }
    for (size_t i = 0; i < y.size(); ++i) {
      const double a = slack_[m_ + 2 * i];
      const double b = slack_[m_ + 2 * i + 1];
      grad[i] += -1.0 / a + 1.0 / b;
      h[row[i] + static_cast<std::ptrdiff_t>(i)] += 1.0 / (a * a) +
                                                    1.0 / (b * b);
    }
    return phi;
  }

  /// The largest step fraction that the slack floor can accept along
  /// `step` from the iterate of the last derivative pass. Every F_j is
  /// convex, so u_j(alpha) <= u_j - alpha * grad(F_j [- s])^T step: a trial
  /// with u_j - alpha d_j < kSlackFloor * u_j is certain to fail the floor,
  /// and so is one that breaks it on a (linear) box side.
  double step_cap(const Vec& step) const {
    const double keep = 1.0 - kSlackFloor;
    double cap = kInf;
    for (size_t j = 0; j < m_; ++j) {
      double d = aux_ ? -step[n_] : 0.0;
      for (size_t a = tab_.fn_sup[j]; a < tab_.fn_sup[j + 1]; ++a)
        d += g_[a] * step[static_cast<size_t>(tab_.sup[a])];
      if (d > 0.0) cap = std::min(cap, keep * slack_[j] / d);
    }
    for (size_t i = 0; i < step.size(); ++i) {
      if (step[i] < 0.0)
        cap = std::min(cap, keep * slack_[m_ + 2 * i] / -step[i]);
      else if (step[i] > 0.0)
        cap = std::min(cap, keep * slack_[m_ + 2 * i + 1] / step[i]);
    }
    return cap;
  }

  /// Phase I only: minimizes phi exactly over the auxiliary s = y.back(),
  /// the other variables fixed, given the constraint slacks u_ of the
  /// accepted trial y. Along s, phi is the 1-D self-concordant
  ///   t s - sum_j log(u_j + d) - log(s - lo + d) - log(hi - s - d)
  /// of the shift d, so damped Newton steps (1 / (1 + lambda) while lambda
  /// > 1/4) stay in its domain and never raise phi. Without this, a
  /// phase-I stage can settle with some u_j far below 1/t (5e-9 at t =
  /// 1e5), where the Newton step's curvature error along the active
  /// constraint cancels its recovery of u_j, and crawl through its whole
  /// iteration budget even under the slack floor; at the 1-D optimum
  /// sum_j 1/u_j ~ t, which lifts such a u_j back to ~1/t.
  void center_aux(double t, Vec& y) const {
    const size_t k = y.size() - 1;
    const double a = y[k] - (*ylo_)[k];
    const double b = (*yhi_)[k] - y[k];
    double d = 0.0;
    for (int it = 0; it < 50; ++it) {
      double g = t - 1.0 / (a + d) + 1.0 / (b - d);
      double h = 1.0 / ((a + d) * (a + d)) + 1.0 / ((b - d) * (b - d));
      for (const double u : u_) {
        g -= 1.0 / (u + d);
        h += 1.0 / ((u + d) * (u + d));
      }
      const double lambda = std::fabs(g) / std::sqrt(h);
      if (!std::isfinite(lambda) || lambda * lambda < 1e-12) break;
      d -= (g / h) / (lambda > 0.25 ? 1.0 + lambda : 1.0);
    }
    if (std::isfinite(d)) y[k] += d;
  }

 private:
  /// Functions the current phase evaluates: phase I has no use for F_m.
  size_t fns() const { return aux_ ? m_ : m_ + 1; }

  /// Fills w_ (term weights exp(z_k - max_f)), sum_ and f_ for the first
  /// `nf` functions at y, unless the cached point already covers them. A
  /// non-finite exponent leaves every F NaN, which the slack checks reject.
  void evaluate(const Vec& y, size_t nf) {
    if (at_fns_ >= nf && std::equal(at_.begin(), at_.end(), y.begin()))
      return;
    at_fns_ = 0;
    bool finite = true;
    for (size_t f = 0; f < nf; ++f) {
      double zmax = -kInf;
      for (size_t k = tab_.fn_term[f]; k < tab_.fn_term[f + 1]; ++k) {
        double z = tab_.logc[k];
        for (size_t i = tab_.term_fac[k]; i < tab_.term_fac[k + 1]; ++i)
          z += tab_.fac[i].exp * y[static_cast<size_t>(tab_.fac[i].var)];
        finite = finite && std::isfinite(z);
        w_[k] = z;
        zmax = std::max(zmax, z);
      }
      for (size_t k = tab_.fn_term[f]; k < tab_.fn_term[f + 1]; ++k)
        w_[k] -= zmax;
      f_[f] = zmax;
    }
    if (!finite) {
      std::fill(f_.begin(), f_.end(), kNaN);
      return;
    }
    util::exp_batch(w_.data(), w_.data(), tab_.fn_term[nf]);
    for (size_t f = 0; f < nf; ++f) {
      double s = 0.0;
      for (size_t k = tab_.fn_term[f]; k < tab_.fn_term[f + 1]; ++k)
        s += w_[k];
      sum_[f] = s;
    }
    util::log_batch(sum_.data(), logs_.data(), nf);
    for (size_t f = 0; f < nf; ++f) f_[f] += logs_[f];
    at_.assign(y.begin(), y.begin() + static_cast<std::ptrdiff_t>(n_));
    at_fns_ = nf;
  }

  /// Adds function f's part of the gradient (c g_f) and of the lower
  /// Hessian triangle (c sum_k p_k a_k a_k^T + o g_f g_f^T) at the cached
  /// point, and leaves g_f in g_.
  void add_function(size_t f, double c, double o, Vec& grad, double* h,
                    const std::ptrdiff_t* row) {
    const size_t s0 = tab_.fn_sup[f];
    const size_t s1 = tab_.fn_sup[f + 1];
    double* g = g_.data() + s0;
    const int* sup = tab_.sup.data() + s0;
    std::fill(g, g + (s1 - s0), 0.0);
    const double inv_sum = 1.0 / sum_[f];
    for (size_t k = tab_.fn_term[f]; k < tab_.fn_term[f + 1]; ++k) {
      const double p = w_[k] * inv_sum;
      const double cp = c * p;
      const size_t i0 = tab_.term_fac[k];
      for (size_t i = i0; i < tab_.term_fac[k + 1]; ++i) {
        const auto& fi = tab_.fac[i];
        g[fi.slot] += p * fi.exp;
        const double ci = cp * fi.exp;
        double* hr = h + row[fi.var];
        for (size_t l = i0; l <= i; ++l)
          hr[tab_.fac[l].var] += ci * tab_.fac[l].exp;
      }
    }
    for (size_t a = 0; a < s1 - s0; ++a) {
      grad[static_cast<size_t>(sup[a])] += c * g[a];
      const double oa = o * g[a];
      double* hr = h + row[sup[a]];
      for (size_t b = 0; b <= a; ++b) hr[sup[b]] += oa * g[b];
    }
  }

  LseTable tab_;
  size_t n_ = 0;  ///< GP variables (phase I appends s at index n_)
  size_t m_ = 0;  ///< constraints
  bool aux_ = false;
  const Vec* ylo_ = nullptr;  ///< strict box bounds in log domain
  const Vec* yhi_ = nullptr;
  /// The last evaluated point: its y[0..n), how many functions were
  /// evaluated there (0 = none), term weights, per-function sums and F.
  Vec at_;
  size_t at_fns_ = 0;
  std::vector<double> w_;
  std::vector<double> sum_;
  std::vector<double> f_;
  /// Slacks at the iterate of the last derivative pass (-F_j or s - F_j
  /// per constraint, then the lower and upper box side of every variable)
  /// and its per-function gradients, one entry per support slot.
  std::vector<double> slack_;
  std::vector<double> g_;
  /// Constraint slacks of the last evaluated point; logs of them or of
  /// the per-function sums.
  std::vector<double> u_;
  std::vector<double> logs_;
  bool floor_rejected_ = false;
};

/// How a Newton minimization ended. kNonFinite covers both NaN/Inf in the
/// barrier value or step and an unsolvable (indefinite) Newton system.
enum class NewtonFailure { kNone, kNonFinite, kTimeout };

struct NewtonOutcome {
  int iterations = 0;
  int ls_trials = 0;         ///< line-search trials (barrier evaluations)
  int ls_floor_rejects = 0;  ///< trials rejected by the slack floor
  int ls_skipped = 0;        ///< halvings skipped by the convexity bound
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
/// of the stage, far from the central path. Halvings that Barrier::step_cap
/// proves would fail the floor are skipped without evaluating phi; they
/// still count toward the 70-trial budget, so the accepted step is the one
/// the full backtracking would take.
NewtonOutcome newton_minimize(Barrier& bar, double t, Vec& y,
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

  // KKT backend selection, once per minimization: when the Hessian's
  // skyline envelope is sparse enough, assemble and factorize in skyline
  // form; otherwise fall back to the dense path. Both are assembled by the
  // same loops through per-row offsets into their storage.
  std::vector<size_t> first = bar.profile_first();
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
  std::vector<std::ptrdiff_t> row(n);
  if (use_skyline) {
    sky = util::SkylineMatrix(std::move(first));
    for (size_t i = 0; i < n; ++i) row[i] = sky.row_offset(i);
  } else {
    hess = Matrix(n, n, 0.0);
    for (size_t i = 0; i < n; ++i) row[i] = static_cast<std::ptrdiff_t>(i * n);
  }

  for (int it = 0; it < opt.max_newton_iters; ++it) {
    if (deadline.expired()) {
      out.exit = StageExit::kFailed;
      out.failure = NewtonFailure::kTimeout;
      return out;
    }
    if (use_skyline)
      sky.clear_values();
    else
      hess.fill(0.0);
    double* h = use_skyline ? sky.values() : hess.data();
    double phi = bar.derivs(t, y, grad, h, row.data());
    phi = util::fault_corrupt(util::FaultClass::kSolverNonFinite,
                              "gp.newton.phi", phi);
    if (!std::isfinite(phi)) {
      out.exit = StageExit::kFailed;
      out.failure = NewtonFailure::kNonFinite;
      return out;
    }
    // Levenberg-style floor keeps the system solvable when the Hessian is
    // nearly singular (e.g. slack variables far from activity).
    for (size_t i = 0; i < n; ++i)
      h[row[i] + static_cast<std::ptrdiff_t>(i)] += 1e-12;
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
    const double cap = bar.step_cap(step);
    double alpha = 1.0;
    bool accepted = false;
    for (int ls = 0; ls < 70; ++ls, alpha *= 0.5) {
      if (alpha > cap) {
        ++out.ls_skipped;
        continue;
      }
      trial = y;
      util::axpy(alpha, step, trial);
      const double phi_trial = bar.phi_at(t, trial, /*iterate=*/false);
      ++out.ls_trials;
      if (bar.floor_rejected()) ++out.ls_floor_rejects;
      if (std::isfinite(phi_trial) && phi_trial < phi &&
          phi_trial <= phi - 1e-4 * alpha * decrement2) {
        std::swap(y, trial);
        if (bar.aux()) bar.center_aux(t, y);
        accepted = true;
        break;
      }
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

  Barrier bar(problem, n);

  const Deadline deadline = Deadline::from_ms(options_.deadline_ms);

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
    const double m_total = static_cast<double>(bar.constraints()) +
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
    if (bar.constraints() > 0 &&
        bar.max_constraint(y) >= -options_.feas_margin) {
      obs::Span phase1_span("gp.phase1");
      // Augment with auxiliary s: minimize s subject to F_j(y) - s <= 0.
      Vec ylo1 = ylo, yhi1 = yhi;
      const double s0 = bar.max_constraint(y) + 1.0;
      if (!std::isfinite(s0)) {
        finish(SolveStatus::kNumericalError,
               "non-finite constraint value at the starting point");
        return;
      }
      // Generous box for s keeps the barrier well-behaved.
      ylo1.push_back(std::min(-10.0, s0 - 100.0));
      yhi1.push_back(s0 + 100.0);
      bar.set_phase(/*aux=*/true, ylo1, yhi1);

      Vec ys = y;
      ys.push_back(s0);
      const double want = -2.0 * options_.feas_margin;
      auto feasible_now = [&](const Vec& yy) {
        return bar.max_constraint(yy) < want;
      };
      // Infeasibility certificate. At the central point of weight t the
      // duality gap of "min s s.t. F_j(y) <= s, y and s in their boxes" is
      // m1 / t, m1 counting the constraints plus both sides of all n + 1
      // boxes (Boyd & Vandenberghe §11.2), so s(t) - m1/t bounds the
      // optimal s from below. Once that bound exceeds feas_margin no point
      // can be strictly feasible and the rest of the schedule cannot
      // change the verdict. Only a stage that ended on the Newton
      // decrement test is centered enough to issue it.
      const double m1 = static_cast<double>(bar.constraints()) +
                        2.0 * static_cast<double>(n + 1);
      double certified_bound = -std::numeric_limits<double>::infinity();
      double t = 1.0;
      NewtonFailure p1_failure = NewtonFailure::kNone;
      for (int stage = 0; stage < options_.max_barrier_stages; ++stage) {
        ++total_stages;
        auto outcome =
            newton_minimize(bar, t, ys, options_, deadline, feasible_now);
        total_newton += outcome.iterations;
        trace.push_back({static_cast<int>(trace.size()), true, t,
                         outcome.iterations, outcome.converged(), -1.0,
                         outcome.exit, outcome.ls_trials,
                         outcome.ls_floor_rejects, outcome.ls_skipped});
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
        if (static_cast<double>(bar.constraints()) / t < options_.tolerance)
          break;
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
      if (bar.max_constraint(y) >= 0.0) {
        finish(SolveStatus::kInfeasible,
               util::strfmt(
                   "phase I failed: max constraint value %.4g (want < 1)",
                   std::exp(bar.max_constraint(y))));
        return;
      }
    }

    // ---- Phase II: barrier path following ----
    obs::Span phase2_span("gp.phase2");
    bar.set_phase(/*aux=*/false, ylo, yhi);

    double t = options_.t_initial;
    // A warm start that is strictly feasible sits near the previous
    // optimum — close to its active constraints. Low-t centering would
    // drag the iterate back toward the analytic center only to return, so
    // skip two stages of the barrier schedule. Jumping further (e.g.
    // straight to the terminal weight) backfires: far from the central
    // path at high t, Newton exhausts its per-stage budget and the solve
    // settles on an uncentered point. Phase I above restores strict
    // feasibility when the raw warm point sat on its binding set.
    if (x0 != nullptr && bar.max_constraint(y) < -options_.feas_margin)
      t *= options_.barrier_mu * options_.barrier_mu;
    bool hit_limit = true;
    bool stage_exhausted = false;
    for (int stage = 0; stage < options_.max_barrier_stages; ++stage) {
      ++total_stages;
      auto outcome = newton_minimize(bar, t, y, options_, deadline);
      total_newton += outcome.iterations;
      t_final = t;
      trace.push_back({static_cast<int>(trace.size()), false, t,
                       outcome.iterations, outcome.converged(), m_total / t,
                       outcome.exit, outcome.ls_trials,
                       outcome.ls_floor_rejects, outcome.ls_skipped});
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
