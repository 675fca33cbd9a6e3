#include "optim/lbfgsb.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace pollux {
namespace {

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  double total = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    total += a[i] * b[i];
  }
  return total;
}

double InfNorm(const std::vector<double>& v) {
  double best = 0.0;
  for (double x : v) {
    best = std::max(best, std::fabs(x));
  }
  return best;
}

// A variable is considered pinned to a bound when it sits on the bound and the
// gradient pushes it further out of the box.
void ActiveSet(const std::vector<double>& x, const std::vector<double>& g,
               const std::vector<double>& lower, const std::vector<double>& upper,
               std::vector<char>& active) {
  for (size_t i = 0; i < x.size(); ++i) {
    const double span = std::max(1.0, upper[i] - lower[i]);
    const double edge = 1e-10 * span;
    active[i] = (x[i] <= lower[i] + edge && g[i] > 0.0) || (x[i] >= upper[i] - edge && g[i] < 0.0);
  }
}

// The finite-difference step rule. `fx` is f(x); `f_probe(i)` returns f at
// `probe`, which equals x except in coordinate i. Fills `grad`.
template <typename ProbeFn>
void FiniteDifferenceInto(const std::vector<double>& x, double fx, const std::vector<double>& lower,
                          const std::vector<double>& upper, double epsilon,
                          std::vector<double>& probe, std::vector<double>& grad,
                          ProbeFn&& f_probe) {
  probe = x;
  for (size_t i = 0; i < x.size(); ++i) {
    const double scale = std::max(1.0, std::fabs(x[i]));
    double h = epsilon * scale;
    // Shrink the step so both probe points stay inside the box; fall back to a
    // one-sided difference when the variable is pinned to a bound.
    const double room_up = upper[i] - x[i];
    const double room_down = x[i] - lower[i];
    if (room_up >= h && room_down >= h) {
      probe[i] = x[i] + h;
      const double f_plus = f_probe(i);
      probe[i] = x[i] - h;
      const double f_minus = f_probe(i);
      grad[i] = (f_plus - f_minus) / (2.0 * h);
    } else if (room_up >= room_down) {
      h = std::min(h, room_up);
      if (h <= 0.0) {
        grad[i] = 0.0;
        continue;
      }
      probe[i] = x[i] + h;
      const double f_plus = f_probe(i);
      grad[i] = (f_plus - fx) / h;
    } else {
      h = std::min(h, room_down);
      probe[i] = x[i] - h;
      const double f_minus = f_probe(i);
      grad[i] = (fx - f_minus) / h;
    }
    probe[i] = x[i];
  }
}

// Adapts a plain Objective: every evaluation, probes included, calls it in
// full and there are no terms.
class WholeObjective final : public RowObjective {
 public:
  explicit WholeObjective(const Objective& f) : f_(f) {}
  size_t num_rows() const override { return 0; }
  double Evaluate(const std::vector<double>& x, std::vector<double>&) const override {
    return f_(x);
  }
  double Probe(const std::vector<double>& x, size_t, const std::vector<double>&,
               std::vector<double>&) const override {
    return f_(x);
  }

 private:
  const Objective& f_;
};

// Every buffer a minimization needs, sized once. `x_new`/`x_try` and their
// terms are swapped, never reallocated; the curvature pairs live in a ring
// whose oldest pair sits at slot `first`.
struct Workspace {
  Workspace(size_t n, size_t rows, int history)
      : active(n),
        g(n),
        g_new(n),
        pg(n),
        direction(n),
        x_new(n),
        x_try(n),
        probe(n),
        terms(rows),
        terms_new(rows),
        terms_try(rows),
        probe_terms(rows),
        capacity(static_cast<size_t>(std::max(history, 0))),
        s(capacity, std::vector<double>(n)),
        y(capacity, std::vector<double>(n)),
        rho(capacity),
        alphas(capacity),
        s_next(n),
        y_next(n) {}

  std::vector<char> active;
  std::vector<double> g, g_new, pg, direction, x_new, x_try, probe;
  std::vector<double> terms, terms_new, terms_try, probe_terms;
  size_t capacity;
  std::vector<std::vector<double>> s, y;
  std::vector<double> rho, alphas;
  std::vector<double> s_next, y_next;
  size_t first = 0;
  size_t count = 0;

  // Slot of the k-th oldest stored pair, k < capacity.
  size_t Slot(size_t k) const {
    const size_t slot = first + k;
    return slot < capacity ? slot : slot - capacity;
  }
};

LbfgsbResult Minimize(const BoundedProblem& problem, const RowObjective& objective,
                      const std::vector<double>& x0, const LbfgsbOptions& options,
                      Workspace& ws) {
  const size_t n = x0.size();
  const std::vector<double>& lower = problem.lower;
  const std::vector<double>& upper = problem.upper;
  LbfgsbResult result;
  result.x = ProjectToBox(x0, lower, upper);
  ws.first = 0;
  ws.count = 0;

  int evaluations = 0;
  auto eval_f = [&](const std::vector<double>& x, std::vector<double>& terms) {
    ++evaluations;
    return objective.Evaluate(x, terms);
  };
  // Gradient at x, whose value fx and terms are already known.
  auto eval_g = [&](const std::vector<double>& x, double fx, const std::vector<double>& terms,
                    std::vector<double>& grad) {
    if (problem.gradient) {
      grad = problem.gradient(x);
      return;
    }
    FiniteDifferenceInto(x, fx, lower, upper, options.fd_epsilon, ws.probe, grad, [&](size_t i) {
      ++evaluations;
      return objective.Probe(ws.probe, i, terms, ws.probe_terms);
    });
  };

  double f = eval_f(result.x, ws.terms);
  eval_g(result.x, f, ws.terms, ws.g);
  std::vector<double>& g = ws.g;
  std::vector<double>& pg = ws.pg;
  std::vector<double>& direction = ws.direction;

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    ActiveSet(result.x, g, lower, upper, ws.active);
    for (size_t i = 0; i < n; ++i) {
      pg[i] = ws.active[i] ? 0.0 : g[i];
    }
    if (InfNorm(pg) < options.gradient_tolerance) {
      result.converged = true;
      break;
    }

    // Two-loop recursion on the free variables.
    for (size_t i = 0; i < n; ++i) {
      direction[i] = -pg[i];
    }
    for (size_t k = ws.count; k-- > 0;) {
      const size_t slot = ws.Slot(k);
      ws.alphas[k] = ws.rho[slot] * Dot(ws.s[slot], direction);
      for (size_t i = 0; i < n; ++i) {
        direction[i] -= ws.alphas[k] * ws.y[slot][i];
      }
    }
    if (ws.count > 0) {
      const size_t last = ws.Slot(ws.count - 1);
      const double yy = Dot(ws.y[last], ws.y[last]);
      if (yy > 0.0) {
        const double gamma = Dot(ws.s[last], ws.y[last]) / yy;
        for (double& d : direction) {
          d *= gamma;
        }
      }
    }
    for (size_t k = 0; k < ws.count; ++k) {
      const size_t slot = ws.Slot(k);
      const double beta = ws.rho[slot] * Dot(ws.y[slot], direction);
      for (size_t i = 0; i < n; ++i) {
        direction[i] += (ws.alphas[k] - beta) * ws.s[slot][i];
      }
    }
    for (size_t i = 0; i < n; ++i) {
      if (ws.active[i]) {
        direction[i] = 0.0;
      }
    }
    // Fall back to steepest descent if the quasi-Newton direction is not a
    // descent direction (can happen right after curvature resets).
    double descent = Dot(g, direction);
    if (!(descent < 0.0)) {
      for (size_t i = 0; i < n; ++i) {
        direction[i] = -pg[i];
      }
      descent = Dot(g, direction);
      if (!(descent < 0.0)) {
        result.converged = true;
        break;
      }
    }

    // Projected line search along `direction`: backtracks from step 1 until
    // Armijo holds, then forward-expands by doubling while the objective
    // keeps improving (guards against under-scaled quasi-Newton directions
    // when the curvature memory is stale). Returns true on acceptance,
    // leaving the accepted point in ws.x_new / ws.terms_new / f_new.
    double f_new = f;
    auto try_step = [&](double step, std::vector<double>& x_out, std::vector<double>& terms_out,
                        double* f_out) {
      for (size_t i = 0; i < n; ++i) {
        x_out[i] = std::clamp(result.x[i] + step * direction[i], lower[i], upper[i]);
      }
      *f_out = eval_f(x_out, terms_out);
      double model_decrease = 0.0;
      for (size_t i = 0; i < n; ++i) {
        model_decrease += g[i] * (x_out[i] - result.x[i]);
      }
      return model_decrease < 0.0 && *f_out <= f + options.armijo_c1 * model_decrease;
    };
    auto line_search = [&]() {
      double step = 1.0;
      bool ok = false;
      for (int ls = 0; ls < options.max_line_search_steps; ++ls) {
        ok = try_step(step, ws.x_new, ws.terms_new, &f_new);
        if (ok) {
          break;
        }
        if (ws.x_new == result.x) {
          return false;  // Every coordinate pinned to a bound.
        }
        step *= 0.5;
      }
      if (!ok) {
        return false;
      }
      // Forward expansion from the accepted step.
      for (int grow = 0; grow < options.max_line_search_steps; ++grow) {
        double f_try = 0.0;
        if (!try_step(step * 2.0, ws.x_try, ws.terms_try, &f_try) || f_try >= f_new) {
          break;
        }
        step *= 2.0;
        std::swap(ws.x_new, ws.x_try);
        std::swap(ws.terms_new, ws.terms_try);
        f_new = f_try;
      }
      return true;
    };

    bool accepted = line_search();
    if (!accepted && ws.count > 0) {
      // The quasi-Newton direction can be poorly scaled when the curvature
      // memory is stale; reset it and retry with projected steepest descent.
      ws.first = 0;
      ws.count = 0;
      const double scale = 1.0 / std::max(1.0, InfNorm(pg));
      for (size_t i = 0; i < n; ++i) {
        direction[i] = -pg[i] * scale;
      }
      accepted = line_search();
    }
    if (!accepted) {
      result.converged = InfNorm(pg) < 1e-4;
      break;
    }

    eval_g(ws.x_new, f_new, ws.terms_new, ws.g_new);
    for (size_t i = 0; i < n; ++i) {
      ws.s_next[i] = ws.x_new[i] - result.x[i];
      ws.y_next[i] = ws.g_new[i] - g[i];
    }
    const double sy = Dot(ws.s_next, ws.y_next);
    const double ss = Dot(ws.s_next, ws.s_next);
    if (sy > 1e-12 * std::sqrt(ss) * std::sqrt(Dot(ws.y_next, ws.y_next)) && sy > 0.0 &&
        ws.capacity > 0) {
      size_t slot;
      if (ws.count < ws.capacity) {
        slot = ws.Slot(ws.count++);
      } else {
        slot = ws.first;  // Full: the newest pair replaces the oldest.
        ws.first = ws.Slot(1);
      }
      std::swap(ws.s[slot], ws.s_next);
      std::swap(ws.y[slot], ws.y_next);
      ws.rho[slot] = 1.0 / sy;
    }

    const double f_prev = f;
    std::swap(result.x, ws.x_new);
    std::swap(ws.terms, ws.terms_new);
    std::swap(ws.g, ws.g_new);
    f = f_new;
    if (std::fabs(f_prev - f) <=
        options.function_tolerance * std::max({std::fabs(f_prev), std::fabs(f), 1.0})) {
      result.converged = true;
      break;
    }
  }

  result.value = f;
  result.evaluations = evaluations;
  return result;
}

const RowObjective& ObjectiveOf(const BoundedProblem& problem, const WholeObjective& whole) {
  return problem.row_objective != nullptr ? *problem.row_objective : whole;
}

}  // namespace

std::vector<double> ProjectToBox(std::vector<double> x, const std::vector<double>& lower,
                                 const std::vector<double>& upper) {
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = std::clamp(x[i], lower[i], upper[i]);
  }
  return x;
}

std::vector<double> FiniteDifferenceGradient(const Objective& f, const std::vector<double>& x,
                                             const std::vector<double>& lower,
                                             const std::vector<double>& upper, double epsilon) {
  std::vector<double> grad(x.size(), 0.0);
  std::vector<double> probe;
  FiniteDifferenceInto(x, f(x), lower, upper, epsilon, probe, grad,
                       [&](size_t) { return f(probe); });
  return grad;
}

LbfgsbResult MinimizeBounded(const BoundedProblem& problem, const std::vector<double>& x0,
                             const LbfgsbOptions& options) {
  const WholeObjective whole(problem.objective);
  const RowObjective& objective = ObjectiveOf(problem, whole);
  Workspace ws(x0.size(), objective.num_rows(), options.history);
  return Minimize(problem, objective, x0, options, ws);
}

LbfgsbResult MinimizeBoundedMultiStart(const BoundedProblem& problem, const std::vector<double>& x0,
                                       int extra_starts, Rng& rng, const LbfgsbOptions& options) {
  const WholeObjective whole(problem.objective);
  const RowObjective& objective = ObjectiveOf(problem, whole);
  Workspace ws(x0.size(), objective.num_rows(), options.history);
  LbfgsbResult best = Minimize(problem, objective, x0, options, ws);
  int evaluations = best.evaluations;
  std::vector<double> start(x0.size());
  for (int s = 0; s < extra_starts; ++s) {
    for (size_t i = 0; i < start.size(); ++i) {
      const double lo = problem.lower[i];
      const double hi = problem.upper[i];
      if (std::isfinite(lo) && std::isfinite(hi)) {
        start[i] = rng.Uniform(lo, hi);
      } else if (std::isfinite(lo)) {
        start[i] = lo + rng.Exponential(1.0);
      } else if (std::isfinite(hi)) {
        start[i] = hi - rng.Exponential(1.0);
      } else {
        start[i] = rng.Normal(0.0, 1.0);
      }
    }
    LbfgsbResult candidate = Minimize(problem, objective, start, options, ws);
    evaluations += candidate.evaluations;
    if (candidate.value < best.value) {
      best = std::move(candidate);
    }
  }
  best.evaluations = evaluations;
  return best;
}

}  // namespace pollux
