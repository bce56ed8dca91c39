#include "solver/subgradient.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "solver/batch_eval.hh"
#include "solver/qp.hh"

namespace libra {

namespace {

/**
 * numericGradient with all 2n finite-difference points evaluated in
 * one batched call. Same h, same clamped lower point, same divisor,
 * and the batch is bit-identical per candidate, so the gradient is
 * bit-identical too. @p points and @p values hold 2n entries and are
 * reused across iterations, so a step allocates only the result.
 */
Vec
batchedGradient(const BatchEvaluable& batch, const Vec& x,
                std::vector<Vec>& points, std::vector<double>& values)
{
    const std::size_t n = x.size();
    for (std::size_t i = 0; i < n; ++i) {
        Vec& xp = points[2 * i];
        Vec& xm = points[2 * i + 1];
        xp = x;
        xm = x;
        double h = kGradientRelStep * std::max(std::abs(x[i]), 1e-3);
        xp[i] += h;
        xm[i] = std::max(xm[i] - h, 1e-12);
    }
    batch.evaluateBatch(points.data(), 2 * n, values.data());
    Vec g(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        g[i] = (values[2 * i] - values[2 * i + 1]) /
               (points[2 * i][i] - points[2 * i + 1][i]);
    }
    return g;
}

} // namespace

Vec
numericGradient(const ScalarObjective& f, const Vec& x, double rel_step)
{
    Vec g(x.size(), 0.0);
    for (std::size_t i = 0; i < x.size(); ++i) {
        double h = rel_step * std::max(std::abs(x[i]), 1e-3);
        Vec xp = x;
        Vec xm = x;
        xp[i] += h;
        xm[i] = std::max(xm[i] - h, 1e-12);
        g[i] = (f(xp) - f(xm)) / (xp[i] - xm[i]);
    }
    return g;
}

SearchResult
projectedSubgradient(const ScalarObjective& f,
                     const ConstraintSet& constraints, const Vec& x0,
                     SubgradientOptions options)
{
    // The compiled objective evaluates each step's central-difference
    // points as one SIMD batch; plain objectives pay one call per
    // point. Either way every number computed is bit-identical.
    const BatchEvaluable* batch = batchFacet(f);
    std::vector<Vec> points;
    std::vector<double> values;
    if (batch) {
        points.assign(2 * x0.size(), x0);
        values.assign(2 * x0.size(), 0.0);
    }

    Vec x = x0;
    SearchResult best{x, f(x), 0};
    double scaleBase = std::max(norm(x0), 1.0) * options.initialStep;
    int sinceImprove = 0;

    for (int k = 1; k <= options.maxIterations; ++k) {
        best.iterations = k;
        Vec g = batch ? batchedGradient(*batch, x, points, values)
                      : numericGradient(f, x);
        double gn = norm(g);
        if (gn <= 0.0)
            break;
        double step = scaleBase / (std::sqrt(static_cast<double>(k)) * gn);
        Vec candidate = axpy(x, -step, g);
        x = projectOntoConstraints(constraints, candidate);
        double fx = f(x);
        if (fx < best.value - options.tol * std::abs(best.value)) {
            best.value = fx;
            best.x = x;
            sinceImprove = 0;
        } else {
            if (++sinceImprove >= options.patience)
                break;
        }
    }
    return best;
}

} // namespace libra
