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
 * bit-identical too. With @p score_x the batch also evaluates x itself
 * as point 2n, returned in values[2n]. @p points and @p values hold
 * 2n + 1 entries and, like @p g, are reused across iterations.
 */
void
batchedGradient(const BatchEvaluable& batch, const Vec& x, bool score_x,
                std::vector<Vec>& points, std::vector<double>& values,
                Vec& g)
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
    if (score_x)
        points[2 * n] = x;
    batch.evaluateBatch(points.data(), 2 * n + (score_x ? 1 : 0),
                        values.data());
    for (std::size_t i = 0; i < n; ++i) {
        g[i] = (values[2 * i] - values[2 * i + 1]) /
               (points[2 * i][i] - points[2 * i + 1][i]);
    }
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
    // points as one SIMD batch, and scores the previous step's iterate
    // as one more point of that batch; plain objectives pay one call
    // per point. Either way every number computed is bit-identical.
    const std::size_t n = x0.size();
    const BatchEvaluable* batch = batchFacet(f);
    std::vector<Vec> points;
    std::vector<double> values;
    if (batch) {
        points.assign(2 * n + 1, x0);
        values.assign(2 * n + 1, 0.0);
    }
    Projector projector(constraints);

    Vec x = x0;
    Vec g(n, 0.0);
    SearchResult best{x, f(x), 0};
    double scaleBase = std::max(norm(x0), 1.0) * options.initialStep;
    int sinceImprove = 0;

    // Score iterate x; true once patience has run out.
    auto scoreExhausts = [&](double fx) {
        if (fx < best.value - options.tol * std::abs(best.value)) {
            best.value = fx;
            best.x = x;
            sinceImprove = 0;
            return false;
        }
        return ++sinceImprove >= options.patience;
    };

    // With the batch facet, f(x) of a step is deferred to the next
    // iteration's batch; the gradient of a batch whose score exhausts
    // patience is discarded, exactly where the scalar loop stops.
    bool scorePending = false;
    for (int k = 1; k <= options.maxIterations; ++k) {
        if (batch) {
            batchedGradient(*batch, x, scorePending, points, values, g);
            if (scorePending) {
                scorePending = false;
                if (scoreExhausts(values[2 * n]))
                    break;
            }
        } else {
            g = numericGradient(f, x);
        }
        best.iterations = k;
        double gn = norm(g);
        if (gn <= 0.0)
            break;
        double step = scaleBase / (std::sqrt(static_cast<double>(k)) * gn);
        for (std::size_t i = 0; i < n; ++i)
            x[i] += -step * g[i];
        projector.project(&x);
        if (batch)
            scorePending = true;
        else if (scoreExhausts(f(x)))
            break;
    }
    // The last allowed iteration's step has no next batch to ride.
    if (scorePending)
        scoreExhausts(f(x));
    return best;
}

} // namespace libra
