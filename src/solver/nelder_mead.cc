#include "solver/nelder_mead.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "solver/batch_eval.hh"
#include "solver/qp.hh"

namespace libra {

SearchResult
nelderMead(const ScalarObjective& f, const ConstraintSet& constraints,
           const Vec& x0, NelderMeadOptions options)
{
    const std::size_t n = x0.size();
    const BatchEvaluable* batch = batchFacet(f);

    // Penalized scores of xs[0, count): the clipped points go through
    // f in one batch with the facet (one call each without), then
    // each gets its quadratic infeasibility penalty.
    std::vector<Vec> clipped(std::max<std::size_t>(n + 1, 3), x0);
    auto penalized = [&](const Vec* xs, std::size_t count, double* out) {
        for (std::size_t k = 0; k < count; ++k) {
            // Guard against negative bandwidths reaching the raw
            // objective.
            clipped[k] = xs[k];
            for (auto& c : clipped[k])
                c = std::max(c, 1e-9);
        }
        evaluatePoints(f, batch, clipped.data(), count, out);
        for (std::size_t k = 0; k < count; ++k) {
            double v = constraints.maxViolation(xs[k]);
            out[k] = out[k] + options.penaltyWeight * v * v;
        }
    };

    double base = 1.0;
    for (double v : x0)
        base = std::max(base, std::abs(v));
    double edge = options.initialScale * base;

    // Initial simplex: x0 plus one offset vertex per coordinate.
    std::vector<Vec> simplex(n + 1, x0);
    for (std::size_t i = 0; i < n; ++i)
        simplex[i + 1][i] += edge;
    std::vector<double> values(n + 1);
    penalized(simplex.data(), n + 1, values.data());

    // Sort vertices by value: the index permutation std::sort yields,
    // applied by moving vertices through reused buffers.
    std::vector<std::size_t> idx(n + 1);
    std::vector<Vec> sorted(n + 1);
    std::vector<double> sortedValues(n + 1);
    auto order = [&]() {
        std::iota(idx.begin(), idx.end(), 0);
        std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
            return values[a] < values[b];
        });
        for (std::size_t k = 0; k <= n; ++k) {
            sorted[k] = std::move(simplex[idx[k]]);
            sortedValues[k] = values[idx[k]];
        }
        simplex.swap(sorted);
        values.swap(sortedValues);
    };

    // Trial points of one iteration: reflected, expanded, contracted.
    // With the facet all three are scored in the first batch; without
    // it each is scored only when the move logic asks for it.
    enum Trial : std::size_t { kReflect, kExpand, kContract, kTrials };
    Vec centroid(n);
    std::vector<Vec> trial(kTrials, Vec(n));
    double trialValue[kTrials] = {};
    bool scored[kTrials] = {};
    auto score = [&](std::size_t t) {
        if (!scored[t]) {
            std::size_t count = batch ? kTrials - t : 1;
            penalized(trial.data() + t, count, trialValue + t);
            std::fill_n(scored + t, count, true);
        }
        return trialValue[t];
    };
    auto accept = [&](std::size_t t) {
        simplex.back().swap(trial[t]);
        values.back() = trialValue[t];
    };

    int iter = 0;
    for (; iter < options.maxIterations; ++iter) {
        order();
        if (values.back() - values.front() <=
            options.tol * (std::abs(values.front()) + 1e-30))
            break;

        // Centroid of all but the worst vertex.
        std::fill(centroid.begin(), centroid.end(), 0.0);
        for (std::size_t v = 0; v < n; ++v)
            for (std::size_t i = 0; i < n; ++i)
                centroid[i] += simplex[v][i];
        for (auto& c : centroid)
            c /= static_cast<double>(n);

        const Vec& worst = simplex.back();
        for (std::size_t i = 0; i < n; ++i) {
            const double c = centroid[i];
            trial[kReflect][i] = c + 1.0 * (c - worst[i]);
            trial[kExpand][i] = c + 2.0 * (c - worst[i]);
            trial[kContract][i] = c + 0.5 * (worst[i] - c);
        }
        std::fill_n(scored, kTrials, false);

        double fr = score(kReflect);
        if (fr < values.front()) {
            accept(score(kExpand) < fr ? kExpand : kReflect);
        } else if (fr < values[n - 1]) {
            accept(kReflect);
        } else if (score(kContract) < values.back()) {
            accept(kContract);
        } else {
            // Shrink towards the best vertex.
            for (std::size_t v = 1; v <= n; ++v)
                for (std::size_t i = 0; i < n; ++i)
                    simplex[v][i] = simplex[0][i] +
                                    0.5 * (simplex[v][i] - simplex[0][i]);
            penalized(simplex.data() + 1, n, values.data() + 1);
        }
    }
    order();

    Vec projected = projectOntoConstraints(constraints, simplex.front());
    return SearchResult{projected, f(projected), iter};
}

} // namespace libra
