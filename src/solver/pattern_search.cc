#include "solver/pattern_search.hh"

#include <algorithm>
#include <cmath>

#include "solver/qp.hh"

namespace libra {

SearchResult
patternSearch(const ScalarObjective& f, const ConstraintSet& constraints,
              const Vec& x0, PatternSearchOptions options)
{
    const std::size_t n = x0.size();
    double base = 1.0;
    for (double v : x0)
        base = std::max(base, std::abs(v));
    double step = options.initialStep * base;
    const double minStep = options.minStep * base;

    SearchResult best{x0, f(x0), 0};
    int evals = 0;
    Projector projector(constraints);
    Vec cand;

    while (step > minStep && evals < options.maxIterations) {
        bool improved = false;
        for (std::size_t i = 0; i < n && evals < options.maxIterations;
             ++i) {
            for (double sign : {+1.0, -1.0}) {
                cand = best.x;
                cand[i] += sign * step;
                projector.project(&cand);
                double fv = f(cand);
                ++evals;
                if (fv < best.value) {
                    best.value = fv;
                    best.x = cand;
                    improved = true;
                }
            }
        }
        if (!improved)
            step *= 0.5;
    }
    best.iterations = evals;
    return best;
}

} // namespace libra
