#include "solver/pattern_search.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "solver/batch_eval.hh"
#include "solver/qp.hh"

namespace libra {

SearchResult
patternSearch(const ScalarObjective& f, const ConstraintSet& constraints,
              const Vec& x0, PatternSearchOptions options)
{
    const std::size_t n = x0.size();
    const std::size_t polls = 2 * n; // Sweep order: +e0, -e0, +e1, ...
    double base = 1.0;
    for (double v : x0)
        base = std::max(base, std::abs(v));
    double step = options.initialStep * base;
    const double minStep = options.minStep * base;

    SearchResult best{x0, f(x0), 0};
    int evals = 0;
    Projector projector(constraints);

    // Polls are scored in windows projected from best.x: with the
    // batch facet, every poll the sweep can still consume (the cap is
    // only checked between coordinates) in one batch; without it, one
    // poll at a time. An improvement moves best.x and voids the rest
    // of the window. Results, evals and the cap are exactly those of
    // scoring each poll alone, since each is computed from the same
    // best.x either way.
    const BatchEvaluable* batch = batchFacet(f);
    std::vector<Vec> window(batch ? polls : 1, x0);
    std::vector<double> values(window.size());

    while (step > minStep && evals < options.maxIterations) {
        bool improved = false;
        std::size_t first = 0; // Sweep position of window[0].
        std::size_t scored = 0; // Valid window entries.
        for (std::size_t p = 0; p < polls; ++p) {
            if (p % 2 == 0 && evals >= options.maxIterations)
                break;
            if (p >= first + scored) {
                std::size_t count = 1;
                if (batch) {
                    int ev = evals + 1;
                    while (p + count < polls &&
                           ((p + count) % 2 == 1 ||
                            ev < options.maxIterations)) {
                        ++count;
                        ++ev;
                    }
                }
                for (std::size_t k = 0; k < count; ++k) {
                    Vec& cand = window[k];
                    cand = best.x;
                    cand[(p + k) / 2] +=
                        ((p + k) % 2 == 0 ? +1.0 : -1.0) * step;
                    projector.project(&cand);
                }
                evaluatePoints(f, batch, window.data(), count,
                               values.data());
                first = p;
                scored = count;
            }
            const double fv = values[p - first];
            ++evals;
            if (fv < best.value) {
                best.value = fv;
                best.x = window[p - first];
                improved = true;
                scored = 0;
            }
        }
        if (!improved)
            step *= 0.5;
    }
    best.iterations = evals;
    return best;
}

} // namespace libra
