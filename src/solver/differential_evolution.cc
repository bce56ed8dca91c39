#include "solver/differential_evolution.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/random.hh"
#include "common/thread_pool.hh"
#include "solver/batch_eval.hh"
#include "solver/qp.hh"

namespace libra {

SearchResult
differentialEvolutionSearch(const ScalarObjective& f,
                            const ConstraintSet& constraints,
                            const Vec& x0,
                            const DifferentialEvolutionOptions& options)
{
    const std::size_t n = x0.size();
    // rand/1 mutation needs i plus three distinct partners.
    const std::size_t np =
        options.populationSize > 0
            ? std::max<std::size_t>(
                  4, static_cast<std::size_t>(options.populationSize))
            : std::clamp<std::size_t>(8 * n, 16, 48);

    Rng rng(options.seed);
    long long evals = 0;
    auto budgetLeft = [&](std::size_t wanted) {
        return options.maxEvals <= 0 ||
               evals + static_cast<long long>(wanted) <= options.maxEvals;
    };

    // Member 0 is the caller's start; the rest sample the scaled
    // simplex (the multistart driver's diversity scheme) and repair.
    Projector projector(constraints);
    std::vector<Vec> pop(np);
    pop[0] = x0;
    for (std::size_t i = 1; i < np; ++i) {
        pop[i] = rng.simplexPoint(n, options.scale);
        projector.project(&pop[i]);
    }

    Vec values(np, 0.0);
    if (!budgetLeft(np)) {
        // Budget cannot even cover the initial population; score the
        // start alone and return it.
        return SearchResult{x0, f(x0), 1};
    }
    // The compiled objective streams whole generations through the
    // SIMD kernels (bit-identical to per-candidate calls); plain
    // objectives fan out per candidate.
    const BatchEvaluable* batch = batchFacet(f);
    if (batch)
        batch->evaluateBatch(pop.data(), np, values.data());
    else
        parallelFor(np, [&](std::size_t i) { values[i] = f(pop[i]); });
    evals += static_cast<long long>(np);

    std::vector<Vec> trials(np);
    Vec trialValues(np, 0.0);
    const double fw = options.differentialWeight;

    for (int gen = 0; gen < options.generations && budgetLeft(np);
         ++gen) {
        // Build every trial serially (all randomness happens here),
        // then evaluate the generation in one batched dispatch.
        for (std::size_t i = 0; i < np; ++i) {
            std::size_t r1, r2, r3;
            do {
                r1 = static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<int>(np) - 1));
            } while (r1 == i);
            do {
                r2 = static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<int>(np) - 1));
            } while (r2 == i || r2 == r1);
            do {
                r3 = static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<int>(np) - 1));
            } while (r3 == i || r3 == r1 || r3 == r2);

            Vec trial = pop[i];
            std::size_t forced = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<int>(n) - 1));
            for (std::size_t k = 0; k < n; ++k) {
                bool cross = rng.uniform(0.0, 1.0) <
                                 options.crossoverRate ||
                             k == forced;
                if (cross)
                    trial[k] = pop[r1][k] +
                               fw * (pop[r2][k] - pop[r3][k]);
            }
            projector.project(&trial);
            trials[i] = std::move(trial);
        }

        if (batch)
            batch->evaluateBatch(trials.data(), np, trialValues.data());
        else
            parallelFor(np, [&](std::size_t i) {
                trialValues[i] = f(trials[i]);
            });
        evals += static_cast<long long>(np);

        // Greedy one-to-one selection: index i only ever competes
        // with trial i, so the outcome is scheduling-independent.
        for (std::size_t i = 0; i < np; ++i) {
            if (trialValues[i] < values[i]) {
                pop[i] = trials[i];
                values[i] = trialValues[i];
            }
        }
    }

    // Winner in index order, ties toward the lower slot.
    std::size_t bestIdx = 0;
    for (std::size_t i = 1; i < np; ++i)
        if (values[i] < values[bestIdx])
            bestIdx = i;
    return SearchResult{pop[bestIdx], values[bestIdx],
                        static_cast<int>(
                            std::min<long long>(evals, 1ll << 30))};
}

} // namespace libra
