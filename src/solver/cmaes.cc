#include "solver/cmaes.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/random.hh"
#include "common/thread_pool.hh"
#include "solver/batch_eval.hh"
#include "solver/matrix.hh"
#include "solver/qp.hh"

namespace libra {

SearchResult
cmaesSearch(const ScalarObjective& f, const ConstraintSet& constraints,
            const Vec& x0, const CmaesOptions& options)
{
    const std::size_t n = x0.size();
    const double nd = static_cast<double>(n);

    const int lambda =
        options.populationSize > 0
            ? options.populationSize
            : 4 + static_cast<int>(std::floor(3.0 * std::log(nd)));
    const std::size_t lam = static_cast<std::size_t>(lambda);
    const std::size_t mu = lam / 2;

    // Log-rank recombination weights and the standard CMA constants
    // (Hansen, "The CMA evolution strategy: a tutorial").
    Vec weights(mu);
    double wSum = 0.0;
    for (std::size_t i = 0; i < mu; ++i) {
        weights[i] = std::log(static_cast<double>(mu) + 0.5) -
                     std::log(static_cast<double>(i) + 1.0);
        wSum += weights[i];
    }
    double muEff = 0.0;
    for (auto& w : weights) {
        w /= wSum;
        muEff += w * w;
    }
    muEff = 1.0 / muEff;

    const double cSigma = (muEff + 2.0) / (nd + muEff + 5.0);
    const double dSigma =
        1.0 + cSigma +
        2.0 * std::max(0.0, std::sqrt((muEff - 1.0) / (nd + 1.0)) - 1.0);
    const double cc =
        (4.0 + muEff / nd) / (nd + 4.0 + 2.0 * muEff / nd);
    const double c1 = 2.0 / ((nd + 1.3) * (nd + 1.3) + muEff);
    const double cMu = std::min(
        1.0 - c1, 2.0 * (muEff - 2.0 + 1.0 / muEff) /
                      ((nd + 2.0) * (nd + 2.0) + muEff));
    const double chiN =
        std::sqrt(nd) *
        (1.0 - 1.0 / (4.0 * nd) + 1.0 / (21.0 * nd * nd));

    Rng rng(options.seed);
    Vec mean = x0;
    double sigma = options.initialSigma > 0.0
                       ? options.initialSigma
                       : 0.3 * options.scale / nd;
    const double sigmaFloor = 1e-12 * std::max(options.scale, 1.0);
    Matrix cov = Matrix::identity(n);
    Vec pSigma(n, 0.0);
    Vec pc(n, 0.0);

    SearchResult best{x0, f(x0), 1};
    long long evals = 1;
    // A generation only runs when its whole population fits the
    // remaining budget, so `evals` never exceeds maxEvals.
    auto budgetLeft = [&] {
        return options.maxEvals <= 0 ||
               evals + static_cast<long long>(lam) <= options.maxEvals;
    };

    std::vector<Vec> cands(lam);
    std::vector<Vec> steps(lam); // Repaired y_i = (x_i - mean) / sigma.
    Vec values(lam, 0.0);
    const BatchEvaluable* batch = batchFacet(f);
    Projector projector(constraints);

    for (int gen = 0;
         gen < options.generations && budgetLeft() && sigma > sigmaFloor;
         ++gen) {
        // Eigendecompose C = B diag(d^2) B' once per generation.
        Matrix b;
        Vec d2;
        symmetricEigen(cov, &b, &d2);
        Vec d(n);
        for (std::size_t i = 0; i < n; ++i)
            d[i] = std::sqrt(std::max(d2[i], 1e-20));

        // Draw the whole population serially so the stream position
        // never depends on evaluation scheduling, then repair.
        for (std::size_t i = 0; i < lam; ++i) {
            Vec z(n);
            for (auto& zi : z)
                zi = rng.normal();
            Vec y(n, 0.0);
            for (std::size_t r = 0; r < n; ++r)
                for (std::size_t c = 0; c < n; ++c)
                    y[r] += b.at(r, c) * d[c] * z[c];
            cands[i] = axpy(mean, sigma, y);
            projector.project(&cands[i]);
            steps[i] = scale(1.0 / sigma, sub(cands[i], mean));
        }

        // Batched evaluation: one dispatch per generation, results in
        // per-candidate slots. The compiled objective streams the
        // whole generation through the SIMD kernels (bit-identical to
        // per-candidate calls); plain objectives fan out per candidate.
        if (batch)
            batch->evaluateBatch(cands.data(), lam, values.data());
        else
            parallelFor(lam,
                        [&](std::size_t i) { values[i] = f(cands[i]); });
        evals += static_cast<long long>(lam);

        // Rank with ties toward the lower candidate index.
        std::vector<std::size_t> order(lam);
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t c) {
                      if (values[a] != values[c])
                          return values[a] < values[c];
                      return a < c;
                  });
        if (values[order[0]] < best.value) {
            best.value = values[order[0]];
            best.x = cands[order[0]];
        }

        // Recombine the top-mu repaired steps.
        Vec yw(n, 0.0);
        for (std::size_t i = 0; i < mu; ++i)
            for (std::size_t k = 0; k < n; ++k)
                yw[k] += weights[i] * steps[order[i]][k];
        mean = axpy(mean, sigma, yw);

        // Step-size path needs C^{-1/2} yw = B diag(1/d) B' yw.
        Vec tmp(n, 0.0);
        for (std::size_t c = 0; c < n; ++c)
            for (std::size_t r = 0; r < n; ++r)
                tmp[c] += b.at(r, c) * yw[r];
        Vec cInvHalfYw(n, 0.0);
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < n; ++c)
                cInvHalfYw[r] += b.at(r, c) * tmp[c] / d[c];
        double pathScale = std::sqrt(cSigma * (2.0 - cSigma) * muEff);
        for (std::size_t k = 0; k < n; ++k)
            pSigma[k] = (1.0 - cSigma) * pSigma[k] +
                        pathScale * cInvHalfYw[k];

        double pSigmaNorm = norm(pSigma);
        double denom = std::sqrt(
            1.0 - std::pow(1.0 - cSigma, 2.0 * (gen + 1)));
        bool hSigma = pSigmaNorm / denom / chiN < 1.4 + 2.0 / (nd + 1.0);
        double ccScale =
            hSigma ? std::sqrt(cc * (2.0 - cc) * muEff) : 0.0;
        for (std::size_t k = 0; k < n; ++k)
            pc[k] = (1.0 - cc) * pc[k] + ccScale * yw[k];

        // Rank-one + rank-mu covariance update on the repaired steps.
        double c1a =
            c1 * (1.0 - (hSigma ? 0.0 : 1.0) * cc * (2.0 - cc));
        for (std::size_t r = 0; r < n; ++r) {
            for (std::size_t c = r; c < n; ++c) {
                double rankMu = 0.0;
                for (std::size_t i = 0; i < mu; ++i)
                    rankMu += weights[i] * steps[order[i]][r] *
                              steps[order[i]][c];
                double v = (1.0 - c1a - cMu) * cov.at(r, c) +
                           c1 * pc[r] * pc[c] + cMu * rankMu;
                cov.at(r, c) = v;
                cov.at(c, r) = v;
            }
        }

        sigma *= std::exp(cSigma / dSigma * (pSigmaNorm / chiN - 1.0));
    }

    best.iterations = static_cast<int>(
        std::min<long long>(evals, 1ll << 30));
    return best;
}

} // namespace libra
