#include "solver/qp.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "solver/feasible.hh"

namespace libra {

namespace {

/** Working-set tolerance and iteration cap of the active-set method. */
constexpr double kTol = 1e-9;
constexpr int kMaxIterations = 200;

/** dot() of a matrix row with the first @p n entries of @p v. */
double
rowDot(const double* row, const double* v, std::size_t n)
{
    double s = 0.0;
    for (std::size_t j = 0; j < n; ++j)
        s += row[j] * v[j];
    return s;
}

} // namespace

Projector::Projector(const ConstraintSet& constraints)
    : constraints_(constraints)
{
    constraints_.canonical(&aEq_, &bEq_, &gLe_, &hLe_);
    const std::size_t n = constraints_.numVars();
    const std::size_t maxDim = n + aEq_.rows() + gLe_.rows();
    c_.resize(n);
    start_.resize(n);
    working_.reserve(gLe_.rows());
    kkt_.reset(maxDim, maxDim);
    kktRhs_.reserve(maxDim);
}

void
Projector::assembleKkt(const Vec& x)
{
    const std::size_t n = c_.size();
    const std::size_t me = aEq_.rows();
    const std::size_t mw = working_.size();
    const std::size_t dim = n + me + mw;

    // KKT system of min 1/2 x'x + c'x (Q = I):
    //   [ I   A'  Gw' ] [ p   ]   [ -(x + c) ]
    //   [ A   0   0   ] [ lam ] = [ 0        ]
    //   [ Gw  0   0   ] [ mu  ]   [ 0        ]
    kkt_.reset(dim, dim);
    kktRhs_.assign(dim, 0.0);

    for (std::size_t i = 0; i < n; ++i)
        kkt_.at(i, i) = 1.0;
    for (std::size_t r = 0; r < me; ++r)
        for (std::size_t j = 0; j < n; ++j) {
            kkt_.at(n + r, j) = aEq_.at(r, j);
            kkt_.at(j, n + r) = aEq_.at(r, j);
        }
    for (std::size_t wi = 0; wi < mw; ++wi) {
        const double* row = gLe_.row(working_[wi]);
        for (std::size_t j = 0; j < n; ++j) {
            kkt_.at(n + me + wi, j) = row[j];
            kkt_.at(j, n + me + wi) = row[j];
        }
    }

    for (std::size_t i = 0; i < n; ++i) {
        // The whole row of I x, not x[i] alone: the sum turns -0.0
        // into 0.0, and 0.0 * inf in another column gives NaN.
        double qx = 0.0;
        for (std::size_t j = 0; j < n; ++j)
            qx += (i == j ? 1.0 : 0.0) * x[j];
        kktRhs_[i] = -(qx + c_[i]);
    }
}

void
Projector::solveKkt(const Vec& x)
{
    assembleKkt(x);
    if (!kkt_.solveInPlace(&kktRhs_)) {
        // Degenerate working set (linearly dependent rows): regularized
        // least squares on the unfactored system still yields a usable
        // step direction.
        assembleKkt(x);
        kktRhs_ = kkt_.solveLeastSquares(kktRhs_);
    }
}

void
Projector::project(Vec* xp)
{
    Vec& x = *xp;
    const std::size_t n = constraints_.numVars();
    x.resize(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        c_[i] = -1.0 * x[i];

    // Phase 1: alternating projections reach a feasible neighbourhood.
    findFeasiblePoint(constraints_, &x);
    if (!constraints_.feasible(x, 1e-5)) {
        fatal("constraint set is infeasible (residual ",
              constraints_.maxViolation(x), ")");
    }
    start_ = x;

    // Phase 2: active-set iterations from the feasible start, with the
    // working set initialized to the inequality rows active there.
    const std::size_t me = aEq_.rows();
    working_.clear();
    for (std::size_t r = 0; r < gLe_.rows(); ++r)
        if (std::abs(rowDot(gLe_.row(r), x.data(), n) - hLe_[r]) <= 1e-8)
            working_.push_back(r);

    for (int iter = 0; iter < kMaxIterations; ++iter) {
        solveKkt(x);
        const double* p = kktRhs_.data();
        const double* mu = kktRhs_.data() + n + me;

        double pNorm = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            pNorm = std::max(pNorm, std::abs(p[i]));
        if (pNorm <= kTol) {
            // Stationary on the working set; check dual feasibility.
            double muMin = 0.0;
            std::size_t drop = 0;
            bool found = false;
            for (std::size_t wi = 0; wi < working_.size(); ++wi) {
                if (mu[wi] < muMin - kTol) {
                    muMin = mu[wi];
                    drop = wi;
                    found = true;
                }
            }
            if (!found)
                break;
            working_.erase(working_.begin() + static_cast<long>(drop));
            continue;
        }

        // Line search to the nearest blocking inequality.
        double alpha = 1.0;
        std::size_t blocking = std::numeric_limits<std::size_t>::max();
        for (std::size_t r = 0; r < gLe_.rows(); ++r) {
            if (std::find(working_.begin(), working_.end(), r) !=
                working_.end())
                continue;
            const double* row = gLe_.row(r);
            double gp = rowDot(row, p, n);
            if (gp > kTol) {
                double slack = hLe_[r] - rowDot(row, x.data(), n);
                double a = slack / gp;
                if (a < alpha) {
                    alpha = std::max(0.0, a);
                    blocking = r;
                }
            }
        }

        for (std::size_t i = 0; i < n; ++i)
            x[i] += alpha * p[i];
        if (blocking != std::numeric_limits<std::size_t>::max())
            working_.push_back(blocking);
    }

    if (!constraints_.feasible(x, 1e-6))
        x = start_;
}

Vec
projectOntoConstraints(const ConstraintSet& constraints, const Vec& point)
{
    Vec x = point;
    Projector(constraints).project(&x);
    return x;
}

} // namespace libra
