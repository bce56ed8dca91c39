/**
 * @file
 * Batched evaluation facet of a scalar objective.
 *
 * Every solver takes a type-erased `ScalarObjective`; the compiled
 * analytical objective (core/objective.cc) additionally evaluates
 * whole batches through the SIMD candidate-major kernels
 * (CompiledWorkload::estimateBatch): CMA-ES and DE populations, the
 * 2n central-difference points of each subgradient step, and the
 * speculative poll windows of pattern search and Nelder-Mead (every
 * poll a sweep may still consume; the reflect/expand/contract triple,
 * the initial simplex and the shrink).
 *
 * A batch is bit-identical per candidate to calling the scalar
 * objective — a pure evaluation-order-preserving reformulation — so
 * a solver may use it opportunistically without changing any result.
 * Speculation is only worth it when a batch costs about one scalar
 * call, so a solver without the facet scores exactly the points it
 * consumes, one call each.
 *
 * The facet rides inside the `std::function`: `makeObjective` returns
 * a `BatchableObjective` wrapper, and solvers recover it with
 * `batchFacet()` (`std::function::target`). Objectives that are plain
 * lambdas — custom timing models, counting wrappers, tests — simply
 * yield no facet and every solver falls back to per-call evaluation.
 */

#ifndef LIBRA_SOLVER_BATCH_EVAL_HH
#define LIBRA_SOLVER_BATCH_EVAL_HH

#include <cstddef>
#include <memory>

#include "solver/subgradient.hh"

namespace libra {

/** The batched evaluation facet of an objective. */
class BatchEvaluable
{
  public:
    virtual ~BatchEvaluable() = default;

    /** Scalar evaluation; the std::function call forwards here. */
    virtual double evaluateOne(const Vec& x) const = 0;

    /**
     * Evaluate @p n candidates into @p out (per-candidate slots, so
     * results are deterministic at any thread count). Bit-identical
     * per candidate to evaluateOne.
     */
    virtual void evaluateBatch(const Vec* xs, std::size_t n,
                               double* out) const = 0;
};

/**
 * The concrete callable `makeObjective` stores in the ScalarObjective
 * when the batched facet is available. Copyable (shared impl), so the
 * std::function stays cheap to pass around.
 */
struct BatchableObjective
{
    std::shared_ptr<const BatchEvaluable> impl;

    double
    operator()(const Vec& x) const
    {
        return impl->evaluateOne(x);
    }
};

/**
 * Recover the batched-evaluation facet of @p f, or nullptr when @p f
 * is a plain callable. The facet shares @p f's lifetime.
 */
inline const BatchEvaluable*
batchFacet(const ScalarObjective& f)
{
    const auto* wrapper = f.target<BatchableObjective>();
    return wrapper ? wrapper->impl.get() : nullptr;
}

/**
 * Score @p xs[0, n) into @p out: one batch through @p batch when the
 * facet is present, otherwise one @p f call per point, in order.
 */
inline void
evaluatePoints(const ScalarObjective& f, const BatchEvaluable* batch,
               const Vec* xs, std::size_t n, double* out)
{
    if (batch) {
        batch->evaluateBatch(xs, n, out);
        return;
    }
    for (std::size_t i = 0; i < n; ++i)
        out[i] = f(xs[i]);
}

} // namespace libra

#endif // LIBRA_SOLVER_BATCH_EVAL_HH
