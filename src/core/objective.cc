#include "core/objective.hh"

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace libra {

std::string
objectiveName(OptimizationObjective o)
{
    switch (o) {
      case OptimizationObjective::PerfOpt:
        return "PerfOptBW";
      case OptimizationObjective::PerfPerCostOpt:
        return "PerfPerCostOptBW";
    }
    panic("unknown objective");
}

Seconds
weightedTime(const TrainingEstimator& estimator,
             const std::vector<TargetWorkload>& targets,
             const BwConfig& bw)
{
    Seconds t = 0.0;
    for (const auto& target : targets)
        t += target.weight * estimator.estimate(target.workload, bw);
    return t;
}

CompiledObjective::CompiledObjective(
    OptimizationObjective objective, const TrainingEstimator& estimator,
    const CostModel& cost_model,
    const std::vector<TargetWorkload>& targets)
    : objective_(objective), estimator_(&estimator),
      costModel_(&cost_model)
{
    compiled_.reserve(targets.size());
    for (const auto& target : targets) {
        compiled_.emplace_back(estimator.compile(target.workload),
                               target.weight);
    }
}

double
CompiledObjective::applyCost(Seconds time, const Vec& x) const
{
    if (objective_ == OptimizationObjective::PerfOpt)
        return time;
    Dollars c = costModel_->networkCost(estimator_->network(), x);
    return time * c;
}

void
CompiledObjective::checkSize(const Vec& x) const
{
    const std::size_t dims = estimator_->network().numDims();
    if (x.size() != dims) {
        panic("objective evaluated at a ", x.size(),
              "-dimensional point on a ", dims, "-dimensional network");
    }
}

double
CompiledObjective::evaluateOne(const Vec& x) const
{
    checkSize(x);
    Seconds t = 0.0;
    for (const auto& [cw, weight] : compiled_)
        t += weight * cw.estimate(x);
    return applyCost(t, x);
}

void
CompiledObjective::evaluateBlock(const Vec* xs, std::size_t count,
                                 double* out) const
{
    Seconds tmp[kBlock];
    Seconds acc[kBlock];
    for (std::size_t i = 0; i < count; ++i)
        acc[i] = 0.0;
    for (const auto& [cw, weight] : compiled_) {
        cw.estimateBatch(xs, count, tmp);
        for (std::size_t i = 0; i < count; ++i)
            acc[i] += weight * tmp[i];
    }
    for (std::size_t i = 0; i < count; ++i)
        out[i] = applyCost(acc[i], xs[i]);
}

void
CompiledObjective::evaluateBatch(const Vec* xs, std::size_t n,
                                 double* out) const
{
    for (std::size_t i = 0; i < n; ++i)
        checkSize(xs[i]);
    // Cache-blocked candidate-major evaluation: each workload's SoA
    // arrays stream once per block through the SIMD kernels, and the
    // weighted sum accumulates per candidate slot in workload order —
    // the same adds, in the same order, as evaluateOne. A batch of one
    // block (a subgradient step's central differences) runs inline;
    // larger ones fan their blocks out across the thread pool. Every
    // output has its own slot, so results are deterministic at any
    // thread count.
    if (n <= kBlock) {
        evaluateBlock(xs, n, out);
        return;
    }
    const std::size_t blocks = (n + kBlock - 1) / kBlock;
    parallelFor(blocks, [&](std::size_t b) {
        const std::size_t lo = b * kBlock;
        evaluateBlock(xs + lo, std::min(kBlock, n - lo), out + lo);
    });
}

ScalarObjective
makeObjective(OptimizationObjective objective,
              const TrainingEstimator& estimator,
              const CostModel& cost_model,
              const std::vector<TargetWorkload>& targets)
{
    // Custom collective-timing models and non-default timing backends
    // cannot be precompiled: plan each target's collectives once, and
    // time each distinct collective once per evaluation.
    if (!estimator.usesAnalyticalTiming()) {
        auto plans =
            std::make_shared<std::vector<std::pair<CollectivePlan, double>>>();
        for (const auto& target : targets) {
            plans->emplace_back(estimator.plan(target.workload),
                                target.weight);
        }
        std::function<Seconds(const Vec&)> time =
            [&estimator, plans](const Vec& bw) {
                Seconds t = 0.0;
                for (const auto& [plan, weight] : *plans)
                    t += weight * estimator.evaluate(plan, bw);
                return t;
            };
        switch (objective) {
          case OptimizationObjective::PerfOpt:
            return time;
          case OptimizationObjective::PerfPerCostOpt:
            return [time, &estimator, &cost_model](const Vec& bw) {
                Dollars c =
                    cost_model.networkCost(estimator.network(), bw);
                return time(bw) * c;
            };
        }
        panic("unknown objective");
    }

    // Precompiled path: the solver calls the objective tens of
    // thousands of times, so resolve every collective's per-dimension
    // traffic once up front. Wrapping the CompiledObjective in
    // BatchableObjective lets solvers recover the batched facet with
    // batchFacet().
    return BatchableObjective{std::make_shared<const CompiledObjective>(
        objective, estimator, cost_model, targets)};
}

std::vector<TargetWorkload>
normalizeWeights(const TrainingEstimator& estimator,
                 std::vector<TargetWorkload> targets, double total_bw)
{
    BwConfig equal = estimator.network().equalBw(total_bw);
    for (auto& target : targets) {
        Seconds t = estimator.estimate(target.workload, equal);
        if (t > 0.0)
            target.weight = 1.0 / t;
    }
    return targets;
}

} // namespace libra
