#include "core/framework.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "solver/constraint_set.hh"

namespace libra {

namespace {

void
requireFinite(double v, const std::string& what)
{
    if (!std::isfinite(v))
        fatal(what, " must be finite, got ", v);
}

/** One study point, with the pool left alone (sweeps own the pool). */
LibraReport
runLibraPoint(const LibraInputs& inputs)
{
    validateInputs(inputs);
    Network net = Network::parse(inputs.networkShape);
    BwOptimizer optimizer(net, inputs.costModel);

    std::vector<TargetWorkload> targets = inputs.targets;
    if (inputs.normalizeTargetWeights) {
        TrainingEstimator estimator(net, inputs.config.estimator);
        targets = normalizeWeights(estimator, std::move(targets),
                                   inputs.config.totalBw);
    }

    LibraReport report;
    report.equalBw = optimizer.baseline(targets, inputs.config);
    report.optimized = optimizer.optimize(targets, inputs.config);

    if (report.optimized.weightedTime > 0.0) {
        report.speedup =
            report.equalBw.weightedTime / report.optimized.weightedTime;
    }
    double optRecip =
        report.optimized.weightedTime * report.optimized.cost;
    double eqRecip = report.equalBw.weightedTime * report.equalBw.cost;
    if (optRecip > 0.0)
        report.perfPerCostGain = eqRecip / optRecip;
    return report;
}

} // namespace

void
validateInputs(const LibraInputs& inputs)
{
    const OptimizerConfig& config = inputs.config;
    requireFinite(config.totalBw, "total BW");
    requireFinite(config.minDimBw, "per-dimension BW floor");
    requireFinite(config.budgetCap, "dollar cap");
    for (const TargetWorkload& target : inputs.targets)
        requireFinite(target.weight,
                      "weight of workload '" + target.workload.name + "'");
    for (PhysicalLevel level :
         {PhysicalLevel::Chiplet, PhysicalLevel::Package,
          PhysicalLevel::Node, PhysicalLevel::Pod}) {
        ComponentCost cost = inputs.costModel.levelCost(level);
        std::string name = physicalLevelName(level);
        requireFinite(cost.link, name + " link cost");
        requireFinite(cost.switch_, name + " switch cost");
        requireFinite(cost.nic, name + " NIC cost");
    }
    if (config.constraints.empty())
        return;
    ConstraintSet parsed(Network::parse(inputs.networkShape).numDims());
    for (const std::string& text : config.constraints)
        parsed.addParsed(text);
    for (const LinearConstraint& c : parsed.constraints()) {
        for (double coeff : c.coeffs)
            requireFinite(coeff, "constraint '" + c.label + "' coefficient");
        requireFinite(c.rhs, "constraint '" + c.label + "' bound");
    }
}

LibraReport
runLibra(const LibraInputs& inputs)
{
    if (inputs.threads > 0 && !ThreadPool::insidePool())
        ThreadPool::setGlobalThreads(
            static_cast<std::size_t>(inputs.threads));
    return runLibraPoint(inputs);
}

std::vector<LibraReport>
runLibraSweep(const std::vector<LibraInputs>& points)
{
    // Unwind-on-failure semantics, built on the isolated sweep so the
    // surfaced error is deterministic: always the lowest-index failing
    // point, independent of worker scheduling.
    SweepOutcome outcome = runLibraSweepIsolated(points);
    for (std::size_t i = 0; i < outcome.status.size(); ++i) {
        if (!outcome.status[i].ok)
            fatal(outcome.status[i].error);
    }
    return std::move(outcome.reports);
}

SweepOutcome
runLibraSweepIsolated(const std::vector<LibraInputs>& points)
{
    auto evalPoint = [](const LibraInputs& p, LibraReport* report,
                        PointStatus* status) {
        try {
            *report = runLibraPoint(p);
        } catch (const FatalError& e) {
            status->ok = false;
            status->error = e.what();
            // fatalImpl prefixes "fatal: "; strip it so the message
            // reads cleanly in failure rows and re-thrown errors do
            // not double the prefix.
            const std::string prefix = "fatal: ";
            if (status->error.rfind(prefix, 0) == 0)
                status->error.erase(0, prefix.size());
        }
    };

    SweepOutcome out;
    out.reports.resize(points.size());
    out.status.resize(points.size());

    // Same guard optimize() applies within a point: ad-hoc
    // collective-timing functions are not guaranteed thread-safe, so
    // never invoke them from sweep workers either. Named timing
    // backends promise thread safety and sweep in parallel.
    bool customTiming = false;
    for (const auto& p : points)
        customTiming |= static_cast<bool>(p.config.estimator.commTimeFn);
    if (customTiming) {
        for (std::size_t i = 0; i < points.size(); ++i)
            evalPoint(points[i], &out.reports[i], &out.status[i]);
    } else {
        parallelFor(points.size(), [&](std::size_t i) {
            evalPoint(points[i], &out.reports[i], &out.status[i]);
        });
    }
    for (const PointStatus& s : out.status)
        out.failed += s.ok ? 0 : 1;
    return out;
}

} // namespace libra
