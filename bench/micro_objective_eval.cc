/**
 * @file
 * Compiled-objective evaluation throughput: the function every solver
 * iteration bottoms out in. Measures evaluations/sec of the scalar SoA
 * fast path, the SIMD-batched candidate-major kernel, and one
 * subgradient step's 2n central-difference points evaluated as one
 * objective batch against 2n scalar calls (plus the uncompiled direct
 * estimator for reference) and emits machine-readable
 * BENCH_objective.json for CI tracking.
 */

#include <algorithm>
#include <chrono>

#include "bench_util.hh"
#include "common/random.hh"
#include "core/estimator.hh"
#include "core/objective.hh"
#include "cost/cost_model.hh"
#include "topology/zoo.hh"
#include "workload/zoo.hh"

namespace libra {
namespace {

/** Deterministic pool of bandwidth points to cycle through. */
std::vector<BwConfig>
makeBwPool(std::size_t dims, std::size_t count)
{
    Rng rng(0xBE7C4);
    std::vector<BwConfig> pool;
    for (std::size_t i = 0; i < count; ++i) {
        BwConfig bw = rng.simplexPoint(dims, 800.0);
        for (auto& b : bw)
            b = std::max(b, 1.0);
        pool.push_back(std::move(bw));
    }
    return pool;
}

/**
 * Evaluations/sec of @p call (which performs @p evalsPerCall
 * evaluations), self-timed to ~targetSeconds. The measurement batch is
 * calibrated from the warm-up round: a fixed batch would make slow
 * paths overshoot the budget by a whole oversized final batch, so each
 * batch is sized to ~2% of the budget instead.
 */
template <typename Call>
double
measure(const Call& call, std::size_t evalsPerCall,
        double targetSeconds, volatile double* sink)
{
    using Clock = std::chrono::steady_clock;

    const std::size_t warmCalls =
        std::max<std::size_t>(1, 1000 / evalsPerCall);
    double acc = 0.0;
    auto warmBegin = Clock::now();
    for (std::size_t i = 0; i < warmCalls; ++i)
        acc += call(i);
    std::chrono::duration<double> warm = Clock::now() - warmBegin;

    const double perCall =
        warm.count() / static_cast<double>(warmCalls);
    std::size_t batch = warmCalls;
    if (perCall > 0.0) {
        batch = static_cast<std::size_t>(
            std::clamp(targetSeconds * 0.02 / perCall, 1.0, 1e7));
    }

    std::size_t calls = 0;
    auto begin = Clock::now();
    for (;;) {
        for (std::size_t i = 0; i < batch; ++i)
            acc += call(calls + i);
        calls += batch;
        std::chrono::duration<double> elapsed = Clock::now() - begin;
        if (elapsed.count() >= targetSeconds) {
            *sink = acc;
            return static_cast<double>(calls * evalsPerCall) /
                   elapsed.count();
        }
    }
}

void
run()
{
    bench::banner("micro", "compiled objective evaluation throughput "
                           "(SoA vs SIMD batch vs gradient batch)");

    Network net = topo::threeD512();
    Workload w = wl::msft1T(net.npus());
    TrainingEstimator est(net);
    CompiledWorkload cw = est.compile(w);
    const std::size_t dims = net.numDims();
    std::vector<BwConfig> pool = makeBwPool(dims, 64);

    volatile double sink = 0.0;
    const double budget = 1.0; // Seconds per variant.
    double direct = measure(
        [&](std::size_t i) {
            return est.estimate(w, pool[i % pool.size()]);
        },
        1, budget, &sink);
    double soa = measure(
        [&](std::size_t i) {
            return cw.estimate(pool[i % pool.size()]);
        },
        1, budget, &sink);

    // Candidate-major SIMD batches over the whole pool per call.
    std::vector<Seconds> out(pool.size(), 0.0);
    double batched = measure(
        [&](std::size_t i) {
            cw.estimateBatch(pool.data(), pool.size(), out.data());
            return out[i % out.size()];
        },
        pool.size(), budget, &sink);

    // One subgradient step's central differences: 2n points, each one
    // coordinate off a pool point, through the objective's batch facet
    // (one padded SIMD block) against 2n scalar objective calls.
    CostModel cost = CostModel::defaultModel();
    std::vector<TargetWorkload> targets = {{w, 1.0}};
    ScalarObjective f = makeObjective(OptimizationObjective::PerfOpt,
                                      est, cost, targets);
    const BatchEvaluable* facet = batchFacet(f);
    if (!facet)
        panic("the analytical objective lost its batch facet");
    std::vector<std::vector<Vec>> steps;
    for (const BwConfig& x : pool) {
        std::vector<Vec> points(2 * dims, x);
        for (std::size_t d = 0; d < dims; ++d) {
            points[2 * d][d] *= 1.0 + kGradientRelStep;
            points[2 * d + 1][d] *= 1.0 - kGradientRelStep;
        }
        steps.push_back(std::move(points));
    }
    std::vector<double> values(2 * dims, 0.0);
    double gradBatch = measure(
        [&](std::size_t i) {
            const auto& points = steps[i % steps.size()];
            facet->evaluateBatch(points.data(), points.size(),
                                 values.data());
            return values[i % values.size()];
        },
        2 * dims, budget, &sink);
    double gradScalar = measure(
        [&](std::size_t i) {
            double acc = 0.0;
            for (const Vec& p : steps[i % steps.size()])
                acc += f(p);
            return acc;
        },
        2 * dims, budget, &sink);

    Table t;
    t.header({"Path", "evals/sec", "speedup"});
    t.row({"direct estimator", Table::num(direct, 0),
           Table::num(direct / soa, 2) + " vs SoA"});
    t.row({"compiled SoA", Table::num(soa, 0), "1.00 vs SoA"});
    t.row({std::string("SIMD batched (") + activeSimdKernel() + ")",
           Table::num(batched, 0), Table::num(batched / soa, 2) + " vs SoA"});
    t.row({"gradient batch (" + std::to_string(2 * dims) + " points)",
           Table::num(gradBatch, 0),
           Table::num(gradBatch / gradScalar, 2) + " vs " +
               std::to_string(2 * dims) + " scalar calls"});
    t.print(std::cout);

    Json j = Json::object();
    j["bench"] = "micro_objective_eval";
    j["network"] = net.name();
    j["workload"] = w.name;
    j["simd_kernel"] = activeSimdKernel();
    j["direct_evals_per_sec"] = direct;
    j["soa_evals_per_sec"] = soa;
    j["batch_evals_per_sec"] = batched;
    j["batch_speedup_vs_soa"] = batched / soa;
    j["gradient_batch_evals_per_sec"] = gradBatch;
    j["gradient_scalar_evals_per_sec"] = gradScalar;
    j["gradient_batch_speedup_vs_scalar"] = gradBatch / gradScalar;
    bench::writeBenchJson("BENCH_objective.json", j);
    std::cout << "\nWrote BENCH_objective.json (SIMD batch speedup "
              << Table::num(batched / soa, 2) << "x vs scalar SoA, "
              << "gradient batch " << Table::num(gradBatch / gradScalar, 2)
              << "x vs scalar calls).\n";
}

} // namespace
} // namespace libra

int
main()
{
    libra::setInformEnabled(false);
    libra::run();
    return 0;
}
