/**
 * @file
 * Bit-identity contracts of the fast objective-evaluation kernels.
 *
 * The SIMD-batched candidate-major path (estimateBatch, surfaced to
 * solvers through the CompiledObjective batch facet) promises results
 * *bit-identical* to the scalar SoA estimate() — not merely close.
 * These tests enforce that promise with std::bit_cast comparisons
 * across dimension counts (1, 2, 8, 15, 16, 17), both training loops,
 * and every batch size up to three full vectors of the widest kernel
 * plus one, so every one- and two-vector block, padded or full, is
 * hit. The solvers that
 * use the facet (subgradient, pattern search, Nelder-Mead) must
 * return bit-identical results with and without it.
 */

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "core/estimator.hh"
#include "core/objective.hh"
#include "cost/cost_model.hh"
#include "solver/batch_eval.hh"
#include "solver/nelder_mead.hh"
#include "solver/pattern_search.hh"
#include "solver/subgradient.hh"
#include "topology/zoo.hh"
#include "workload/zoo.hh"

namespace libra {
namespace {

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/** Chain of @p dims size-2 dimensions, alternating unit topologies. */
Network
makeChainNetwork(std::size_t dims)
{
    std::string text;
    for (std::size_t i = 0; i < dims; ++i) {
        if (i)
            text += "_";
        text += (i % 2 == 0) ? "RI(2)" : "FC(2)";
    }
    return Network::parse(text);
}

/**
 * Two-layer workload touching every comm scope the estimator
 * distinguishes (Tp, Dp, All) with all the common collective types,
 * so the compiled ops include both single-span and multi-span rows.
 */
Workload
makeSyntheticWorkload(long npus)
{
    Workload w;
    w.name = "kernel-fuzz";
    w.strategy = {2, npus / 2};

    Layer a;
    a.name = "attn";
    a.fwdCompute = 1.1e-3;
    a.igCompute = 2.3e-3;
    a.wgCompute = 1.7e-3;
    a.fwdComm.push_back({CollectiveType::AllGather, CommScope::Tp, 3e8});
    a.igComm.push_back(
        {CollectiveType::ReduceScatter, CommScope::Tp, 2e8});
    a.wgComm.push_back({CollectiveType::AllReduce, CommScope::Dp, 5e8});

    Layer b;
    b.name = "embed";
    b.fwdCompute = 0.9e-3;
    b.igCompute = 1.2e-3;
    b.wgCompute = 0.6e-3;
    b.fwdComm.push_back({CollectiveType::AllToAll, CommScope::All, 1e8});
    b.wgComm.push_back({CollectiveType::AllReduce, CommScope::Dp, 4e8});

    w.layers = {a, b};
    return w;
}

/** Random feasible-ish bandwidth point (positive, bounded total). */
BwConfig
randomPoint(Rng& rng, std::size_t dims)
{
    BwConfig bw = rng.simplexPoint(dims, 600.0);
    for (auto& b : bw)
        b = std::max(b, 1.0);
    return bw;
}

struct KernelCase
{
    std::size_t dims;
    TrainingLoop loop;
};

std::string
kernelCaseName(const ::testing::TestParamInfo<KernelCase>& info)
{
    return std::to_string(info.param.dims) + "d_" +
           (info.param.loop == TrainingLoop::NoOverlap ? "NoOverlap"
                                                       : "TpDpOverlap");
}

class ObjectiveKernels : public ::testing::TestWithParam<KernelCase>
{
  protected:
    void
    SetUp() override
    {
        const KernelCase& param = GetParam();
        net_ = std::make_unique<Network>(makeChainNetwork(param.dims));
        EstimatorOptions opt;
        opt.loop = param.loop;
        est_ = std::make_unique<TrainingEstimator>(*net_, opt);
        w_ = makeSyntheticWorkload(net_->npus());
        cw_ = std::make_unique<CompiledWorkload>(est_->compile(w_));
    }

    std::unique_ptr<Network> net_;
    std::unique_ptr<TrainingEstimator> est_;
    Workload w_;
    std::unique_ptr<CompiledWorkload> cw_;
};

/** Lanes of the widest kernel (avx512); narrower ones divide it. */
constexpr std::size_t kMaxLaneWidth = 8;

/**
 * estimateBatch must agree with per-candidate estimate() to the last
 * bit at every batch size from a lone candidate to three full vectors
 * of the widest kernel plus one: full two-vector blocks, every padded
 * one- and two-vector remainder, and the scalar lone remainder.
 */
TEST_P(ObjectiveKernels, BatchMatchesScalarBitExact)
{
    Rng rng(0x5EED + GetParam().dims);
    for (std::size_t n = 1; n <= 3 * kMaxLaneWidth + 1; ++n) {
        std::vector<BwConfig> pool;
        for (std::size_t i = 0; i < n; ++i)
            pool.push_back(randomPoint(rng, net_->numDims()));
        std::vector<Seconds> out(n, -1.0);
        cw_->estimateBatch(pool.data(), n, out.data());
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(bits(out[i]), bits(cw_->estimate(pool[i])))
                << "candidate " << i << " of " << n << " ("
                << activeSimdKernel() << " kernel)";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    LaneGrid, ObjectiveKernels,
    ::testing::Values(KernelCase{1, TrainingLoop::NoOverlap},
                      KernelCase{1, TrainingLoop::TpDpOverlap},
                      KernelCase{2, TrainingLoop::NoOverlap},
                      KernelCase{2, TrainingLoop::TpDpOverlap},
                      KernelCase{8, TrainingLoop::NoOverlap},
                      KernelCase{8, TrainingLoop::TpDpOverlap},
                      KernelCase{15, TrainingLoop::NoOverlap},
                      KernelCase{15, TrainingLoop::TpDpOverlap},
                      KernelCase{16, TrainingLoop::NoOverlap},
                      KernelCase{16, TrainingLoop::TpDpOverlap},
                      KernelCase{17, TrainingLoop::NoOverlap},
                      KernelCase{17, TrainingLoop::TpDpOverlap}),
    kernelCaseName);

/**
 * makeObjective over the analytical timing model must hand back a
 * callable whose BatchEvaluable facet is recoverable; a custom
 * timing model must fall back to a plain lambda (no facet).
 */
// GCC 12 falsely flags std::function::target()'s _Any_data as
// maybe-uninitialized when the empty-target branch is fully inlined
// (GCC PR105562); the library code is fine.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
TEST(ObjectiveFacade, RecoveredOnlyForAnalyticalTiming)
{
    Network net = Network::parse("RI(4)_FC(4)_SW(4)");
    CostModel cost = CostModel::defaultModel();
    std::vector<TargetWorkload> targets = {
        {wl::resnet50(net.npus()), 1.0}};

    TrainingEstimator analytical(net);
    ScalarObjective fast = makeObjective(OptimizationObjective::PerfOpt,
                                         analytical, cost, targets);
    EXPECT_NE(batchFacet(fast), nullptr);

    EstimatorOptions opt;
    opt.commTimeFn = [](CollectiveType, Bytes,
                        const std::vector<DimSpan>& spans,
                        const BwConfig&, bool) {
        CollectiveTiming t;
        t.timePerDim.assign(spans.size(), 1e-6);
        t.trafficPerDim.assign(spans.size(), 1.0);
        return t;
    };
    TrainingEstimator custom(net, opt);
    ScalarObjective plain = makeObjective(OptimizationObjective::PerfOpt,
                                          custom, cost, targets);
    EXPECT_EQ(batchFacet(plain), nullptr);

    ScalarObjective lambda = [](const Vec& x) { return x[0]; };
    EXPECT_EQ(batchFacet(lambda), nullptr);
}
#pragma GCC diagnostic pop

class ObjectiveFacets
    : public ::testing::TestWithParam<OptimizationObjective>
{};

/**
 * The batch facet must reproduce the plain call operator exactly over
 * a mixed-weight two-workload ensemble, under both objectives
 * (PerfPerCostOpt adds the cost multiply after the sum), for batches
 * run inline (one block) and fanned across the thread pool.
 */
TEST_P(ObjectiveFacets, BatchMatchesCallOperator)
{
    Network net = Network::parse("RI(4)_FC(4)_SW(4)");
    TrainingEstimator est(net);
    CostModel cost = CostModel::defaultModel();
    std::vector<TargetWorkload> targets = {
        {wl::resnet50(net.npus()), 0.75},
        {wl::gpt3(net.npus()), 0.25}};

    ScalarObjective f = makeObjective(GetParam(), est, cost, targets);
    const BatchEvaluable* batch = batchFacet(f);
    ASSERT_NE(batch, nullptr);

    Rng rng(0xFACE7);
    std::vector<Vec> pool;
    for (int i = 0; i < 70; ++i)
        pool.push_back(randomPoint(rng, net.numDims()));

    for (std::size_t n : {1, 6, 32, 33, 70}) {
        std::vector<double> out(n, -1.0);
        batch->evaluateBatch(pool.data(), n, out.data());
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(bits(out[i]), bits(f(pool[i])))
                << "candidate " << i << " of " << n;
            EXPECT_EQ(bits(out[i]), bits(batch->evaluateOne(pool[i])));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Objectives, ObjectiveFacets,
    ::testing::Values(OptimizationObjective::PerfOpt,
                      OptimizationObjective::PerfPerCostOpt),
    [](const ::testing::TestParamInfo<OptimizationObjective>& info) {
        return objectiveName(info.param);
    });

/**
 * A point whose size differs from the network's dimension count is a
 * solver bug; the objective seam panics instead of reading past the
 * bandwidth vector.
 */
TEST(ObjectiveDeathTest, DimensionMismatchPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Network net = Network::parse("RI(4)_FC(4)_SW(4)");
    TrainingEstimator est(net);
    CostModel cost = CostModel::defaultModel();
    std::vector<TargetWorkload> targets = {
        {wl::resnet50(net.npus()), 1.0}};
    ScalarObjective f = makeObjective(OptimizationObjective::PerfOpt,
                                      est, cost, targets);
    const BatchEvaluable* batch = batchFacet(f);
    ASSERT_NE(batch, nullptr);

    EXPECT_DEATH(f(Vec(2, 100.0)),
                 "2-dimensional point on a 3-dimensional network");
    std::vector<Vec> xs = {Vec(3, 100.0), Vec(4, 100.0)};
    double out[2];
    EXPECT_DEATH(batch->evaluateBatch(xs.data(), xs.size(), out),
                 "4-dimensional point on a 3-dimensional network");
}

struct SolverCase
{
    std::size_t dims;
    TrainingLoop loop;
    OptimizationObjective objective;
};

std::string
solverCaseName(const ::testing::TestParamInfo<SolverCase>& info)
{
    return std::to_string(info.param.dims) + "d_" +
           (info.param.loop == TrainingLoop::NoOverlap ? "NoOverlap_"
                                                       : "TpDpOverlap_") +
           objectiveName(info.param.objective);
}

class FacetedSolvers : public ::testing::TestWithParam<SolverCase>
{};

void
expectSameResult(const SearchResult& a, const SearchResult& b)
{
    ASSERT_EQ(a.x.size(), b.x.size());
    for (std::size_t i = 0; i < a.x.size(); ++i)
        EXPECT_EQ(bits(a.x[i]), bits(b.x[i])) << "coordinate " << i;
    EXPECT_EQ(bits(a.value), bits(b.value));
    EXPECT_EQ(a.iterations, b.iterations);
}

/** Forwards to a batch facet and counts its scalar evaluations. */
class CountingBatch final : public BatchEvaluable
{
  public:
    explicit CountingBatch(const BatchEvaluable& inner) : inner_(inner) {}

    double
    evaluateOne(const Vec& x) const override
    {
        ++scalarCalls;
        return inner_.evaluateOne(x);
    }

    void
    evaluateBatch(const Vec* xs, std::size_t n, double* out) const override
    {
        inner_.evaluateBatch(xs, n, out);
    }

    mutable int scalarCalls = 0;

  private:
    const BatchEvaluable& inner_;
};

/**
 * The solvers that recover the batch facet must return the same x,
 * value, and iteration count, bit for bit, as on the same objective
 * wrapped in a plain lambda (no facet, one call per point). Subgradient
 * runs cover each exit of its loop: the iteration cap (1, 2, and the
 * default 600) and patience (1 and the default). Step scores ride the
 * next gradient batch, so only x0 and the last iterate are scored alone.
 * Pattern search runs under budgets of 1, 2, n (a cut in the middle
 * of a sweep), 2n - 1, 2n, 2n + 1 and the default; Nelder-Mead under
 * iteration caps of 1, 2, 2n - 1, 2n, 2n + 1 and the default. Both
 * score every poll window in batches, so each makes at most two
 * scalar calls (its start or its final projected point).
 */
TEST_P(FacetedSolvers, MatchPlainObjectiveBitExact)
{
    const SolverCase& param = GetParam();
    Network net = makeChainNetwork(param.dims);
    EstimatorOptions opt;
    opt.loop = param.loop;
    TrainingEstimator est(net, opt);
    CostModel cost = CostModel::defaultModel();
    std::vector<TargetWorkload> targets = {
        {makeSyntheticWorkload(net.npus()), 1.0}};

    ScalarObjective faceted =
        makeObjective(param.objective, est, cost, targets);
    ASSERT_NE(batchFacet(faceted), nullptr);
    // A plain lambda yields no facet (RecoveredOnlyForAnalyticalTiming).
    ScalarObjective plain = [&faceted](const Vec& x) {
        return faceted(x);
    };

    const double total = 600.0;
    ConstraintSet cs(param.dims);
    cs.addTotalBw(total);
    cs.addLowerBounds(1.0);
    // An uneven feasible start, so the search has work to do.
    Vec x0(param.dims);
    double sum = 0.0;
    for (std::size_t i = 0; i < param.dims; ++i)
        sum += x0[i] = static_cast<double>(i + 1);
    for (double& v : x0)
        v *= total / sum;

    std::vector<SubgradientOptions> runs(4);
    runs[1].maxIterations = 1;
    runs[2].maxIterations = 2;
    runs[3].patience = 1;
    for (const SubgradientOptions& run : runs) {
        SCOPED_TRACE("maxIterations " + std::to_string(run.maxIterations) +
                     " patience " + std::to_string(run.patience));
        auto counting = std::make_shared<CountingBatch>(*batchFacet(faceted));
        ScalarObjective counted = BatchableObjective{counting};
        SearchResult r = projectedSubgradient(counted, cs, x0, run);
        expectSameResult(r, projectedSubgradient(plain, cs, x0, run));
        // x0, plus the last iterate when the cap ends the loop.
        EXPECT_EQ(counting->scalarCalls,
                  r.iterations == run.maxIterations ? 2 : 1);
    }

    const int n = static_cast<int>(param.dims);
    for (int budget : {1, 2, n, 2 * n - 1, 2 * n, 2 * n + 1,
                       PatternSearchOptions{}.maxIterations}) {
        SCOPED_TRACE("pattern search budget " + std::to_string(budget));
        PatternSearchOptions ps;
        ps.maxIterations = budget;
        auto counting = std::make_shared<CountingBatch>(*batchFacet(faceted));
        ScalarObjective counted = BatchableObjective{counting};
        expectSameResult(patternSearch(counted, cs, x0, ps),
                         patternSearch(plain, cs, x0, ps));
        EXPECT_LE(counting->scalarCalls, 2);
    }

    for (int cap : {1, 2, 2 * n - 1, 2 * n, 2 * n + 1,
                    NelderMeadOptions{}.maxIterations}) {
        SCOPED_TRACE("nelder-mead maxIterations " + std::to_string(cap));
        NelderMeadOptions nm;
        nm.maxIterations = cap;
        auto counting = std::make_shared<CountingBatch>(*batchFacet(faceted));
        ScalarObjective counted = BatchableObjective{counting};
        expectSameResult(nelderMead(counted, cs, x0, nm),
                         nelderMead(plain, cs, x0, nm));
        EXPECT_LE(counting->scalarCalls, 2);
    }
}

std::vector<SolverCase>
solverGrid()
{
    std::vector<SolverCase> grid;
    for (std::size_t dims : {1, 2, 3, 4, 8, 9, 17}) {
        for (TrainingLoop loop :
             {TrainingLoop::NoOverlap, TrainingLoop::TpDpOverlap}) {
            for (OptimizationObjective objective :
                 {OptimizationObjective::PerfOpt,
                  OptimizationObjective::PerfPerCostOpt}) {
                grid.push_back({dims, loop, objective});
            }
        }
    }
    return grid;
}

INSTANTIATE_TEST_SUITE_P(Grid, FacetedSolvers,
                         ::testing::ValuesIn(solverGrid()),
                         solverCaseName);

/** A batch facet over a plain function, one call per candidate. */
class FunctionBatch final : public BatchEvaluable
{
  public:
    explicit FunctionBatch(ScalarObjective f) : f_(std::move(f)) {}

    double evaluateOne(const Vec& x) const override { return f_(x); }

    void
    evaluateBatch(const Vec* xs, std::size_t n, double* out) const override
    {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = f_(xs[i]);
    }

  private:
    ScalarObjective f_;
};

/**
 * Minimizing the last coordinate improves only on the last poll of
 * each sweep (-step along it), so every window runs to its end before
 * its one improvement; the speculative search must still match the
 * one-poll-at-a-time search bit for bit, budget cuts included.
 */
TEST(SpeculativePolls, ImprovementOnTheLastPollOfASweep)
{
    for (std::size_t dims : {1, 2, 3, 4}) {
        SCOPED_TRACE(std::to_string(dims) + " dims");
        ScalarObjective last = [](const Vec& x) { return x.back(); };
        ScalarObjective faceted =
            BatchableObjective{std::make_shared<FunctionBatch>(last)};
        ConstraintSet cs(dims);
        cs.addLowerBounds(1.0);
        Vec x0(dims, 50.0);
        const int n = static_cast<int>(dims);
        for (int budget : {1, 2, 2 * n - 1, 2 * n, 2 * n + 1, 7 * n,
                           PatternSearchOptions{}.maxIterations}) {
            SCOPED_TRACE("budget " + std::to_string(budget));
            PatternSearchOptions ps;
            ps.maxIterations = budget;
            SearchResult r = patternSearch(faceted, cs, x0, ps);
            expectSameResult(r, patternSearch(last, cs, x0, ps));
            // Budgets of 2n - 1 and up reach the last coordinate.
            if (budget >= 2 * n - 1) {
                EXPECT_LT(r.value, x0.back());
            }
        }
    }
}

} // namespace
} // namespace libra
