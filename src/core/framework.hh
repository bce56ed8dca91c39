/**
 * @file
 * The LIBRA framework facade (paper Fig. 3).
 *
 * Bundles the full input set — network shape, target workloads, cost
 * model, training loop, objective, and design constraints — and produces
 * the optimized design point together with the EqualBW baseline and the
 * headline comparison metrics (speedup and perf-per-cost gain).
 */

#ifndef LIBRA_CORE_FRAMEWORK_HH
#define LIBRA_CORE_FRAMEWORK_HH

#include <string>
#include <vector>

#include "core/optimizer.hh"

namespace libra {

/** Everything LIBRA needs for one design study (the Fig. 3 obrounds). */
struct LibraInputs
{
    std::string networkShape;             ///< e.g. "RI(4)_FC(8)_SW(32)".
    std::vector<TargetWorkload> targets;  ///< Workloads + weights.
    CostModel costModel = CostModel::defaultModel();
    OptimizerConfig config;
    bool normalizeTargetWeights = false;  ///< 1/T_EqualBW weighting.

    /**
     * Parallelism for this study (the THREADS / --threads knob).
     * 0 keeps the current global pool size (LIBRA_THREADS or hardware
     * concurrency). Results are identical at any value.
     */
    int threads = 0;

    /**
     * Canonical exploration-strategy spec (the EXPLORE / --explore
     * knob; see explore/explore.hh). "" selects the exhaustive
     * default. For a single study point the spec is inert identity
     * (one candidate has nothing to prune), but design-space scenarios
     * evaluated under a non-default strategy stamp it onto every
     * candidate so their cache keys never collide with exhaustive
     * runs' keys.
     */
    std::string explore;
};

/** Optimized point, baseline, and derived comparison metrics. */
struct LibraReport
{
    OptimizationResult optimized;
    OptimizationResult equalBw;

    /** EqualBW time / optimized time (>1 means LIBRA is faster). */
    double speedup = 0.0;

    /**
     * Perf-per-cost gain over EqualBW:
     * (1/(t*c))_optimized / (1/(t*c))_equalBW.
     */
    double perfPerCostGain = 0.0;
};

/**
 * Reject non-finite study values with FatalError: the BW budget and
 * per-dimension floor, the dollar cap, every target weight, every
 * cost-model price, and every parsed constraint coefficient and bound
 * (constraint text that fails to parse is a FatalError too). Finite
 * values all pass, so DOLLAR_CAP 0 still means "no cap". Every study
 * point — runLibra and both sweeps — is checked before any solver
 * runs, so NaN and inf never reach the objective.
 */
void validateInputs(const LibraInputs& inputs);

/** Run a full LIBRA design study. */
LibraReport runLibra(const LibraInputs& inputs);

/**
 * Run a batch of independent design studies — a topology / budget /
 * workload-mix sweep — concurrently on the global thread pool. Reports
 * come back aligned with @p points, and each report is bit-identical
 * to a standalone runLibra() of the same point. Per-point `threads`
 * fields are ignored (the sweep itself owns the pool).
 * @throws FatalError when any point's evaluation fails (the failure of
 * the lowest-index failing point, deterministically).
 */
std::vector<LibraReport>
runLibraSweep(const std::vector<LibraInputs>& points);

/**
 * Outcome status of one design point in an isolated sweep: ok, or
 * failed with the FatalError message (the "fatal: " prefix stripped).
 */
struct PointStatus
{
    bool ok = true;
    std::string error;
};

/** Result of an isolated sweep: aligned reports plus per-point status. */
struct SweepOutcome
{
    /** Aligned with the input points; default-valued where !ok. */
    std::vector<LibraReport> reports;
    std::vector<PointStatus> status;
    std::size_t failed = 0; ///< Points whose evaluation failed.
};

/**
 * runLibraSweep with per-point failure isolation: a point whose
 * evaluation throws FatalError (infeasible constraints, a malformed
 * workload) yields a failed PointStatus instead of unwinding the
 * batch, so one bad design point cannot kill a whole matrix run.
 * Internal invariant violations (panic) still abort. Ok points are
 * bit-identical to runLibraSweep's reports at any thread count.
 */
SweepOutcome
runLibraSweepIsolated(const std::vector<LibraInputs>& points);

} // namespace libra

#endif // LIBRA_CORE_FRAMEWORK_HH
