/**
 * @file
 * Euclidean projection onto the linear design-constraint polyhedron.
 *
 *     minimize   1/2 ||x - point||^2
 *     subject to A x  = b
 *                G x <= h
 *
 * This is the in-repo replacement for the commercial QP solver the paper
 * uses (Gurobi): LIBRA's bandwidth-allocation searches only ever need
 * projections onto the polyhedron of the designer's constraints, which a
 * primal active-set method solves exactly.
 */

#ifndef LIBRA_SOLVER_QP_HH
#define LIBRA_SOLVER_QP_HH

#include <cstddef>
#include <vector>

#include "solver/constraint_set.hh"
#include "solver/matrix.hh"

namespace libra {

/**
 * Projection onto one fixed ConstraintSet, built once per search and
 * called once per step. The canonical rows are split once at
 * construction, and every buffer a projection needs is scratch reused
 * across calls, so a projection allocates nothing (barring the
 * least-squares fallback of a degenerate working set).
 *
 * Holds mutable scratch: one Projector per thread.
 */
class Projector
{
  public:
    explicit Projector(const ConstraintSet& constraints);

    /**
     * Replace @p x by its Euclidean projection: alternating projections
     * reach a feasible start (findFeasiblePoint), then the active-set
     * method solves the projection QP exactly from there.
     *
     * @throws FatalError when the constraint set is (numerically)
     *         infeasible.
     */
    void project(Vec* x);

  private:
    /** Fill kkt_ and kktRhs_ with the KKT system of the working set. */
    void assembleKkt(const Vec& x);

    /**
     * Solve the equality-constrained subproblem on the working set:
     * kktRhs_ receives the step (first n entries) and, after the
     * equality multipliers, one multiplier per working row.
     */
    void solveKkt(const Vec& x);

    ConstraintSet constraints_;
    Matrix aEq_; ///< Equality rows A (x = b).
    Vec bEq_;
    Matrix gLe_; ///< Inequality rows G in Le form (x <= h).
    Vec hLe_;

    // Per-call scratch.
    Vec c_;                            ///< Linear term: -point.
    Vec start_;                        ///< Phase-1 feasible point.
    std::vector<std::size_t> working_; ///< Active rows of G.
    Matrix kkt_;
    Vec kktRhs_;
};

/**
 * One-off Euclidean projection of @p point onto @p constraints; a
 * search that projects repeatedly holds a Projector instead.
 *
 * @throws FatalError when the constraint set is (numerically) infeasible.
 */
Vec projectOntoConstraints(const ConstraintSet& constraints,
                           const Vec& point);

} // namespace libra

#endif // LIBRA_SOLVER_QP_HH
