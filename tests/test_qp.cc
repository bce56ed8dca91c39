/**
 * @file
 * Tests for the constraint projector and the feasible-point search.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "solver/feasible.hh"
#include "solver/qp.hh"

namespace libra {
namespace {

TEST(FindFeasible, HitsSimplex)
{
    ConstraintSet cs(3);
    cs.addTotalBw(30.0);
    cs.addLowerBounds(1.0);
    Vec x = {100.0, -5.0, 2.0};
    findFeasiblePoint(cs, &x);
    EXPECT_LE(cs.maxViolation(x), 1e-8);
}

TEST(FindFeasible, EqualityChain)
{
    ConstraintSet cs(4);
    cs.addTotalBw(100.0);
    cs.addParsed("B2 + B3 = B4");
    cs.addLowerBounds(0.5);
    Vec x = {25, 25, 25, 25};
    findFeasiblePoint(cs, &x);
    EXPECT_LE(cs.maxViolation(x), 1e-8);
}

Vec
projected(const ConstraintSet& cs, Vec point)
{
    Projector(cs).project(&point);
    return point;
}

TEST(Projector, UnconstrainedIsIdentity)
{
    // min 1/2 x'x - [1,2].x is the projection of (1, 2) onto R^2.
    Vec x = projected(ConstraintSet(2), {1.0, 2.0});
    EXPECT_NEAR(x[0], 1.0, 1e-8);
    EXPECT_NEAR(x[1], 2.0, 1e-8);
}

TEST(Projector, EqualityConstrained)
{
    // min 1/2||x||^2 s.t. x0 + x1 = 2 -> x = (1, 1).
    ConstraintSet cs(2);
    cs.add({1.0, 1.0}, Relation::Eq, 2.0);
    Vec x = projected(cs, {0.0, 0.0});
    EXPECT_NEAR(x[0], 1.0, 1e-8);
    EXPECT_NEAR(x[1], 1.0, 1e-8);
}

TEST(Projector, ActiveInequality)
{
    // min 1/2||x - (3,0)||^2 s.t. x0 <= 1 -> x = (1, 0).
    ConstraintSet cs(2);
    cs.add({1.0, 0.0}, Relation::Le, 1.0);
    Vec x = projected(cs, {3.0, 0.0});
    EXPECT_NEAR(x[0], 1.0, 1e-7);
    EXPECT_NEAR(x[1], 0.0, 1e-7);
}

TEST(Projector, InactiveInequalityIgnored)
{
    // Same but the cap is not binding -> the point itself.
    ConstraintSet cs(2);
    cs.add({1.0, 0.0}, Relation::Le, 10.0);
    Vec x = projected(cs, {3.0, 0.0});
    EXPECT_NEAR(x[0], 3.0, 1e-7);
}

TEST(Projection, InteriorPointUnchanged)
{
    ConstraintSet cs(2);
    cs.addParsed("B1 + B2 <= 10");
    cs.addLowerBounds(0.0);
    Vec p = projectOntoConstraints(cs, {2.0, 3.0});
    EXPECT_NEAR(p[0], 2.0, 1e-7);
    EXPECT_NEAR(p[1], 3.0, 1e-7);
}

TEST(Projection, OntoSimplexKnownAnswer)
{
    // Project (2, 0) onto {x >= 0, x0 + x1 = 1}. The projection onto
    // the hyperplane alone is (1.5, -0.5), which violates x1 >= 0, so
    // the answer is the segment's vertex (1, 0).
    ConstraintSet cs(2);
    cs.addTotalBw(1.0);
    cs.addLowerBounds(0.0);
    Vec p = projectOntoConstraints(cs, {2.0, 0.0});
    EXPECT_NEAR(p[0], 1.0, 1e-6);
    EXPECT_NEAR(p[1], 0.0, 1e-6);
}

TEST(Projection, Idempotent)
{
    ConstraintSet cs(3);
    cs.addTotalBw(9.0);
    cs.addLowerBounds(0.5);
    Vec once = projectOntoConstraints(cs, {10.0, -4.0, 1.0});
    Vec twice = projectOntoConstraints(cs, once);
    for (int i = 0; i < 3; ++i)
        EXPECT_NEAR(once[static_cast<std::size_t>(i)],
                    twice[static_cast<std::size_t>(i)], 1e-6);
}

TEST(Projection, InfeasibleSetThrows)
{
    ConstraintSet cs(2);
    cs.addParsed("B1 + B2 = 10");
    cs.addParsed("B1 + B2 = 20");
    EXPECT_THROW(projectOntoConstraints(cs, {5.0, 5.0}), FatalError);
}

/** Total BW of pin set @p id. */
double
pinTotal(int id)
{
    static const double totals[] = {100, 300, 1000, 500, 300,
                                    300, 600, 800, 400};
    return totals[id];
}

/**
 * The pinned constraint corpus: Eq and Le total-BW sets in 2 to 5
 * dimensions with lower bounds, a cap, an ordering, an equality
 * coupling, chained bounds, and mixtures of them.
 */
ConstraintSet
pinSet(int id)
{
    static const std::size_t dims[] = {2, 3, 4, 5, 3, 3, 4, 5, 4};
    ConstraintSet cs(dims[id]);
    const double t = pinTotal(id);
    switch (id) {
      case 0:
        cs.addTotalBw(t);
        cs.addLowerBounds(1.0);
        break;
      case 1:
        cs.addTotalBw(t, Relation::Le);
        cs.addLowerBounds(0.5);
        break;
      case 2:
        cs.addTotalBw(t);
        cs.addLowerBounds(1.0);
        cs.addUpperBound(0, 150.0);
        break;
      case 3:
        cs.addTotalBw(t);
        cs.addLowerBounds(2.0);
        break;
      case 4:
        cs.addTotalBw(t);
        cs.addLowerBounds(1.0);
        cs.addParsed("B1 >= B2 >= B3");
        break;
      case 5:
        cs.addTotalBw(t);
        cs.addLowerBounds(1.0);
        cs.addParsed("B2 + B3 = B1");
        break;
      case 6:
        cs.addTotalBw(t, Relation::Le);
        cs.addLowerBounds(1.0);
        cs.addParsed("25 <= B3 <= 150");
        break;
      case 7:
        cs.addTotalBw(t);
        cs.addLowerBounds(1.0);
        cs.addParsed("B1 >= B2 >= B3");
        cs.addParsed("B5 <= 150");
        cs.addParsed("B2 + B3 = B4");
        break;
      case 8:
        cs.addTotalBw(t, Relation::Le);
        cs.addLowerBounds(5.0);
        cs.addParsed("2*B1 + B2 <= 150");
        cs.addParsed("B1 >= B4");
        break;
    }
    return cs;
}

/** Seeded query point @p k of pin set @p id, mostly infeasible. */
Vec
pinPoint(int id, int k)
{
    Rng rng(1000 + 97 * static_cast<std::uint64_t>(id) +
            static_cast<std::uint64_t>(k));
    const double t = pinTotal(id);
    return rng.uniformVec(pinSet(id).numVars(), -0.5 * t, 1.5 * t);
}

constexpr int kPinPoints = 5;

/**
 * Projections of the corpus, point-major per set, as computed by the
 * active-set QP solver the Projector replaced. Any reordering of the
 * projection's floating-point operations shows up here.
 */
const std::vector<std::vector<double>> kPinned = {
    // Set 0
    {0x1p+0, 0x1.8c00000001177p+6, 0x1.45a2d2e22fe92p+6,
     0x1.2974b477405b8p+4, 0x1.5a61d046b340ep+6, 0x1.acf17dca65f9p+3,
     0x1.30aefccc7a694p+5, 0x1.ef5103338596cp+5, 0x1.71a28fdb47f48p+4,
     0x1.33975c092e02ep+6},
    // Set 1
    {0x1.b0db3c9d74d4cp+5, 0x1.ab788e287eec4p+5, 0x1.80eb0d4e830fdp+7,
     0x1p-1, 0x1.2b00000000612p+8, 0x1p-1, 0x1.e370dc850573p+6,
     0x1.654791bd7da74p+7, 0x1p-1, 0x1p-1, 0x1.2b000000005d3p+8, 0x1p-1,
     0x1p-1, 0x1.eb58cb8167c06p+5, 0x1.dc29cd1fa694dp+7},
    // Set 2
    {0x1.2cp+7, 0x1.e305e343f1de2p+8, 0x1.6dfa1cbc0dba6p+8, 0x1p+0,
     0x1.dbf0b873a9538p+6, 0x1.7e80d309623d4p+7, 0x1.2f6f165e3d3fbp+9,
     0x1.4b94ee87a835p+6, 0x1.8a7e8e801634p+1, 0x1.96691abee0259p+7, 0x1p+0,
     0x1.8c5b3ac1c7fd6p+9, 0x1p+0, 0x1.9a2884194ffdbp+8,
     0x1.b4b2f7e0f2687p+8, 0x1.3049080b7b85fp+7, 0x1.2cp+7,
     0x1.d8cb2e0925339p+8, 0x1.6dbe4c2b37ee5p+8, 0x1.6ed0b9745741p+3},
    // Set 3
    {0x1.ec00000000598p+8, 0x1p+1, 0x1p+1, 0x1p+1, 0x1p+1, 0x1p+1, 0x1p+1,
     0x1p+1, 0x1.a40fe08c775e7p+7, 0x1.1bf80fb9c49c4p+8,
     0x1.2aec087ff9a08p+7, 0x1p+1, 0x1.6eff5db21b7b4p+7, 0x1.461499cdebb9p+7,
     0x1p+1, 0x1.10462a41e0b7cp+8, 0x1p+1, 0x1p+1, 0x1.bb73ab7c3f20ep+7,
     0x1p+1, 0x1.0b16e4cc86697p+7, 0x1p+1, 0x1p+1, 0x1.68748d99bd25fp+8,
     0x1p+1},
    // Set 4
    {0x1.8cf16e7c48674p+7, 0x1.961d23076f31ep+5, 0x1.961d23076f316p+5,
     0x1.682b5c8d79ba7p+7, 0x1.dfa946e50c8bp+5, 0x1.dfa946e50c8bp+5,
     0x1.8fffffffff274p+6, 0x1.90000000006c6p+6, 0x1.90000000006c6p+6,
     0x1.2b0000000025dp+7, 0x1.2b0000000025dp+7, 0x1p+0,
     0x1.8ffffffffef5ap+6, 0x1.9000000000854p+6, 0x1.9000000000854p+6},
    // Set 5
    {0x1.2bffffffffe8p+7, 0x1.24172b8767916p+7, 0x1.fa351e2615a68p+1,
     0x1.2bffffffffd56p+7, 0x1.186d57ed25cbp+7, 0x1.392a812da0a53p+3,
     0x1.2c000000006c2p+7, 0x1.2a000000006fep+7, 0x1.fffffffffc355p-1,
     0x1.2c000000006a3p+7, 0x1.fffffffffc2abp-1, 0x1.2a000000006e1p+7,
     0x1.2bffffffffe89p+7, 0x1.35fd4649a5701p+6, 0x1.2202b9b65a611p+6},
    // Set 6
    {0x1.99dcc6b1f0384p+6, 0x1.2017ea658bc9ap+7, 0x1.2cp+7, 0x1p+0,
     0x1.e489b0eed84f4p+7, 0x1p+0, 0x1.9p+4, 0x1p+0, 0x1.a57dc7644500ep+7,
     0x1.229eac1c378c6p+7, 0x1.2bffffffffffep+7, 0x1.77c718ff06e51p+6,
     0x1.d1c4e076ee066p+7, 0x1.551d8fc48937cp+8, 0x1.9p+4, 0x1p+0,
     0x1.60b11c02c9acap+8, 0x1.dc7038275957p+4, 0x1.9p+4,
     0x1.810fc0f581f7ep+7},
    // Set 7
    {0x1.03ffffffffb39p+7, 0x1.040000000032dp+7, 0x1.040000000032dp+7,
     0x1.040000000032ep+8, 0x1.2cp+7, 0x1.4ea3b5693592ap+9,
     0x1.03712a5b2a412p+5, 0x1.03712a5b2a412p+5, 0x1.03712a5b2a416p+6,
     0x1p+0, 0x1.123cafe0a5f95p+8, 0x1.0661a80fad1bbp+7,
     0x1.0661a80fad1bbp+7, 0x1.0661a80fad1bbp+8, 0x1p+0,
     0x1.09aaaaaaaac51p+8, 0x1.09aaaaaaaac5p+8, 0x1.fffffffffff55p-1,
     0x1.0aaaaaaaaac56p+8, 0x1.000000000008dp+0, 0x1.4300000000488p+9,
     0x1p+0, 0x1.ffffffffd68cdp-1, 0x1.ffffffffeb513p+0, 0x1.2cp+7},
    // Set 8
    {0x1.2200000000f34p+6, 0x1.3ffffffff5ddap+2, 0x1.f3ffffffff5ddp+7,
     0x1.2200000000f34p+6, 0x1.22000000005ecp+6, 0x1.3ffffffff427ap+2,
     0x1.9e0fe1d48d928p+7, 0x1.4p+2, 0x1.3ffffffff3c73p+2,
     0x1.1800000001872p+7, 0x1.4p+2, 0x1.3ffffffff3c73p+2, 0x1.4p+2,
     0x1.1800000000c3ap+7, 0x1.f3ffffffff3c5p+7, 0x1.4000000000056p+2,
     0x1.2200000000c9ap+6, 0x1.3ffffffff799ap+2, 0x1.56767e42523bcp+5,
     0x1.2200000000c9ap+6},
};

std::string
hexfloat(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

TEST(Projection, MatchesPinnedBitExact)
{
    for (int id = 0; id < static_cast<int>(kPinned.size()); ++id) {
        SCOPED_TRACE("pin set " + std::to_string(id));
        const ConstraintSet cs = pinSet(id);
        const std::size_t n = cs.numVars();
        ASSERT_EQ(kPinned[static_cast<std::size_t>(id)].size(),
                  kPinPoints * n);
        // One projector reused across the points, as a search does,
        // and the one-off wrapper must both match the pins.
        Projector projector(cs);
        for (int k = 0; k < kPinPoints; ++k) {
            Vec reused = pinPoint(id, k);
            projector.project(&reused);
            Vec oneOff = projectOntoConstraints(cs, pinPoint(id, k));
            for (std::size_t i = 0; i < n; ++i) {
                double want = kPinned[static_cast<std::size_t>(id)]
                                     [static_cast<std::size_t>(k) * n + i];
                EXPECT_EQ(hexfloat(reused[i]), hexfloat(want))
                    << "point " << k << " dim " << i;
                EXPECT_EQ(hexfloat(oneOff[i]), hexfloat(want))
                    << "point " << k << " dim " << i;
            }
        }
    }

    // An empty polyhedron (3 x 10 > 25) throws.
    ConstraintSet empty(3);
    empty.addTotalBw(25.0);
    empty.addLowerBounds(10.0);
    Projector projector(empty);
    Vec q = {5.0, 5.0, 5.0};
    EXPECT_THROW(projector.project(&q), FatalError);
}

/**
 * Property: the projection is no farther from the query point than any
 * random feasible point (definition of Euclidean projection).
 */
class ProjectionProperty : public ::testing::TestWithParam<int>
{};

TEST_P(ProjectionProperty, ClosestAmongSamples)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 5);
    ConstraintSet cs(4);
    cs.addTotalBw(100.0);
    cs.addLowerBounds(0.1);
    cs.addUpperBound(0, 60.0);

    Vec q = rng.uniformVec(4, -50.0, 150.0);
    Vec p = projectOntoConstraints(cs, q);
    ASSERT_LE(cs.maxViolation(p), 1e-5);
    double dp = norm(sub(p, q));

    for (int s = 0; s < 50; ++s) {
        Vec cand = rng.simplexPoint(4, 100.0);
        if (!cs.feasible(cand, 1e-9))
            continue;
        EXPECT_LE(dp, norm(sub(cand, q)) + 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProjectionProperty,
                         ::testing::Range(0, 10));

} // namespace
} // namespace libra
