/**
 * @file
 * Generic candidate-major batch kernel for CompiledWorkload.
 *
 * BatchKernel<Lane> evaluates Lane::kWidth bandwidth configurations at
 * once, with the SIMD lanes laid across *candidates*: lane l of every
 * vector operation holds candidate l's value, and the sequence of
 * operations applied to each lane is exactly the sequence
 * CompiledWorkload::estimate() applies to a single candidate — same
 * association, same order, same max-update convention. Combined with
 * the per-lane IEEE guarantees of the Lane wrappers (core/simd.hh) and
 * the no-FMA-contraction build flags on the kernel translation units,
 * every batched result is bit-identical to the scalar path, which is
 * why goldens never move when the SIMD kernels switch on.
 *
 * This header is included by one translation unit per ISA
 * (eval_kernels_<isa>.cc), each compiled with that ISA's -m flags plus
 * -ffp-contract=off; the dispatcher (eval_kernels.cc) picks the widest
 * kernel the running CPU supports.
 */

#ifndef LIBRA_CORE_EVAL_KERNELS_IMPL_HH
#define LIBRA_CORE_EVAL_KERNELS_IMPL_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/estimator.hh"
#include "core/simd.hh"

namespace libra {
namespace detail {

/**
 * V lane vectors evaluated side by side: V * Lane::kWidth candidates
 * whose every operation is applied to each vector in turn. Evaluation
 * is bound by the latency of its serial add and max chains, so a
 * second independent chain rides in the gaps of the first at almost
 * no extra cost. Per lane, the operations are exactly Lane's.
 */
template <typename Lane, std::size_t V>
struct LanePack
{
    static constexpr std::size_t kWidth = V * Lane::kWidth;
    Lane v[V];

    static LanePack
    broadcast(double x)
    {
        LanePack r{};
        for (std::size_t k = 0; k < V; ++k)
            r.v[k] = Lane::broadcast(x);
        return r;
    }

    static LanePack
    load(const double* p)
    {
        LanePack r{};
        for (std::size_t k = 0; k < V; ++k)
            r.v[k] = Lane::load(p + k * Lane::kWidth);
        return r;
    }

    void
    store(double* p) const
    {
        for (std::size_t k = 0; k < V; ++k)
            v[k].store(p + k * Lane::kWidth);
    }

    friend LanePack
    operator+(const LanePack& a, const LanePack& b)
    {
        LanePack r{};
        for (std::size_t k = 0; k < V; ++k)
            r.v[k] = a.v[k] + b.v[k];
        return r;
    }

    friend LanePack
    operator*(const LanePack& a, const LanePack& b)
    {
        LanePack r{};
        for (std::size_t k = 0; k < V; ++k)
            r.v[k] = a.v[k] * b.v[k];
        return r;
    }

    friend LanePack
    operator/(const LanePack& a, const LanePack& b)
    {
        LanePack r{};
        for (std::size_t k = 0; k < V; ++k)
            r.v[k] = a.v[k] / b.v[k];
        return r;
    }

    static LanePack
    maxGt(const LanePack& a, const LanePack& b)
    {
        LanePack r{};
        for (std::size_t k = 0; k < V; ++k)
            r.v[k] = Lane::maxGt(a.v[k], b.v[k]);
        return r;
    }
};

template <typename Lane>
struct BatchKernel
{
    static constexpr std::size_t kWidth = Lane::kWidth;

    /**
     * Evaluate @p n candidates: full two-vector blocks of 2 * kWidth,
     * then a remainder of more than kWidth as one more two-vector
     * block, or of two to kWidth as a one-vector block, with the last
     * candidate repeated in the spare lanes (their outputs are
     * dropped). A lone remainder candidate takes the scalar path.
     * Lanes never interact and the scalar path is bit-identical by the
     * lane contract, so neither the split nor the padding is visible
     * in the results.
     */
    static void
    run(const CompiledWorkload& cw, const BwConfig* bws, std::size_t n,
        Seconds* out)
    {
        constexpr std::size_t kInlineDims = 16;
        constexpr std::size_t kSpan = 2 * kWidth;
        alignas(64) double recipInline[kInlineDims * kSpan];
        std::vector<double> recipHeap;
        double* recipT = recipInline;
        if (cw.numDims_ > kInlineDims) {
            recipHeap.resize(cw.numDims_ * kSpan);
            recipT = recipHeap.data();
        }
        std::size_t i = 0;
        if constexpr (kWidth > 1) {
            const BwConfig* lanes[kSpan];
            for (; i + kSpan <= n; i += kSpan) {
                for (std::size_t l = 0; l < kSpan; ++l)
                    lanes[l] = bws + i + l;
                block<2>(cw, lanes, out + i, recipT);
            }
            const std::size_t rest = n - i;
            if (rest >= 2) {
                alignas(64) Seconds padded[kSpan];
                for (std::size_t l = 0; l < kSpan; ++l)
                    lanes[l] = bws + i + std::min(l, rest - 1);
                if (rest > kWidth)
                    block<2>(cw, lanes, padded, recipT);
                else
                    block<1>(cw, lanes, padded, recipT);
                std::copy_n(padded, rest, out + i);
                i = n;
            }
        }
        for (; i < n; ++i)
            out[i] = cw.estimate(bws[i]);
    }

  private:
    /**
     * One block of V * kWidth candidates; lane l evaluates *bws[l].
     * @p recipT is the transposed reciprocal scratch:
     * recipT[d * V * kWidth + lane].
     */
    template <std::size_t V>
    static void
    block(const CompiledWorkload& cw, const BwConfig* const* bws,
          Seconds* out, double* recipT)
    {
        using Pack = LanePack<Lane, V>;
        constexpr std::size_t kSpan = Pack::kWidth;
        const std::size_t dims = cw.numDims_;

        // recip[d] = 1.0 / (bw[d] * kGiga), one vector mul + div per
        // dimension — the exact scalar operation pair per lane.
        alignas(64) double pack[kSpan];
        const Pack one = Pack::broadcast(1.0);
        const Pack giga = Pack::broadcast(kGiga);
        for (std::size_t d = 0; d < dims; ++d) {
            for (std::size_t l = 0; l < kSpan; ++l)
                pack[l] = (*bws[l])[d];
            (one / (Pack::load(pack) * giga))
                .store(recipT + d * kSpan);
        }

        if (cw.loop_ == TrainingLoop::NoOverlap) {
            Pack total = Pack::broadcast(cw.totalCompute_) +
                         multiOps<Pack>(cw, cw.allMulti_, recipT);
            for (std::size_t d = 0; d < dims; ++d) {
                total = total + Pack::broadcast(cw.allSingles_[d]) *
                                    Pack::load(recipT + d * kSpan);
            }
            total.store(out);
            return;
        }

        Pack total = Pack::broadcast(0.0);
        const std::uint32_t dims32 = static_cast<std::uint32_t>(dims);
        for (const auto& layer : cw.meta_) {
            Pack fwdComm = singles<Pack>(cw, layer.singlesRow, recipT) +
                           multiOps<Pack>(cw, layer.fwd, recipT);
            Pack igComm =
                singles<Pack>(cw, layer.singlesRow + dims32, recipT) +
                multiOps<Pack>(cw, layer.ig, recipT);
            Pack wgComm =
                singles<Pack>(cw, layer.singlesRow + 2 * dims32, recipT) +
                multiOps<Pack>(cw, layer.wg, recipT);
            // std::max(igComm, rhs) == (rhs > igComm ? rhs : igComm).
            Pack tail = Pack::maxGt(
                Pack::broadcast(layer.wgCompute) + wgComm, igComm);
            total = total +
                    (((Pack::broadcast(layer.fwdCompute) + fwdComm) +
                      Pack::broadcast(layer.igCompute)) +
                     tail);
        }
        total.store(out);
    }

    /** Lane transliteration of CompiledWorkload::multiOpsTime. */
    template <typename Pack>
    static Pack
    multiOps(const CompiledWorkload& cw, CompiledWorkload::PhaseRange r,
             const double* recipT)
    {
        const Bytes* traffic = cw.traffic_.data();
        const std::uint32_t* dim = cw.entryDim_.data();
        const std::uint32_t* offset = cw.opOffset_.data();
        Pack total = Pack::broadcast(0.0);
        for (std::uint32_t op = r.begin; op < r.end; ++op) {
            Pack worst = Pack::broadcast(0.0);
            for (std::uint32_t k = offset[op]; k < offset[op + 1];
                 ++k) {
                Pack t = Pack::broadcast(traffic[k]) *
                         Pack::load(recipT + dim[k] * Pack::kWidth);
                worst = Pack::maxGt(t, worst);
            }
            total = total + worst;
        }
        return total;
    }

    /** Lane transliteration of CompiledWorkload::singlesTime. */
    template <typename Pack>
    static Pack
    singles(const CompiledWorkload& cw, std::uint32_t row,
            const double* recipT)
    {
        const Bytes* s = cw.singles_.data() + row;
        Pack total = Pack::broadcast(0.0);
        for (std::size_t d = 0; d < cw.numDims_; ++d) {
            total = total + Pack::broadcast(s[d]) *
                                Pack::load(recipT + d * Pack::kWidth);
        }
        return total;
    }
};

} // namespace detail
} // namespace libra

#endif // LIBRA_CORE_EVAL_KERNELS_IMPL_HH
