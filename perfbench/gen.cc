#include "gen.hh"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace perfbench {

std::uint64_t
SplitMix64::next()
{
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

double
SplitMix64::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t
SplitMix64::below(std::size_t n)
{
    return static_cast<std::size_t>(next() % n);
}

namespace {

/** A seeded permutation of 0..n-1 for block @p block of a sequence. */
std::vector<std::size_t>
permutation(std::uint64_t seed, std::uint64_t block, std::size_t n)
{
    SplitMix64 rng(seed ^ (0x5354554459ull + block * 0xD1B54A32D192ED03ull));
    std::vector<std::size_t> perm(n);
    for (std::size_t i = 0; i < n; ++i)
        perm[i] = i;
    for (std::size_t i = n - 1; i > 0; --i)
        std::swap(perm[i], perm[rng.below(i + 1)]);
    return perm;
}

std::string
fmt(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

/**
 * The network of a study with @p dims dimensions: block types from the
 * base-3 digits of @p pattern, sizes fixed per dimension count (1,024
 * NPUs in 2D and 3D, 4,096 in 4D, as in the paper's evaluation
 * topologies). The NPU count moves a study's cost, so it is not drawn.
 */
std::string
networkShape(int dims, std::size_t pattern)
{
    static const char* kBlocks[] = {"RI", "FC", "SW"};
    static const std::vector<std::vector<int>> kSizes = {
        {16, 64}, {4, 16, 16}, {4, 8, 4, 32}};
    std::ostringstream shape;
    for (int d = 0; d < dims; ++d, pattern /= 3)
        shape << (d ? "_" : "") << kBlocks[pattern % 3] << "("
              << kSizes[dims - 2][d] << ")";
    return shape.str();
}

} // namespace

std::vector<std::string>
generateStudies(std::uint64_t seed, std::size_t count)
{
    static const char* kZoo[] = {"turing-nlg", "gpt3", "msft1t", "dlrm",
                                 "resnet50"};
    static const double kWeights[] = {0.5, 1.0, 2.0, 3.0};
    constexpr std::size_t kBlock = 180;

    std::vector<std::string> studies;
    studies.reserve(count);
    std::vector<std::size_t> rank;
    for (std::size_t i = 0; i < count; ++i) {
        // The study's structure depends only on i, so every seed's set
        // costs about the same to run: the dimension count, the
        // objective, one of 15 workload sets (five singles, pairs and
        // triples), and the training loop, which alternates with the
        // workload set and flips every 90 studies.
        const int dims = 2 + static_cast<int>(i % 3);
        const bool perfPerCost = (i / 3) % 2 == 1;
        const std::size_t workloadSet = (i / 6) % 15;
        const bool overlap = (i / 6 + i / 90) % 2 == 1;

        // The values come from the study's rank r in a seeded
        // permutation of each block of 180 studies: every seed's block
        // holds the same values, dealt out to different structures.
        if (i % kBlock == 0)
            rank = permutation(seed, i / kBlock, kBlock);
        const std::size_t r = rank[i % kBlock];
        const double totalBw = 100.0 + 5.0 * r;

        std::ostringstream text;
        text << "NETWORK " << networkShape(dims, r * 7 % 81) << "\n";
        text << "TOTAL_BW " << fmt(totalBw) << "\n";
        text << "OBJECTIVE " << (perfPerCost ? "PERF_PER_COST" : "PERF")
             << "\n";
        text << "LOOP " << (overlap ? "TP_DP_OVERLAP" : "NO_OVERLAP")
             << "\n";

        // Feasible constraints: one upper bound above the equal share,
        // and on every other rank a lower bound on another dimension
        // well below it, so the other dimensions can always absorb the
        // budget.
        const double share = totalBw / dims;
        const std::size_t upper = 1 + r % dims;
        const double tightness = static_cast<double>(r * 37 % kBlock) / kBlock;
        text << "CONSTRAINT B" << upper << " <= "
             << fmt(std::round(share * (1.2 + 0.8 * tightness))) << "\n";
        if (r % 2 == 1) {
            const std::size_t lower = upper % dims + 1;
            text << "CONSTRAINT B" << lower << " >= "
                 << fmt(std::round(share * 0.1 * (0.5 + tightness)))
                 << "\n";
        }

        const std::size_t nWorkloads = 1 + workloadSet / 5;
        for (std::size_t w = 0; w < nWorkloads; ++w) {
            text << "WORKLOAD " << kZoo[(workloadSet + 2 * w) % 5];
            if (nWorkloads > 1)
                text << " WEIGHT " << fmt(kWeights[(r / (w + 1)) % 4]);
            text << "\n";
        }
        studies.push_back(text.str());
    }
    return studies;
}

const std::vector<std::string>&
serveHotRequests()
{
    static const std::vector<std::string> hot = {
        R"({"scenario":["fig13"]})", R"({"scenario":["fig14"]})",
        R"({"scenario":["fig16"]})", R"({"scenario":["fig21"]})",
        R"({"scenario":["tbl1"]})",  R"({"scenario":["fig10"]})",
    };
    return hot;
}

const std::vector<std::string>&
serveColdScenarios()
{
    static const std::vector<std::string> cold = {"fig17", "fig18",
                                                  "fig21"};
    return cold;
}

const std::string&
servePrimeRequest()
{
    static const std::string prime = R"({"scenario":["golden"]})";
    return prime;
}

std::vector<ServeRequest>
generateServeSequence(std::uint64_t seed, std::size_t count)
{
    // One deck: kServeHotCopies of each hot request, then one cold
    // request per cold scenario.
    std::vector<ServeRequest> deck;
    for (std::size_t h = 0; h < serveHotRequests().size(); ++h) {
        for (std::size_t k = 0; k < kServeHotCopies; ++k) {
            ServeRequest req;
            req.hotIndex = static_cast<int>(h);
            req.line = serveHotRequests()[h];
            deck.push_back(req);
        }
    }
    const std::size_t hot = deck.size();
    for (const std::string& scenario : serveColdScenarios()) {
        ServeRequest req;
        req.cold = true;
        req.line = scenario;
        deck.push_back(req);
    }
    if (deck.size() != kServeDeck)
        throw std::logic_error("serve deck size");

    SplitMix64 rng(seed ^ 0x5345525645ull);
    const std::uint64_t slotOffset = rng.next() % kScreenEvalSlots;
    std::uint64_t colds = 0;
    std::vector<ServeRequest> seq;
    seq.reserve(count);
    while (seq.size() < count) {
        // Each deck is shuffled (Fisher-Yates), and one of its cold
        // requests is marked to go out as a concurrent pair.
        std::vector<ServeRequest> d = deck;
        d[hot + rng.below(d.size() - hot)].duplicate = true;
        for (std::size_t i = d.size() - 1; i > 0; --i)
            std::swap(d[i], d[rng.below(i + 1)]);
        for (ServeRequest& req : d) {
            if (seq.size() == count)
                break;
            if (req.cold) {
                // screen-evals enters every screening point's cache
                // key, so a value no earlier cold request used makes
                // all of them new. An odd stride visits every slot
                // once per kScreenEvalSlots cold requests, spread
                // evenly over the range; the screening cost barely
                // depends on where in the range a value falls.
                const std::uint64_t slot =
                    (colds++ * 633 + slotOffset) % kScreenEvalSlots;
                req.line = std::string(R"({"scenario":[")") + req.line +
                           R"("],"explore":"prune,screen-evals=)" +
                           std::to_string(kScreenEvalsBase + slot) + "\"}";
            }
            seq.push_back(req);
        }
    }
    return seq;
}

} // namespace perfbench
