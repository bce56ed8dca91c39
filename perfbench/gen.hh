/**
 * @file
 * Seeded input generators for the benchmark workloads.
 *
 * Every generator is a pure function of its seed: the same seed gives
 * byte-identical study texts and the same served request sequence on
 * any machine. Draws use splitmix64, the mixing the library itself
 * uses for multistart RNG streams and fault draws.
 */

#ifndef LIBRA_PERFBENCH_GEN_HH
#define LIBRA_PERFBENCH_GEN_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** splitmix64 stream: a counter advanced by the golden gamma. */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next();

    /** Uniform in [0, 1). */
    double uniform();

    /** Uniform integer in [0, n). */
    std::size_t below(std::size_t n);

  private:
    std::uint64_t state_;
};

/**
 * @p count study-file texts for the studies-gen workload. Study i's
 * structure depends only on i, the same for every seed: 2, 3 or 4
 * dimensions, PERF or PERF_PER_COST, one of 15 sets of 1-3 zoo
 * workloads (together a 90-study period), and NO_OVERLAP or
 * TP_DP_OVERLAP. Its values come from its rank in a seeded permutation
 * of each block of 180 studies: the RI/FC/SW block of each dimension,
 * TOTAL_BW in the paper's 100-1000 GB/s range, workload weights, and
 * per-dimension constraints that are always feasible. So every seed's
 * block holds the same values, dealt to different studies. Only valid,
 * finite values.
 */
std::vector<std::string> generateStudies(std::uint64_t seed,
                                         std::size_t count);

/** One entry of the serve-mix sequence. */
struct ServeRequest
{
    std::string line;      ///< The JSON request line.
    bool cold = false;     ///< Its screening points are new to the server.
    bool duplicate = false;///< Sent as two concurrent copies.
    int hotIndex = -1;     ///< Index into serveHotRequests(); -1 = cold.
};

/** The LRU-hot request lines primed in set-up (fig10 among them). */
const std::vector<std::string>& serveHotRequests();

/**
 * The scenarios the cold requests explore with `prune`. Set-up primes
 * each one's plain request, so a cold request's full-budget survivors
 * are cached and what it computes is exactly its screening points.
 */
const std::vector<std::string>& serveColdScenarios();

/** The request that primes the golden scenarios' design points. */
const std::string& servePrimeRequest();

/** Copies of each hot request per deck. */
constexpr std::size_t kServeHotCopies = 5;

/** Entries per deck: every hot request's copies, one cold per scenario. */
constexpr std::size_t kServeDeck = 6 * kServeHotCopies + 3;

/** Cold requests use screen-evals in [base, base + slots). */
constexpr std::uint64_t kScreenEvalsBase = 256;
constexpr std::uint64_t kScreenEvalSlots = 1024;

/**
 * The first @p count entries of the serve-mix sequence: decks of
 * kServeDeck entries with a fixed make-up, each shuffled by the seed.
 * A deck holds each of the six hot requests kServeHotCopies times, and
 * one `prune` exploration of each cold scenario. Each cold request has
 * a screen-evals value that no other request among the next
 * kScreenEvalSlots cold ones uses, so its screening points are new.
 * One cold request per deck is marked as a duplicate: the client sends
 * it twice at once, so single-flight coalescing runs.
 */
std::vector<ServeRequest> generateServeSequence(std::uint64_t seed,
                                                std::size_t count);

} // namespace perfbench

#endif // LIBRA_PERFBENCH_GEN_HH
