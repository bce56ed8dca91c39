/**
 * @file
 * Exploration-strategy efficiency benchmark on the Fig. 16 space.
 *
 * The headline claim of the explore layer's "prune" strategy is that a
 * cheap screening pass ranks the discrete design axes well enough that
 * only a fraction of the candidates ever pays for a full-budget
 * optimization — without changing the answer. This bench runs the
 * fig16 topology-exploration space (3 shapes x 4 budgets x 2
 * objectives = 24 candidates) under "exhaustive" and under "prune",
 * counts full-budget and screening optimize() calls for each, and
 * checks that prune's per-objective winners match the exhaustive
 * winners — at two thread counts, asserting bit-identical winner sets
 * and winning bandwidth configurations.
 *
 * Emits machine-readable BENCH_explore.json for CI tracking next to
 * BENCH_objective/solver/backend.json. The acceptance contract:
 * `prune_matches_exhaustive_winner` true with
 * `prune_full_runs <= 0.5 * exhaustive_full_runs`.
 */

#include "bench_util.hh"
#include "common/json.hh"
#include "common/thread_pool.hh"
#include "explore/explore.hh"
#include "study/scenario_util.hh"

namespace libra {
namespace {

/** The registered fig16 scenario's own space: no drift possible. */
DesignSpace
fig16Space()
{
    const Scenario* s = ScenarioRegistry::global().find("fig16");
    if (!s || !s->space)
        fatal("fig16 is not a design-space scenario");
    return s->space();
}

struct StrategyRun
{
    ExploreResult result;
    std::size_t sweepPoints = 0; ///< Total optimize() calls issued.
};

StrategyRun
runStrategy(const std::vector<Candidate>& candidates,
            const std::string& spec)
{
    StrategyRun run;
    ExploreSweepFn sweep = [&](const std::vector<LibraInputs>& batch) {
        run.sweepPoints += batch.size();
        return runLibraSweep(batch);
    };
    run.result = exploreCandidates(candidates, spec, sweep);
    return run;
}

/** "net@bw:objective=bwConfig" winner fingerprint for comparisons. */
std::string
winnerFingerprint(const ExploreResult& r)
{
    std::string out;
    for (std::size_t w : r.winners) {
        const ExploreOutcome& o = r.outcomes[w];
        out += o.candidate.topology + "@" + bwLabel(o.candidate.budget) +
               ":" + objectiveName(o.candidate.objective) + "=" +
               bwConfigToString(o.report.optimized.bw) + "; ";
    }
    return out;
}

void
run()
{
    bench::banner("micro",
                  "exploration-strategy efficiency on the fig16 space "
                  "(exhaustive vs prune)");

    std::vector<Candidate> candidates = expandDesignSpace(fig16Space());

    ThreadPool::setGlobalThreads(2);
    StrategyRun exhaustive = runStrategy(candidates, "");
    StrategyRun prune = runStrategy(candidates, "prune");

    // The determinism contract: the prune result must be bit-identical
    // at any thread count (rankings reduce in candidate-index order).
    ThreadPool::setGlobalThreads(5);
    StrategyRun prune5 = runStrategy(candidates, "prune");
    bool threadStable =
        winnerFingerprint(prune.result) ==
            winnerFingerprint(prune5.result) &&
        prune.result.fullRuns == prune5.result.fullRuns;

    bool winnersMatch =
        prune.result.winners.size() ==
        exhaustive.result.winners.size();
    for (std::size_t i = 0; winnersMatch &&
                            i < prune.result.winners.size(); ++i) {
        winnersMatch = prune.result.winners[i] ==
                       exhaustive.result.winners[i];
    }

    Table t;
    t.header({"Strategy", "full runs", "screen runs", "optimize calls",
              "winners"});
    t.row({"exhaustive", std::to_string(exhaustive.result.fullRuns),
           std::to_string(exhaustive.result.screenRuns),
           std::to_string(exhaustive.sweepPoints),
           winnerFingerprint(exhaustive.result)});
    t.row({"prune", std::to_string(prune.result.fullRuns),
           std::to_string(prune.result.screenRuns),
           std::to_string(prune.sweepPoints),
           winnerFingerprint(prune.result)});
    t.print(std::cout);

    double fullFraction =
        static_cast<double>(prune.result.fullRuns) /
        static_cast<double>(exhaustive.result.fullRuns);
    std::cout << "prune full-budget fraction: "
              << Table::num(fullFraction * 100.0, 1)
              << "% of exhaustive; winners match: "
              << (winnersMatch ? "yes" : "NO")
              << "; thread-stable: " << (threadStable ? "yes" : "NO")
              << "\n";

    Json j = Json::object();
    j["bench"] = "micro_explore";
    j["space"] = "fig16";
    j["candidates"] = candidates.size();
    j["exhaustive_full_runs"] = exhaustive.result.fullRuns;
    j["prune_full_runs"] = prune.result.fullRuns;
    j["prune_screen_runs"] = prune.result.screenRuns;
    j["prune_full_fraction"] = fullFraction;
    j["prune_matches_exhaustive_winner"] = winnersMatch;
    j["prune_thread_stable"] = threadStable;
    j["exhaustive_winners"] = winnerFingerprint(exhaustive.result);
    j["prune_winners"] = winnerFingerprint(prune.result);

    bench::writeBenchJson("BENCH_explore.json", j);
    std::cout << "\nWrote BENCH_explore.json (prune reached the "
                 "exhaustive winners with "
              << Table::num(fullFraction * 100.0, 0)
              << "% of the full-budget optimize() calls).\n";
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
