/**
 * @file
 * libra_cli — run LIBRA design studies: single study files or whole
 * scenario matrices.
 *
 * Usage:
 *   libra_cli [--threads N] [--solver SPEC] [--backend NAME]
 *             [--explore SPEC] <study-file>
 *   libra_cli --example        # print a template study file and exit
 *   libra_cli list             # list registered paper scenarios
 *   libra_cli list-solvers     # list registered search strategies
 *   libra_cli list-backends    # list registered timing backends
 *   libra_cli list-explorers   # list registered exploration strategies
 *   libra_cli run-matrix <names...|all|golden> [options]
 *   libra_cli serve --socket PATH [options]
 *   libra_cli serve-request --socket PATH <request-json | ->
 *
 * Every list command accepts `--emit json` for a byte-stable,
 * insertion-ordered registry dump external tooling can consume.
 *
 * run-matrix options:
 *   --cache-dir DIR    content-addressed result cache: re-running a
 *                      matrix recomputes only changed design points
 *   --emit json|csv    structured emission instead of tables (stats go
 *                      to stderr; stdout is byte-stable across runs)
 *   --out FILE         write the emission/tables to FILE
 *   --solver SPEC      solver-pipeline override for every design point
 *                      (comma-separated strategy names; see
 *                      `list-solvers`), e.g. --solver cmaes,pattern-search
 *   --backend NAME     timing-backend override for every design point
 *                      (see `list-backends`), e.g. --backend chunk-sim
 *                      to re-run a whole matrix under simulation
 *   --explore SPEC     exploration-strategy override for every
 *                      design-space scenario in the run (see
 *                      `list-explorers`), e.g. --explore prune to
 *                      screen-and-promote instead of exhausting the
 *                      space; scenarios without a design space are
 *                      unaffected
 *   --fail-mode MODE   abort (default): a failing design point unwinds
 *                      the run with the lowest-index point's error;
 *                      isolate: failures become per-scenario failure
 *                      rows and the rest of the matrix completes
 *                      (docs/ROBUSTNESS.md)
 *   --faults SPEC      arm the deterministic fault injector, e.g.
 *                      --faults cache-load-read=0.25,seed=7 (the
 *                      LIBRA_FAULTS environment variable is the
 *                      fallback; the flag wins)
 *   --workers N        shard the shared batch's owned computation
 *                      across N forked worker processes
 *                      (docs/SHARDING.md); emitted bytes are identical
 *                      at any worker count. 1 = classic in-process
 *   --worker-threads N solver threads per worker (default: hardware
 *                      concurrency / workers)
 *   --checkpoint FILE  append every completed design point's content
 *                      hash to FILE (fsynced), so a killed run resumes
 *                      without recomputing finished points; requires
 *                      --cache-dir
 *   --checkpoint-chunk N  in-process sub-batch size for checkpointed
 *                      runs (default 8): smaller chunks fsync progress
 *                      more often, larger ones batch better; requires
 *                      --checkpoint
 *   --update-golden    rewrite the golden-figure files for the golden
 *                      scenarios included in this run
 *   --golden-dir DIR   golden file directory (default: tests/golden)
 *
 * serve options (docs/SERVE.md): a long-lived study service on a
 * Unix-domain socket, answering newline-delimited JSON requests with
 * the exact bytes run-matrix would emit — backed by an in-memory LRU
 * over the disk cache, with single-flight dedup across concurrent
 * identical requests:
 *   --socket PATH      socket path (required; created on start)
 *   --cache-dir DIR    disk result cache under the LRU (optional)
 *   --lru N            in-memory LRU capacity in entries (default
 *                      1024; 0 disables the LRU)
 *   --lru-bytes N      LRU byte budget: evict from the cold end until
 *                      resident entries fit (0 = unbounded, the
 *                      default; combines with --lru, either limit
 *                      evicts)
 *   --threads N        size the shared evaluation pool
 *   --fail-mode MODE   default failMode for requests that set none
 *   --max-workers N    cap on the optional per-request "workers" field
 *                      (default 1 = requests never shard; requests
 *                      asking for more are clamped)
 *   --faults SPEC      arm the fault injector (tests, CI)
 *
 * serve-request sends one request line to a running server, writes the
 * payload to stdout and the status line to stderr (exit 0 ok, 1 error,
 * 3 ok-with-failed-points — mirroring run-matrix). A request of `-`
 * reads the line from stdin.
 *
 * Exit codes: 0 success; 1 user error (bad configuration, FatalError);
 * 2 internal error; 3 partial failure (an isolate-mode matrix run that
 * completed with failed design points).
 *
 * --solver / --backend on a single study file override its SOLVER /
 * BACKEND lines the same way --threads overrides THREADS.
 *
 * --threads N (or the LIBRA_THREADS environment variable, or a THREADS
 * line in the study file; flag wins) sizes the parallel evaluation
 * engine. Results are bit-identical at any thread count, and matrix
 * JSON is byte-identical whether points were computed or cached.
 */

#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"
#include "core/report.hh"
#include "core/study_config.hh"
#include "core/timing_backend.hh"
#include "explore/explore.hh"
#include "serve/server.hh"
#include "solver/strategy.hh"
#include "study/matrix.hh"
#include "study/shard.hh"

namespace {

const char* kTemplate = R"(# LIBRA design study
NETWORK RI(4)_FC(8)_RI(4)_SW(32)
TOTAL_BW 500
OBJECTIVE PERF            # PERF or PERF_PER_COST
LOOP NO_OVERLAP           # NO_OVERLAP or TP_DP_OVERLAP
CONSTRAINT B4 <= 50
WORKLOAD gpt3
WORKLOAD msft1t WEIGHT 1.0
NORMALIZE_WEIGHTS
# THREADS 8                # solver parallelism (deterministic)
# SOLVER cmaes,pattern-search  # strategy pipeline (list-solvers)
# BACKEND chunk-sim        # timing backend (list-backends)
# EXPLORE prune,keep=0.25  # exploration strategy (list-explorers)
# COST Pod LINK 7.8 SWITCH 18.0 NIC 31.6
# DOLLAR_CAP 1.5e7
# WORKLOAD_FILE my_profiled_model.wl
)";

int
runStudy(const std::string& path, int threads,
         const std::string& solverSpec, const std::string& backend,
         const std::string& explore)
{
    using namespace libra;

    std::ifstream file(path);
    if (!file) {
        std::cerr << "libra_cli: cannot open '" << path << "'\n";
        return 1;
    }
    LibraInputs inputs = parseStudyConfig(file);
    if (threads > 0)
        inputs.threads = threads; // Flag wins over the THREADS line.
    if (!solverSpec.empty())     // Flag wins over the SOLVER line.
        inputs.config.search.pipeline = parseSolverSpec(solverSpec);
    if (!backend.empty()) {      // Flag wins over the BACKEND line.
        resolveTimingBackend(backend); // Validate.
        inputs.config.estimator.timingBackend = backend;
    }
    if (!explore.empty())        // Flag wins over the EXPLORE line.
        inputs.explore = canonicalExploreSpec(explore);

    std::cout << "Study: " << inputs.networkShape << " @ "
              << inputs.config.totalBw << " GB/s per NPU, "
              << objectiveName(inputs.config.objective) << "\n";
    for (const auto& t : inputs.targets) {
        std::cout << "  target: " << t.workload.name << " "
                  << t.workload.strategy.name() << " (weight "
                  << t.weight << ")\n";
    }

    LibraReport report = runLibra(inputs);

    Table t("result");
    t.header({"Design", "BW config", "Weighted time", "Cost",
              "Speedup", "ppc x"});
    t.row({"EqualBW", bwConfigToString(report.equalBw.bw, 1),
           secondsToString(report.equalBw.weightedTime),
           dollarsToString(report.equalBw.cost), "1.00", "1.00"});
    t.row({"LIBRA", bwConfigToString(report.optimized.bw, 1),
           secondsToString(report.optimized.weightedTime),
           dollarsToString(report.optimized.cost),
           Table::num(report.speedup, 2),
           Table::num(report.perfPerCostGain, 2)});
    t.print(std::cout);

    std::cout << "\nPer-workload iteration times on the LIBRA design:\n";
    for (std::size_t i = 0; i < inputs.targets.size(); ++i) {
        std::cout << "  " << inputs.targets[i].workload.name << ": "
                  << secondsToString(
                         report.optimized.perWorkloadTime[i])
                  << " (EqualBW "
                  << secondsToString(report.equalBw.perWorkloadTime[i])
                  << ")\n";
    }
    return 0;
}

/**
 * Emit a registry listing as byte-stable JSON (insertion-ordered, the
 * registries' registration order) so external tooling can discover
 * scenarios/solvers/backends/explorers without scraping the tables.
 */
void
emitRegistryJson(const char* registryName,
                 const std::vector<libra::Json>& entries)
{
    libra::Json j = libra::Json::object();
    j["schema"] = "libra-registry-v1";
    j["registry"] = registryName;
    libra::Json arr = libra::Json::array();
    for (const auto& e : entries)
        arr.push(e);
    j["entries"] = std::move(arr);
    std::cout << j.dump(1) << "\n";
}

int
listScenarios(bool json)
{
    using namespace libra;
    const ScenarioRegistry& registry = ScenarioRegistry::global();
    std::vector<Json> entries;
    for (const auto& name : registry.names()) {
        const Scenario* s = registry.find(name);
        std::size_t points = s->space ? candidateCount(s->space())
                             : s->build ? s->build().size()
                                        : 0;
        Json e = Json::object();
        e["name"] = name;
        e["points"] = points;
        e["designSpace"] = static_cast<bool>(s->space);
        e["title"] = s->title;
        entries.push_back(std::move(e));
    }
    if (json) {
        emitRegistryJson("scenarios", entries);
        return 0;
    }
    Table t("registered scenarios");
    t.header({"Name", "Points", "Space", "Title"});
    for (const auto& e : entries) {
        t.row({e.at("name").asString(),
               Table::num(e.at("points").asNumber(), 0),
               e.at("designSpace").asBool() ? "yes" : "-",
               e.at("title").asString()});
    }
    t.print(std::cout);
    std::cout << "\nGroups: 'all' = every scenario; 'golden' = the "
                 "golden-figure set (";
    bool first = true;
    for (const auto& name : goldenScenarioNames()) {
        std::cout << (first ? "" : ", ") << name;
        first = false;
    }
    std::cout << ").\n";
    return 0;
}

int
listSolvers(bool json)
{
    using namespace libra;
    const StrategyRegistry& registry = StrategyRegistry::global();
    std::vector<Json> entries;
    for (const auto& name : registry.names()) {
        Json e = Json::object();
        e["name"] = name;
        e["description"] = registry.find(name)->description();
        entries.push_back(std::move(e));
    }
    if (json) {
        emitRegistryJson("solvers", entries);
        return 0;
    }
    Table t("registered search strategies");
    t.header({"Name", "Description"});
    for (const auto& e : entries)
        t.row({e.at("name").asString(),
               e.at("description").asString()});
    t.print(std::cout);
    std::cout
        << "\nPipelines are ordered comma-separated specs (study-file "
           "`SOLVER a,b` or `--solver a,b`);\nthe default is the "
           "subgradient,pattern-search,nelder-mead chain.\n";
    return 0;
}

int
listBackends(bool json)
{
    using namespace libra;
    const TimingBackendRegistry& registry =
        TimingBackendRegistry::global();
    std::vector<Json> entries;
    for (const auto& name : registry.names()) {
        const TimingBackend* b = registry.find(name);
        Json e = Json::object();
        e["name"] = name;
        e["cacheKeyTag"] = b->cacheKeyTag();
        e["description"] = b->description();
        entries.push_back(std::move(e));
    }
    if (json) {
        emitRegistryJson("backends", entries);
        return 0;
    }
    Table t("registered timing backends");
    t.header({"Name", "Description"});
    for (const auto& e : entries)
        t.row({e.at("name").asString(),
               e.at("description").asString()});
    t.print(std::cout);
    std::cout << "\nSelect with a study-file `BACKEND name` line or "
                 "`--backend name`;\nthe default is the analytical "
                 "model (see docs/BACKENDS.md).\n";
    return 0;
}

int
listExplorers(bool json)
{
    using namespace libra;
    const ExploreRegistry& registry = ExploreRegistry::global();
    std::vector<Json> entries;
    std::vector<std::string> paramTexts;
    for (const auto& name : registry.names()) {
        const ExploreStrategy* s = registry.find(name);
        std::string params;
        Json paramArr = Json::array();
        for (const auto& p : s->params()) {
            params += params.empty() ? "" : ", ";
            params += p.key + "=" + jsonNumberToString(p.defaultValue);
            Json pj = Json::object();
            pj["key"] = p.key;
            pj["default"] = p.defaultValue;
            pj["min"] = p.min;
            pj["max"] = p.max;
            pj["integer"] = p.integer;
            paramArr.push(std::move(pj));
        }
        paramTexts.push_back(params.empty() ? "-" : params);
        Json e = Json::object();
        e["name"] = name;
        e["params"] = std::move(paramArr);
        e["description"] = s->description();
        entries.push_back(std::move(e));
    }
    if (json) {
        emitRegistryJson("explorers", entries);
        return 0;
    }
    Table t("registered exploration strategies");
    t.header({"Name", "Params (defaults)", "Description"});
    for (std::size_t i = 0; i < entries.size(); ++i) {
        t.row({entries[i].at("name").asString(), paramTexts[i],
               entries[i].at("description").asString()});
    }
    t.print(std::cout);
    std::cout << "\nSpecs are `name[,key=value...]` (study-file "
                 "`EXPLORE prune,keep=0.25` or `--explore`);\nthe "
                 "default is exhaustive (see docs/EXPLORE.md).\n";
    return 0;
}

struct MatrixCliOptions
{
    std::vector<std::string> names;
    std::string cacheDir;
    std::string emit;      // "", "json", or "csv".
    std::string outPath;
    std::string solverSpec; // "" = per-point scenario default.
    std::string backend;    // "" = per-point scenario default.
    std::string explore;    // "" = per-scenario strategy default.
    bool updateGolden = false;
    std::string goldenDir = "tests/golden";
    int threads = 0;
    libra::FailMode failMode = libra::FailMode::Abort;
    std::size_t workers = 0;    // 0/1 = classic in-process sweep.
    int workerThreads = 0;      // 0 = hardware concurrency / workers.
    std::string checkpointPath; // "" = no checkpoint manifest.
    std::size_t checkpointChunk = 8;
    bool checkpointChunkSet = false;
    std::string workerExe;      // Resolved self path (sharded runs).
};

/**
 * The executable to exec as `... worker` for sharded runs: this very
 * binary, resolved through /proc/self/exe so it survives argv[0] being
 * a bare name or a PATH lookup. Falls back to argv[0].
 */
std::string
selfExecutable(const char* argv0)
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return argv0;
}

int
runMatrixCommand(const MatrixCliOptions& cli)
{
    using namespace libra;

    // Expand the name groups against the registry (shared with the
    // serve protocol, so a served request resolves identically).
    std::vector<std::string> names = expandScenarioGroups(cli.names);
    if (names.empty()) {
        std::cerr << "libra_cli: run-matrix needs scenario names "
                     "('libra_cli list'), 'all', or 'golden'\n";
        return 1;
    }

    // Goldens pin the default pipeline and timing model; rewriting
    // them under another solver or backend would mask default-path
    // regressions.
    if (cli.updateGolden && !cli.solverSpec.empty()) {
        std::cerr << "libra_cli: --update-golden cannot be combined "
                     "with --solver (golden figures pin the default "
                     "pipeline)\n";
        return 1;
    }
    if (cli.updateGolden && !cli.backend.empty()) {
        std::cerr << "libra_cli: --update-golden cannot be combined "
                     "with --backend (golden figures pin the "
                     "analytical timing model)\n";
        return 1;
    }
    if (cli.updateGolden && !cli.explore.empty()) {
        std::cerr << "libra_cli: --update-golden cannot be combined "
                     "with --explore (golden figures pin the "
                     "exhaustive enumeration)\n";
        return 1;
    }

    // A chunk size without a checkpoint would silently do nothing —
    // chunking only exists to pace manifest/cache appends.
    if (cli.checkpointChunkSet && cli.checkpointPath.empty()) {
        std::cerr << "libra_cli: --checkpoint-chunk requires "
                     "--checkpoint\n";
        return 1;
    }

    if (cli.threads > 0)
        ThreadPool::setGlobalThreads(
            static_cast<std::size_t>(cli.threads));

    MatrixOptions options;
    options.cacheDir = cli.cacheDir;
    if (!cli.solverSpec.empty())
        options.solverPipeline = parseSolverSpec(cli.solverSpec);
    options.timingBackend = cli.backend;
    options.exploreSpec = cli.explore;
    options.failMode = cli.failMode;
    options.workers = cli.workers;
    options.workerExe = cli.workerExe;
    options.workerThreads = cli.workerThreads;
    options.checkpointPath = cli.checkpointPath;
    options.checkpointChunk = cli.checkpointChunk;
    MatrixResult result = runScenarioMatrix(names, options);

    std::ofstream outFile;
    std::ostream* out = &std::cout;
    if (!cli.outPath.empty()) {
        outFile.open(cli.outPath);
        if (!outFile) {
            std::cerr << "libra_cli: cannot write '" << cli.outPath
                      << "'\n";
            return 1;
        }
        out = &outFile;
    }

    if (cli.emit == "json") {
        emitMatrixJson(result, *out);
    } else if (cli.emit == "csv") {
        emitMatrixCsv(result, *out);
    } else {
        printMatrixHuman(result, *out);
    }

    // Structured emission keeps stdout byte-stable; provenance goes to
    // stderr (also when tables went to a file).
    if (!cli.emit.empty() || out != &std::cout) {
        std::cerr << "matrix: " << result.scenarios.size()
                  << " scenarios, " << result.points
                  << " design points (" << result.unique << " unique, "
                  << result.fromCache << " from cache, "
                  << result.computed << " computed)";
        if (result.failed > 0)
            std::cerr << " -- " << result.failed << " FAILED";
        std::cerr << "\n";
    }

    if (cli.updateGolden) {
        // A golden file must pin an all-ok run; a failure-only payload
        // would silently erase the figure's reference rows.
        if (result.failed > 0) {
            std::cerr << "libra_cli: refusing --update-golden: "
                      << result.failed
                      << " design points failed in this run\n";
            return 1;
        }
        std::size_t written = 0;
        for (const ScenarioRun& run : result.scenarios) {
            bool golden = false;
            for (const auto& g : goldenScenarioNames())
                golden |= g == run.name;
            if (!golden)
                continue;
            std::string path = cli.goldenDir + "/" + run.name + ".json";
            std::ofstream file(path);
            if (!file) {
                std::cerr << "libra_cli: cannot write golden file '"
                          << path << "'\n";
                return 1;
            }
            file << scenarioRunToJson(run).dump(1) << "\n";
            ++written;
            std::cerr << "golden: wrote " << path << "\n";
        }
        if (written < goldenScenarioNames().size()) {
            std::cerr << "golden: warning: only " << written << " of "
                      << goldenScenarioNames().size()
                      << " golden scenarios were in this run (use "
                         "'run-matrix golden --update-golden')\n";
        }
    }
    // Partial failure (isolate mode): distinct exit code so CI and the
    // future serve mode can tell "some rows missing" from "all ok".
    return result.failed > 0 ? 3 : 0;
}

int
runServeCommand(const std::vector<std::string>& args,
                const std::string& workerExe)
{
    using namespace libra;

    ServeOptions options;
    options.workerExe = workerExe;
    int threads = 0;
    for (std::size_t i = 1; i < args.size(); ++i) {
        const std::string& arg = args[i];
        auto value = [&](const char* what) -> std::string {
            if (i + 1 >= args.size()) {
                std::cerr << "libra_cli: " << arg << " needs " << what
                          << "\n";
                std::exit(1);
            }
            return args[++i];
        };
        if (arg == "--socket") {
            options.socketPath = value("a path");
        } else if (arg == "--cache-dir") {
            options.cacheDir = value("a directory");
        } else if (arg == "--lru") {
            std::string text = value("an entry count");
            char* end = nullptr;
            long v = std::strtol(text.c_str(), &end, 10);
            if (end == text.c_str() || *end != '\0' || v < 0) {
                std::cerr << "libra_cli: bad --lru capacity '" << text
                          << "'\n";
                return 1;
            }
            options.lruCapacity = static_cast<std::size_t>(v);
        } else if (arg == "--lru-bytes") {
            std::string text = value("a byte budget");
            char* end = nullptr;
            long long v = std::strtoll(text.c_str(), &end, 10);
            if (end == text.c_str() || *end != '\0' || v < 0) {
                std::cerr << "libra_cli: bad --lru-bytes budget '"
                          << text << "'\n";
                return 1;
            }
            options.lruBytes = static_cast<std::size_t>(v);
        } else if (arg == "--threads") {
            std::string text = value("a count");
            char* end = nullptr;
            long v = std::strtol(text.c_str(), &end, 10);
            if (end == text.c_str() || *end != '\0' || v < 1 ||
                v > 4096) {
                std::cerr << "libra_cli: bad thread count '" << text
                          << "' (expected 1..4096)\n";
                return 1;
            }
            threads = static_cast<int>(v);
        } else if (arg == "--fail-mode") {
            std::string mode = value("abort or isolate");
            if (mode == "abort") {
                options.failMode = FailMode::Abort;
            } else if (mode == "isolate") {
                options.failMode = FailMode::Isolate;
            } else {
                std::cerr << "libra_cli: --fail-mode expects abort or "
                             "isolate\n";
                return 1;
            }
        } else if (arg == "--max-workers") {
            std::string text = value("a worker cap");
            char* end = nullptr;
            long v = std::strtol(text.c_str(), &end, 10);
            if (end == text.c_str() || *end != '\0' || v < 1 ||
                v > 256) {
                std::cerr << "libra_cli: bad --max-workers cap '"
                          << text << "' (expected 1..256)\n";
                return 1;
            }
            options.maxWorkers = static_cast<std::size_t>(v);
        } else if (arg == "--faults") {
            installFaults(parseFaultSpec(value("a fault spec")));
        } else {
            std::cerr << "libra_cli: unknown serve flag '" << arg
                      << "'\n";
            return 1;
        }
    }
    if (options.socketPath.empty()) {
        std::cerr << "libra_cli: serve needs --socket PATH\n";
        return 1;
    }

    if (threads > 0)
        ThreadPool::setGlobalThreads(static_cast<std::size_t>(threads));

    const std::string socketPath = options.socketPath;
    Server server(std::move(options));
    server.start();
    inform("serving on ", socketPath,
           " (send {\"op\":\"shutdown\"} to stop)");
    server.waitUntilStopped();
    Server::Stats stats = server.stats();
    inform("served ", stats.requests, " requests (", stats.errors,
           " errors)");
    return 0;
}

int
runServeRequestCommand(const std::vector<std::string>& args)
{
    using namespace libra;

    std::string socketPath;
    std::string request;
    for (std::size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--socket") {
            if (i + 1 >= args.size()) {
                std::cerr << "libra_cli: --socket needs a path\n";
                return 1;
            }
            socketPath = args[++i];
        } else if (request.empty()) {
            request = args[i];
        } else {
            std::cerr << "libra_cli: serve-request takes one request "
                         "line\n";
            return 1;
        }
    }
    if (socketPath.empty() || request.empty()) {
        std::cerr << "libra_cli: serve-request needs --socket PATH and "
                     "a request JSON line\n";
        return 1;
    }
    if (request == "-") {
        // Lines past the kernel's per-argument limit (128 KiB) arrive
        // on stdin instead; one trailing newline is the frame's own.
        std::ostringstream text;
        text << std::cin.rdbuf();
        request = text.str();
        if (!request.empty() && request.back() == '\n')
            request.pop_back();
    }

    ServeReply reply = serveRequest(socketPath, request);
    // Mirror run-matrix: payload on stdout (byte-stable), provenance
    // on stderr.
    std::cerr << reply.status.dump() << "\n";
    std::cout << reply.payload;
    if (!reply.status.at("ok").asBool())
        return 1;
    if (reply.status.has("failed") &&
        reply.status.at("failed").asNumber() > 0)
        return 3;
    return 0;
}

int
parseThreads(const char* text)
{
    char* end = nullptr;
    long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || v < 1 || v > 4096) {
        std::cerr << "libra_cli: bad thread count '" << text
                  << "' (expected 1..4096)\n";
        return -1;
    }
    return static_cast<int>(v);
}

void
usage()
{
    std::cerr
        << "usage: libra_cli [--threads N] [--solver SPEC] "
           "[--backend NAME] [--explore SPEC] <study-file>\n"
        << "       libra_cli --example\n"
        << "       libra_cli list [--emit json]\n"
        << "       libra_cli list-solvers [--emit json]\n"
        << "       libra_cli list-backends [--emit json]\n"
        << "       libra_cli list-explorers [--emit json]\n"
        << "       libra_cli run-matrix <names...|all|golden> "
           "[--threads N]\n"
        << "                 [--cache-dir DIR] [--emit json|csv] "
           "[--out FILE]\n"
        << "                 [--solver SPEC] [--backend NAME] "
           "[--explore SPEC]\n"
        << "                 [--fail-mode abort|isolate] "
           "[--faults SPEC]\n"
        << "                 [--workers N] [--worker-threads N] "
           "[--checkpoint FILE]\n"
        << "                 [--checkpoint-chunk N] "
           "[--update-golden] [--golden-dir DIR]\n"
        << "       libra_cli serve --socket PATH [--cache-dir DIR] "
           "[--lru N]\n"
        << "                 [--lru-bytes N] [--threads N] "
           "[--fail-mode abort|isolate]\n"
        << "                 [--max-workers N] [--faults SPEC]\n"
        << "       libra_cli serve-request --socket PATH "
           "<request-json | ->\n";
}

} // namespace

int
main(int argc, char** argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);

    // Hidden shard-worker mode (docs/SHARDING.md): speak the frame
    // protocol on stdin/stdout until exit/EOF. Dispatched before the
    // LIBRA_FAULTS env arming on purpose — the master injects faults
    // before dispatch, so workers must stay injector-free or content-
    // keyed faults would fire twice.
    if (!args.empty() && args[0] == "worker")
        return libra::runShardWorker();

    if (!args.empty() && args[0] == "--example") {
        std::cout << kTemplate;
        return 0;
    }

    // Arm the fault injector from the environment (tests, CI smokes);
    // an explicit --faults flag re-installs over this.
    if (const char* env = std::getenv("LIBRA_FAULTS")) {
        if (env[0] != '\0') {
            try {
                libra::installFaults(libra::parseFaultSpec(env));
            } catch (const libra::FatalError& e) {
                std::cerr << "libra_cli: LIBRA_FAULTS: " << e.what()
                          << "\n";
                return 1;
            }
        }
    }

    // Shared `--emit json` handling for the four list commands.
    auto listEmit = [&](std::size_t argIndex) -> int {
        // 0 = human tables, 1 = json, -1 = bad flag.
        if (argIndex >= args.size())
            return 0;
        if (args[argIndex] == "--emit" && argIndex + 1 < args.size() &&
            args[argIndex + 1] == "json" && argIndex + 2 == args.size())
            return 1;
        std::cerr << "libra_cli: list commands accept only "
                     "'--emit json'\n";
        return -1;
    };

    try {
        if (!args.empty() &&
            (args[0] == "list" || args[0] == "list-solvers" ||
             args[0] == "list-backends" || args[0] == "list-explorers")) {
            int emit = listEmit(1);
            if (emit < 0)
                return 1;
            if (args[0] == "list")
                return listScenarios(emit == 1);
            if (args[0] == "list-solvers")
                return listSolvers(emit == 1);
            if (args[0] == "list-backends")
                return listBackends(emit == 1);
            return listExplorers(emit == 1);
        }
        if (!args.empty() && args[0] == "run-matrix") {
            MatrixCliOptions cli;
            cli.workerExe = selfExecutable(argv[0]);
            for (std::size_t i = 1; i < args.size(); ++i) {
                const std::string& arg = args[i];
                auto value = [&](const char* what) -> std::string {
                    if (i + 1 >= args.size()) {
                        std::cerr << "libra_cli: " << arg << " needs "
                                  << what << "\n";
                        std::exit(1);
                    }
                    return args[++i];
                };
                if (arg == "--cache-dir") {
                    cli.cacheDir = value("a directory");
                } else if (arg == "--emit") {
                    cli.emit = value("json or csv");
                    if (cli.emit != "json" && cli.emit != "csv") {
                        std::cerr << "libra_cli: --emit expects json "
                                     "or csv\n";
                        return 1;
                    }
                } else if (arg == "--out") {
                    cli.outPath = value("a file path");
                } else if (arg == "--solver") {
                    cli.solverSpec = value("a solver spec");
                } else if (arg == "--backend") {
                    cli.backend = value("a backend name");
                } else if (arg == "--explore") {
                    cli.explore = value("an explore spec");
                } else if (arg == "--fail-mode") {
                    std::string mode =
                        value("abort or isolate");
                    if (mode == "abort") {
                        cli.failMode = libra::FailMode::Abort;
                    } else if (mode == "isolate") {
                        cli.failMode = libra::FailMode::Isolate;
                    } else {
                        std::cerr << "libra_cli: --fail-mode expects "
                                     "abort or isolate\n";
                        return 1;
                    }
                } else if (arg == "--faults") {
                    libra::installFaults(
                        libra::parseFaultSpec(value("a fault spec")));
                } else if (arg == "--update-golden") {
                    cli.updateGolden = true;
                } else if (arg == "--golden-dir") {
                    cli.goldenDir = value("a directory");
                } else if (arg == "--threads") {
                    cli.threads =
                        parseThreads(value("a count").c_str());
                    if (cli.threads < 0)
                        return 1;
                } else if (arg == "--workers") {
                    std::string text = value("a worker count");
                    char* end = nullptr;
                    long v = std::strtol(text.c_str(), &end, 10);
                    if (end == text.c_str() || *end != '\0' || v < 1 ||
                        v > 256) {
                        std::cerr << "libra_cli: bad --workers count '"
                                  << text << "' (expected 1..256)\n";
                        return 1;
                    }
                    cli.workers = static_cast<std::size_t>(v);
                } else if (arg == "--worker-threads") {
                    cli.workerThreads =
                        parseThreads(value("a count").c_str());
                    if (cli.workerThreads < 0)
                        return 1;
                } else if (arg == "--checkpoint") {
                    cli.checkpointPath = value("a manifest path");
                } else if (arg == "--checkpoint-chunk") {
                    std::string text = value("a chunk size");
                    char* end = nullptr;
                    long v = std::strtol(text.c_str(), &end, 10);
                    if (end == text.c_str() || *end != '\0' ||
                        v < 1 || v > 4096) {
                        std::cerr << "libra_cli: bad "
                                     "--checkpoint-chunk size '"
                                  << text << "' (expected 1..4096)\n";
                        return 1;
                    }
                    cli.checkpointChunk =
                        static_cast<std::size_t>(v);
                    cli.checkpointChunkSet = true;
                } else if (!arg.empty() && arg[0] == '-') {
                    std::cerr << "libra_cli: unknown run-matrix flag '"
                              << arg << "'\n";
                    return 1;
                } else {
                    cli.names.push_back(arg);
                }
            }
            return runMatrixCommand(cli);
        }
        if (!args.empty() && args[0] == "serve")
            return runServeCommand(args, selfExecutable(argv[0]));
        if (!args.empty() && args[0] == "serve-request")
            return runServeRequestCommand(args);

        // Legacy single-study mode.
        int threads = 0;
        std::string studyPath;
        std::string solverSpec;
        std::string backend;
        std::string explore;
        for (std::size_t i = 0; i < args.size(); ++i) {
            if (args[i] == "--example") {
                std::cout << kTemplate;
                return 0;
            }
            if (args[i] == "--threads") {
                if (i + 1 >= args.size()) {
                    std::cerr << "libra_cli: --threads needs a count\n";
                    return 1;
                }
                threads = parseThreads(args[++i].c_str());
                if (threads < 0)
                    return 1;
            } else if (args[i] == "--solver") {
                if (i + 1 >= args.size()) {
                    std::cerr << "libra_cli: --solver needs a spec\n";
                    return 1;
                }
                solverSpec = args[++i];
            } else if (args[i] == "--backend") {
                if (i + 1 >= args.size()) {
                    std::cerr << "libra_cli: --backend needs a name\n";
                    return 1;
                }
                backend = args[++i];
            } else if (args[i] == "--explore") {
                if (i + 1 >= args.size()) {
                    std::cerr << "libra_cli: --explore needs a spec\n";
                    return 1;
                }
                explore = args[++i];
            } else if (studyPath.empty()) {
                studyPath = args[i];
            } else {
                usage();
                return 1;
            }
        }
        if (studyPath.empty()) {
            usage();
            return 1;
        }
        return runStudy(studyPath, threads, solverSpec, backend,
                        explore);
    } catch (const libra::FatalError& e) {
        // User error: bad configuration, infeasible constraints.
        std::cerr << "libra_cli: " << e.what() << "\n";
        return 1;
    } catch (const std::exception& e) {
        // Internal error: anything the engine did not classify.
        std::cerr << "libra_cli: internal error: " << e.what() << "\n";
        return 2;
    }
}
