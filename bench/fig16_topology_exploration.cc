/**
 * @file
 * Fig. 16: MSFT-1T over the 3D-512, 3D-1K, and 4D-2K topologies —
 * speedup and perf-per-cost versus each network's own EqualBW baseline.
 *
 * The study is the registered "fig16" scenario (src/study/scenarios.cc);
 * all points run as one runLibraSweep batch.
 */

#include "bench_util.hh"

int
main()
{
    return libra::bench::runScenarioMain("fig16");
}
