/**
 * @file
 * The benchmark's own arithmetic: percentile selection, the capacity
 * ladder rule, backlog-growth detection and the latency-ledger
 * closure. Kept free of any program type so tests/selftest.cc can pin
 * every rule on hand-made inputs.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** Samples beyond a reported tail percentile the method requires. */
inline constexpr std::size_t kTailMinBeyond = 10;

/**
 * Nearest-rank percentile: the smallest sample with at least q% of
 * the samples at or below it. @p sorted must be ascending, non-empty.
 */
double percentileSorted(const std::vector<double> &sorted, double q);

/** Samples strictly beyond the nearest-rank q-th percentile of n. */
std::size_t samplesBeyond(std::size_t n, double q);

/**
 * A timing distribution reduced the way every metric reports it: the
 * median and p99, with the sample count. Workloads size their runs so
 * p99 has kTailMinBeyond samples beyond it and fail a run where it has
 * not.
 */
struct Summary
{
    std::size_t n = 0;
    double p50 = 0.0;
    double p99 = 0.0;
    bool p99Valid = false; ///< >= kTailMinBeyond samples beyond p99
};

/** Reduce @p samples (any order; copied and sorted). */
Summary summarize(std::vector<double> samples);

/** One fixed-rate rung of the open-loop capacity ladder. */
struct Rung
{
    double rateIps = 0.0;
    double p99Ms = 0.0;       ///< latency from scheduled send time
    bool p99Valid = false;    ///< enough samples for a p99
    double failPct = 0.0;
    bool backlogGrowing = false;
    bool generatorValid = true; ///< the client kept its schedule
};

/** Latency limit on a rung's p99 and the failure share it may have. */
inline constexpr double kRungP99LimitMs = 50.0;
inline constexpr double kRungFailLimitPct = 1.0;

/** Whether @p r meets every capacity condition. */
bool rungPasses(const Rung &r);

/**
 * Capacity from a ladder run in ascending rate order: the rate of the
 * last rung of the passing prefix, i.e. the highest rate below the
 * first failing rung. 0 when the lowest rung already fails.
 */
double capacityFromLadder(const std::vector<Rung> &rungs);

/**
 * Backlog growth over one fixed-rate window, from the in-flight count
 * sampled at every send in time order: growing when the mean over the
 * last quarter exceeds @p factor times the mean over the second
 * quarter plus @p slack requests (the first quarter is transient).
 */
bool backlogGrowing(const std::vector<double> &inflight,
                    double factor, double slack);

/** Ledger of one end-to-end interval split into named layers. */
struct Closure
{
    std::vector<std::pair<std::string, double>> sharePct;
    double unattributedPct = 0.0;
};

/**
 * Close a ledger: each layer's share of @p total and the residual
 * share no layer covers. Layer shares plus unattributedPct sum to 100
 * by construction; a negative residual means layers overlap.
 */
Closure closeLedger(
    const std::vector<std::pair<std::string, double>> &layerTime,
    double total);

/** Peak resident set size of this process in MiB (VmHWM). */
double peakRssMb();

/** Median of @p v (copied); 0 for an empty vector. */
double median(std::vector<double> v);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
