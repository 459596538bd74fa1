#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>

namespace perfbench {

namespace {

/** 1-based nearest rank of the q-th percentile of n > 0 samples. The
 * epsilon keeps q * n / 100 from rounding up past an exact integer
 * (99.9 / 100 is not exact in binary). */
std::size_t
nearestRank(std::size_t n, double q)
{
    const double r = std::ceil(q * static_cast<double>(n) / 100.0 - 1e-9);
    return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                   1, n);
}

} // namespace

double
percentileSorted(const std::vector<double> &sorted, double q)
{
    return sorted[nearestRank(sorted.size(), q) - 1];
}

std::size_t
samplesBeyond(std::size_t n, double q)
{
    return n ? n - nearestRank(n, q) : 0;
}

Summary
summarize(std::vector<double> samples)
{
    Summary s;
    s.n = samples.size();
    if (samples.empty())
        return s;
    std::sort(samples.begin(), samples.end());
    s.p50 = percentileSorted(samples, 50.0);
    s.p99 = percentileSorted(samples, 99.0);
    s.p99Valid = samplesBeyond(s.n, 99.0) >= kTailMinBeyond;
    return s;
}

bool
rungPasses(const Rung &r)
{
    return r.p99Valid && r.generatorValid && !r.backlogGrowing &&
           r.p99Ms <= kRungP99LimitMs && r.failPct <= kRungFailLimitPct;
}

double
capacityFromLadder(const std::vector<Rung> &rungs)
{
    double capacity = 0.0;
    for (const Rung &r : rungs) {
        if (!rungPasses(r))
            break;
        capacity = r.rateIps;
    }
    return capacity;
}

bool
backlogGrowing(const std::vector<double> &inflight, double factor,
               double slack)
{
    const std::size_t n = inflight.size();
    if (n < 8)
        return false;
    const auto mean = [&](std::size_t lo, std::size_t hi) {
        return std::accumulate(inflight.begin() + static_cast<long>(lo),
                               inflight.begin() + static_cast<long>(hi),
                               0.0) /
               static_cast<double>(hi - lo);
    };
    const double early = mean(n / 4, n / 2);
    const double late = mean(n - n / 4, n);
    return late > factor * early + slack;
}

Closure
closeLedger(const std::vector<std::pair<std::string, double>> &layerTime,
            double total)
{
    Closure c;
    double covered = 0.0;
    for (const auto &[name, t] : layerTime) {
        const double pct = total > 0 ? 100.0 * t / total : 0.0;
        c.sharePct.emplace_back(name, pct);
        covered += pct;
    }
    c.unattributedPct = total > 0 ? 100.0 - covered : 0.0;
    return c;
}

double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    double kb = 0.0;
    while (std::fgets(line, sizeof line, f))
        if (std::strncmp(line, "VmHWM:", 6) == 0)
            kb = std::strtod(line + 6, nullptr);
    std::fclose(f);
    return kb / 1024.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

} // namespace perfbench
