/**
 * @file
 * Self-test of the benchmark's own arithmetic and output checks:
 * percentile selection, the capacity-ladder rule, backlog detection,
 * ledger closure, and a wrong-action response failing the serve check.
 * run.py executes it before every run; a failure stops the benchmark.
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "checks.hh"
#include "stats.hh"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                       \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ++g_failures;                                                  \
            std::fprintf(stderr, "selftest: %s:%d: %s\n", __FILE__,        \
                         __LINE__, #cond);                                 \
        }                                                                  \
    } while (0)

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

using namespace perfbench;

std::vector<double>
iota(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i) // unsorted on purpose
        v.push_back(i);
    return v;
}

void
testPercentiles()
{
    const Summary s = summarize(iota(100));
    EXPECT(s.n == 100);
    EXPECT(near(s.p50, 50));
    EXPECT(near(s.p99, 99));
    // Only one sample lies beyond p99 of 100: not a valid p99.
    EXPECT(samplesBeyond(100, 99) == 1);
    EXPECT(!s.p99Valid);
    EXPECT(samplesBeyond(100, 90) == 10);
    EXPECT(samplesBeyond(999, 99) == 9);
    EXPECT(!summarize(iota(999)).p99Valid);
    EXPECT(samplesBeyond(1000, 99) == 10);
    EXPECT(summarize(iota(1000)).p99Valid);
    // 99.9 / 100 is inexact in binary; the rank must still be 9990.
    EXPECT(samplesBeyond(10000, 99.9) == 10);
    EXPECT(samplesBeyond(0, 99) == 0);
    EXPECT(summarize({}).n == 0);
    EXPECT(near(median({3, 1, 2, 10}), 2.5));
}

Rung
rung(double ips, double p99_ms, double fail_pct = 0)
{
    Rung r;
    r.rateIps = ips;
    r.p99Ms = p99_ms;
    r.p99Valid = true;
    r.failPct = fail_pct;
    return r;
}

void
testLadder()
{
    std::vector<Rung> rungs{rung(2000, 10), rung(2400, 20), rung(2800, 49.9),
                            rung(3000, 50.1), rung(3200, 30)};
    // The knee is the first failing rung; a later pass does not count.
    EXPECT(near(capacityFromLadder(rungs), 2800));
    rungs[2].failPct = 1.01;
    EXPECT(near(capacityFromLadder(rungs), 2400));
    rungs[2].failPct = 1.0;
    rungs[2].backlogGrowing = true;
    EXPECT(near(capacityFromLadder(rungs), 2400));
    rungs[2].backlogGrowing = false;
    rungs[1].generatorValid = false;
    EXPECT(near(capacityFromLadder(rungs), 2000));
    rungs[1].generatorValid = true;
    rungs[0].p99Valid = false;
    EXPECT(near(capacityFromLadder(rungs), 0));
    EXPECT(near(capacityFromLadder({}), 0));
}

void
testBacklog()
{
    std::vector<double> flat(400, 12.0), growing;
    for (int i = 0; i < 400; ++i)
        growing.push_back(1.0 + i);
    EXPECT(!backlogGrowing(flat, 1.5, 32));
    EXPECT(backlogGrowing(growing, 1.5, 32));
    EXPECT(!backlogGrowing({1, 100}, 1.5, 0)); // too few samples
}

void
testClosure()
{
    const Closure c = closeLedger({{"nn", 30}, {"serve", 50}}, 100);
    EXPECT(c.sharePct.size() == 2);
    EXPECT(near(c.sharePct[0].second, 30));
    EXPECT(near(c.sharePct[1].second, 50));
    EXPECT(near(c.unattributedPct, 20));
    double sum = c.unattributedPct;
    for (const auto &[layer, pct] : c.sharePct)
        sum += pct;
    EXPECT(near(sum, 100));
    // Overlapping layers show as a negative residual, not a clamp.
    EXPECT(near(closeLedger({{"a", 70}, {"b", 40}}, 100).unattributedPct,
                -10));
    EXPECT(near(closeLedger({{"a", 1}}, 0).unattributedPct, 0));
}

fa3c::serve::Response
okResponse(int action, std::uint64_t version)
{
    fa3c::serve::Response r;
    r.status = fa3c::serve::Status::Ok;
    r.action = action;
    r.modelVersion = version;
    return r;
}

void
testServeChecker()
{
    // Observation 0: action 1 under set A, 2 under set B.
    ServeChecker check({{1, 2}, {0, 0}}, 3);
    std::string why;
    EXPECT(check.check(0, 0, okResponse(1, 1), &why));
    // Negative case: a wrong action fails, and says why.
    EXPECT(!check.check(0, 0, okResponse(0, 1), &why));
    EXPECT(why.find("reference 1") != std::string::npos);
    // Version 2 was built from set B.
    EXPECT(check.check(0, 0, okResponse(2, 2), &why));
    EXPECT(!check.check(1, 0, okResponse(1, 2), &why));
    // Versions never go backwards on one connection.
    EXPECT(!check.check(0, 1, okResponse(0, 1), &why));
    EXPECT(check.check(2, 1, okResponse(0, 1), &why));
    // Non-Ok responses carry no action; they count as failures
    // elsewhere, not here.
    fa3c::serve::Response shed;
    shed.status = fa3c::serve::Status::RejectedShed;
    EXPECT(check.check(0, 0, shed, &why));
    EXPECT(!check.check(0, 7, okResponse(0, 3), &why));
}

void
testLogits()
{
    const std::vector<float> logits{0.1f, 0.7f, 0.69f};
    EXPECT(argmax(logits) == 1);
    EXPECT(std::fabs(top2Margin(logits) - 0.01f) < 1e-6f);
}

} // namespace

int
main()
{
    testPercentiles();
    testLadder();
    testBacklog();
    testClosure();
    testServeChecker();
    testLogits();
    if (g_failures)
        std::fprintf(stderr, "selftest: %d failure(s)\n", g_failures);
    return g_failures ? 1 : 0;
}
