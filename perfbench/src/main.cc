/**
 * @file
 * perfbench: one workload per process.
 *
 *   perfbench --workload <train_local|train_ps|serve_open|serve_publish>
 *             --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
 *
 * Prints a provenance line, then, as the last line of stdout, one JSON
 * object {correct, attempted, failed, metrics}: the end-to-end metrics
 * with --trace 0, the per-layer ledger with --trace 1 (which also
 * writes <out>/trace-<workload>-<seed>.json for Perfetto).
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "nn/kernels/dispatch.hh"
#include "nn/kernels/threadpool.hh"
#include "obs/host_info.hh"
#include "report.hh"
#include "trace.hh"

namespace {

using perfbench::Options;
using perfbench::Result;

struct MetricDef
{
    const char *name;
    const char *unit;
};

// Kept in step with BENCHMARK.json (run.py checks). The p99 and
// parameter-update timings are reported with the traced run instead of
// gated: on a shared 4-core host their run-to-run spread exceeds any
// bound the benchmark may set.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"rss_mb", "MiB"},
    {"ok_pct", "%"},
    {"ips", "1/s"},
    {"latency_p50_ms", "ms"},
};

constexpr MetricDef kPerLayer[] = {
    {"latency_p99_ms", "ms"},
    {"param_update_p50_ms", "ms"},
    {"env.step_us_p50", "us"},
    {"nn.fw_us_p50", "us"},
    {"nn.bw_us_p50", "us"},
    {"rl.stage_us_p50", "us"},
    {"rl.update_us_p50", "us"},
    {"rl.update_us_p99", "us"},
    {"dist.pushes", "count"},
    {"dist.push_reject_pct", "%"},
    {"dist.push_bytes", "B"},
    {"serve.wire_us_p50", "us"},
    {"serve.wire_us_p99", "us"},
    {"serve.queue_us_p50", "us"},
    {"serve.queue_us_p99", "us"},
    {"nn.fw_batch_us_p50", "us"},
    {"nn.fw_batch_us_per_req", "us"},
    {"serve.batch_mean", "count"},
    {"serve.batch_fill_pct", "%"},
    {"serve.shed_pct", "%"},
    {"serve.reject_pct", "%"},
    {"serve.timeout_pct", "%"},
    {"serve.stages_per_publish", "count"},
    {"serve.publish_us_p99", "us"},
    {"env.share_pct", "%"},
    {"nn.share_pct", "%"},
    {"rl.share_pct", "%"},
    {"dist.share_pct", "%"},
    {"serve.share_pct", "%"},
    {"unattributed_pct", "%"},
    {"fail_pct", "%"},
    {"gen.lag_us_p99", "us"},
    {"trace_overhead_pct", "%"},
};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<train_local|train_ps|serve_open|serve_publish> "
                 "--seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n",
                 why);
    return 2;
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *val = argv[i + 1];
        if (key == "--workload")
            opt.workload = val;
        else if (key == "--seed")
            opt.seed = std::strtoull(val, nullptr, 10);
        else if (key == "--seconds")
            opt.seconds = std::strtod(val, nullptr);
        else if (key == "--trace")
            opt.trace = std::string(val) == "1";
        else if (key == "--out")
            opt.outDir = val;
        else
            return usage(("unknown option " + key).c_str());
    }
    if (argc % 2 == 0)
        return usage("options come in pairs");
    if (!(opt.seconds > 0 && opt.seconds <= 60))
        return usage("--seconds must be in (0, 60]");

    Result res;
    if (opt.workload == "train_local")
        res = perfbench::runTrain(opt, false);
    else if (opt.workload == "train_ps")
        res = perfbench::runTrain(opt, true);
    else if (opt.workload == "serve_open")
        res = perfbench::runServe(opt, false);
    else if (opt.workload == "serve_publish")
        res = perfbench::runServe(opt, true);
    else
        return usage("unknown workload");

    if (opt.trace) {
        const std::string path = opt.outDir + "/trace-" + opt.workload +
                                 "-" + std::to_string(opt.seed) + ".json";
        const bool ok = perfbench::Tracer::get().writeChromeJson(
            path, "perfbench " + opt.workload);
        res.check(ok, "could not write " + path);
        res.prov("trace_file", path);
        res.prov("trace_spans", static_cast<double>(
                                    perfbench::Tracer::get().spanCount()));
    }

    const auto &host = fa3c::obs::hostInfo();
    res.prov("workload", opt.workload);
    res.prov("seed", static_cast<double>(opt.seed));
    res.prov("seconds", opt.seconds);
    res.prov("trace", opt.trace ? 1.0 : 0.0);
    res.prov("cpu_model", host.cpuModel);
    res.prov("cores", static_cast<double>(std::thread::hardware_concurrency()));
    res.prov("kernel_isa", fa3c::nn::kernels::isaName());
    res.prov("kernel_pool_width", fa3c::nn::kernels::kernelThreads());

    std::string prov = "{";
    for (std::size_t i = 0; i < res.provenance.size(); ++i)
        prov += (i ? ", \"" : "\"") + res.provenance[i].first +
                "\": " + res.provenance[i].second;
    std::printf("provenance %s}\n", prov.c_str());
    std::string metrics;
    auto emit = [&](const MetricDef &d) {
        const auto it = res.metrics.find(d.name);
        const double v = it == res.metrics.end() ? 0.0 : it->second;
        metrics += (metrics.empty() ? "\"" : ", \"") +
                   std::string(d.name) + "\": {\"value\": " + num(v) +
                   ", \"unit\": \"" + d.unit + "\"}";
    };
    if (opt.trace) {
        for (const auto &d : kPerLayer)
            emit(d);
    } else {
        for (const auto &d : kEndToEnd) {
            if (!res.metrics.count(d.name))
                res.check(false, std::string("metric not measured: ") +
                                     d.name);
            emit(d);
        }
    }
    for (const auto &e : res.errors)
        std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                res.correct ? "true" : "false",
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed),
                metrics.c_str());
    std::fflush(stdout);
    return 0;
}
