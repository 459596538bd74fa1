/**
 * @file
 * train_local and train_ps: the paper's A3C setting (2 async agents,
 * Pong, Atari net, FastCpu) in one process, either against the
 * in-process rl::A3cTrainer or through one dist::PsServer and two
 * dist::WorkerRunners over loopback TCP. Each run trains a fixed
 * env-step budget after warm-up; the trainer (or the PS) stops itself
 * when the budget is consumed.
 */

#include <memory>
#include <thread>

#include "checks.hh"
#include "dist/ps_server.hh"
#include "dist/worker_runner.hh"
#include "env/session.hh"
#include "probe.hh"
#include "report.hh"
#include "rl/a3c.hh"
#include "stats.hh"

namespace perfbench {

namespace {

constexpr int kAgents = 2;
constexpr int kStacks = 7;
constexpr std::uint64_t kWarmupSteps = 100;
constexpr std::uint64_t kWarmupSyncs = 3; ///< per agent
/** Written-down env-step rates the step budget is sized from, so a
 * run measures about --seconds on the reference host. */
constexpr double kLocalNominalStepsPerS = 1000.0;
constexpr double kPsNominalStepsPerS = 320.0;
constexpr double kRunTimeoutS = 150.0;
constexpr int kParityFrames = 32;

/** One constructed training stack: the program plus its probes. */
class TrainStack
{
  public:
    virtual ~TrainStack() = default;
    virtual void start() = 0;
    virtual std::uint64_t steps() = 0; ///< thread-safe
    virtual void stop() = 0;           ///< before the budget is consumed
    virtual void join() = 0;
    virtual nn::ParamSet theta() = 0;

    std::vector<std::unique_ptr<TrainProbe>> probes;

    bool
    warmedUp()
    {
        if (steps() < kWarmupSteps)
            return false;
        for (const auto &p : probes)
            if (p->syncs() < kWarmupSyncs)
                return false;
        return true;
    }
};

std::unique_ptr<env::AtariSession>
makeSession(const nn::NetConfig &nc, std::uint64_t seed, TrainProbe &probe)
{
    env::SessionConfig scfg;
    scfg.frameStack = nc.inChannels;
    scfg.obsHeight = nc.inHeight;
    scfg.obsWidth = nc.inWidth;
    return std::make_unique<env::AtariSession>(
        std::make_unique<TimedEnv>(
            env::makeEnvironment(env::GameId::Pong, seed + 11), probe),
        scfg, seed + 13);
}

rl::A3cConfig
a3cConfig(std::uint64_t seed, int agents, std::uint64_t total_steps)
{
    rl::A3cConfig cfg;
    cfg.numAgents = agents;
    cfg.backend = rl::BackendKind::FastCpu;
    cfg.seed = seed;
    cfg.totalSteps = total_steps;
    cfg.async = true;
    return cfg;
}

class LocalStack : public TrainStack
{
  public:
    LocalStack(const nn::A3cNetwork &net, std::uint64_t seed,
               std::uint64_t total_steps)
        : net_(net)
    {
        for (int i = 0; i < kAgents; ++i)
            probes.push_back(std::make_unique<TrainProbe>(false));
        trainer_ = std::make_unique<rl::A3cTrainer>(
            net, a3cConfig(seed, kAgents, total_steps),
            [this](int id) {
                return std::make_unique<TrainBackend>(
                    rl::makeDnnBackend(rl::BackendKind::FastCpu, net_),
                    *probes[static_cast<std::size_t>(id)]);
            },
            [this, seed](int id) {
                return makeSession(net_.config(),
                                   seed * 1000003ull +
                                       static_cast<std::uint64_t>(id),
                                   *probes[static_cast<std::size_t>(id)]);
            });
    }

    ~LocalStack() override
    {
        stop();
        join();
    }

    void
    start() override
    {
        thread_ = std::thread([this] {
            trainer_->run([this] { return stop_.load(); });
        });
    }

    std::uint64_t
    steps() override
    {
        return trainer_->globalParams().globalSteps();
    }

    void stop() override { stop_.store(true); }

    void
    join() override
    {
        if (thread_.joinable())
            thread_.join();
    }

    nn::ParamSet theta() override { return trainer_->globalParams().theta(); }

  private:
    const nn::A3cNetwork &net_;
    std::unique_ptr<rl::A3cTrainer> trainer_;
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

class PsStack : public TrainStack
{
  public:
    static constexpr int kWorkers = 2;

    PsStack(const nn::A3cNetwork &net, std::uint64_t seed,
            std::uint64_t total_steps)
        : net_(net)
    {
        dist::PsServerConfig pcfg;
        pcfg.totalSteps = total_steps;
        pcfg.seed = seed;
        ps_ = std::make_unique<dist::PsServer>(net, pcfg);
        startedPs_ = ps_->start();
        for (int w = 0; w < kWorkers; ++w) {
            probes.push_back(std::make_unique<TrainProbe>(true));
            TrainProbe &probe = *probes.back();
            dist::WorkerConfig wcfg;
            wcfg.port = ps_->port();
            wcfg.name = "w" + std::to_string(w);
            wcfg.a3c = a3cConfig(seed * 31 + static_cast<std::uint64_t>(w),
                                 kAgents / kWorkers, total_steps);
            const std::uint64_t session_seed =
                seed * 1000003ull + static_cast<std::uint64_t>(w);
            workers_.push_back(std::make_unique<dist::WorkerRunner>(
                net, wcfg,
                [this, &probe](int) {
                    return std::make_unique<TrainBackend>(
                        rl::makeDnnBackend(rl::BackendKind::FastCpu, net_),
                        probe);
                },
                [this, &probe, session_seed](int) {
                    return makeSession(net_.config(), session_seed, probe);
                }));
        }
    }

    ~PsStack() override
    {
        stop();
        join();
        ps_->stop();
    }

    bool psStarted() const { return startedPs_; }

    void
    start() override
    {
        for (auto &w : workers_)
            threads_.emplace_back([this, &w] {
                if (!w->run())
                    joinFailed_.store(true);
            });
    }

    std::uint64_t steps() override { return ps_->params().steps(); }

    void
    stop() override
    {
        for (auto &w : workers_)
            w->requestStop();
    }

    void
    join() override
    {
        for (auto &t : threads_)
            if (t.joinable())
                t.join();
    }

    nn::ParamSet
    theta() override
    {
        std::vector<float> flat;
        ps_->params().snapshot(flat);
        nn::ParamSet p = net_.makeParams();
        std::copy(flat.begin(), flat.end(), p.flat().begin());
        return p;
    }

    dist::wire::StatsReply stats() const { return ps_->stats(); }
    bool joinFailed() const { return joinFailed_.load(); }

  private:
    const nn::A3cNetwork &net_;
    std::unique_ptr<dist::PsServer> ps_;
    bool startedPs_ = false;
    std::vector<std::unique_ptr<dist::WorkerRunner>> workers_;
    std::vector<std::thread> threads_;
    std::atomic<bool> joinFailed_{false};
};

std::unique_ptr<TrainStack>
makeStack(bool through_ps, const nn::A3cNetwork &net, std::uint64_t seed,
          std::uint64_t total_steps)
{
    if (through_ps)
        return std::make_unique<PsStack>(net, seed, total_steps);
    return std::make_unique<LocalStack>(net, seed, total_steps);
}

/** Sleep ~1 ms and return how late the wake-up was, in us. */
double
pollTick()
{
    const double t0 = nowUs();
    std::this_thread::sleep_for(std::chrono::microseconds(1000));
    return std::max(0.0, nowUs() - t0 - 1000.0);
}

/** A (time, steps) mark on the measured window. */
struct Mark
{
    double us = 0.0;
    std::uint64_t steps = 0;
};

/** Steps trained in one segment of the measured window. */
struct Segment
{
    double steps = 0.0;
    double us = 0.0;
    bool traced = false;

    double rate() const { return us > 0 ? 1e6 * steps / us : 0.0; }
};

} // namespace

Result
runTrain(const Options &opt, bool through_ps)
{
    Result res;
    const double nominal =
        through_ps ? kPsNominalStepsPerS : kLocalNominalStepsPerS;
    const std::uint64_t budget =
        static_cast<std::uint64_t>(nominal * opt.seconds);
    const nn::A3cNetwork net(
        nn::NetConfig::atari(env::makeEnvironment(env::GameId::Pong, 1)
                                 ->numActions()));

    res.prov("net", "atari (NetConfig::atari, Pong actions)");
    res.prov("params_mb",
             static_cast<double>(net.paramCount()) * 4.0 / 1e6);
    res.prov("agents", kAgents);
    res.prov("topology", through_ps ? "1 PsServer + 2 WorkerRunner x 1 "
                                      "agent, loopback TCP"
                                    : "A3cTrainer, 2 async agents");
    res.prov("backend", "fast");
    res.prov("nominal_steps_per_s", nominal);
    res.prov("step_budget", static_cast<double>(budget));
    res.prov("stacks", kStacks);
    res.prov("warmup_steps", static_cast<double>(kWarmupSteps));

    // The budget is trained on kStacks fresh stacks in turn, each set
    // up and warmed up anew: thread placement (and with it the speed
    // of the loopback exchange) is settled per stack and differs
    // between stacks, so one run averages several placements instead
    // of drawing one. Each stack's window is two segments; the traced
    // run traces the second.
    Tracer &tracer = Tracer::get();
    const bool ps = through_ps;
    const std::uint64_t stack_steps = kWarmupSteps + budget / kStacks;
    const double deadline = nowUs() + kRunTimeoutS * 1e6;
    std::vector<double> setup_s, lag;
    std::vector<Segment> segs;
    std::vector<RoutineRec> routines;
    std::vector<double> stage, fw, bw, env_step, update;
    std::uint64_t attempted = 0, failed = 0;
    bool finished = true;
    const auto frames = seededFrames(net.config(), kParityFrames, opt.seed);
    for (int k = 0; k < kStacks && finished; ++k) {
        g_phase.store(kWarmup);
        const double t0 = nowUs();
        auto stack = makeStack(ps, net, opt.seed + static_cast<std::uint64_t>(k),
                               stack_steps);
        if (ps)
            res.check(static_cast<PsStack &>(*stack).psStarted(),
                      "PsServer failed to start");
        if (!res.correct)
            return res;
        stack->start();
        while (!stack->warmedUp() && nowUs() < deadline)
            pollTick();
        setup_s.push_back((nowUs() - t0) / 1e6);

        dist::wire::StatsReply stats0, stats1;
        if (ps)
            stats0 = stats1 = static_cast<PsStack &>(*stack).stats();
        Mark prev{nowUs(), stack->steps()};
        const std::uint64_t s0 = prev.steps;
        for (int j = 0; j < 2 && nowUs() < deadline; ++j) {
            const bool traced = opt.trace && j == 1;
            g_phase.store(2 * k + j);
            tracer.setOn(traced);
            const std::uint64_t until =
                s0 + (stack_steps - s0) * static_cast<std::uint64_t>(j + 1) / 2;
            Mark m = prev;
            while (m.steps < until && nowUs() < deadline) {
                // PS counters as of the last poll before the budget was
                // reached: pushes after it are refused by design.
                if (ps)
                    stats1 = static_cast<PsStack &>(*stack).stats();
                lag.push_back(pollTick());
                m = {nowUs(), stack->steps()};
            }
            segs.push_back({static_cast<double>(m.steps - prev.steps),
                            m.us - prev.us, traced});
            prev = m;
        }
        tracer.setOn(false);
        g_phase.store(kDone);
        finished = prev.steps >= stack_steps;
        res.check(finished, "step budget not consumed within the timeout");
        if (!finished)
            stack->stop();
        stack->join();

        // --- output checks, per stack ------------------------------
        const std::uint64_t final_steps = stack->steps();
        res.check(final_steps >= stack_steps,
                  "final global steps " + std::to_string(final_steps) +
                      " < budget " + std::to_string(stack_steps));
        if (ps) {
            auto &pst = static_cast<PsStack &>(*stack);
            const auto fin = pst.stats();
            res.check(!pst.joinFailed(), "a worker failed to join the PS");
            res.check(fin.version == fin.pushes,
                      "PS version " + std::to_string(fin.version) +
                          " != accepted pushes " + std::to_string(fin.pushes));
            failed += stats1.pushRejects - stats0.pushRejects;
            attempted += stats1.pushes - stats0.pushes +
                         stats1.pushRejects - stats0.pushRejects;
        }
        const nn::ParamSet theta = stack->theta();
        res.check(allFinite(theta), "final theta has non-finite values");
        const ParityResult parity = greedyParity(net, theta, frames);
        res.check(parity.mismatched == 0,
                  std::to_string(parity.mismatched) +
                      " greedy actions differ between fast and reference");
        res.check(parity.compared >= kParityFrames / 2,
                  "too few well-defined greedy actions to compare");
        res.prov("parity_compared_" + std::to_string(k), parity.compared);
        res.prov("parity_excluded_near_tie_" + std::to_string(k),
                 parity.excluded);

        // --- gather --------------------------------------------------
        for (const auto &p : stack->probes) {
            for (const auto &r : p->routines)
                if (measured(r.segment))
                    routines.push_back(r);
            const auto append = [](std::vector<double> &to,
                                   const std::vector<double> &from) {
                to.insert(to.end(), from.begin(), from.end());
            };
            append(stage, p->stageSamples);
            append(fw, p->fwSamples);
            append(bw, p->bwSamples);
            append(env_step, p->envStepSamples);
            append(update, p->updateSamples);
        }
    }
    if (!ps)
        attempted = routines.size();

    std::vector<double> routine_ms, update_ms;
    for (const auto &r : routines) {
        routine_ms.push_back(r.totalUs / 1e3);
        update_ms.push_back(r.updateUs / 1e3);
    }
    const Summary rs = summarize(routine_ms);
    res.attempted = std::max<std::uint64_t>(attempted, 1);
    res.failed = failed;
    const double fail_pct =
        100.0 * static_cast<double>(failed) /
        static_cast<double>(res.attempted);

    auto &M = res.metrics;
    // Steps/s per stack (its two segments), then the median over
    // stacks: a stack whose threads landed on a fast placement moves
    // the figure no further than a slow one does.
    std::vector<double> seg_rates, stack_rates;
    for (std::size_t i = 0; i < segs.size(); ++i) {
        seg_rates.push_back(segs[i].rate());
        if (i % 2 == 1)
            stack_rates.push_back(
                Segment{segs[i - 1].steps + segs[i].steps,
                        segs[i - 1].us + segs[i].us}
                    .rate());
    }
    const double ips = finished ? median(stack_rates) : 0.0;
    M["setup_s"] = median(setup_s);
    M["rss_mb"] = peakRssMb();
    M["ok_pct"] = 100.0 - fail_pct;
    M["ips"] = ips;
    M["latency_p50_ms"] = rs.p50;
    M["latency_p99_ms"] = rs.p99;
    M["param_update_p50_ms"] = median(update_ms);
    res.check(rs.p99Valid, "fewer than " +
                               std::to_string(100 * kTailMinBeyond) +
                               " routines for a routine p99 (got " +
                               std::to_string(rs.n) + ")");
    res.prov("train_steps_per_s", ips);
    res.prov("segment_steps_per_s", seg_rates);
    res.prov("routine_p50_ms", rs.p50);
    res.prov("routine_p99_ms", rs.p99);
    res.prov("routine_samples", static_cast<double>(rs.n));
    res.prov("fail_pct", fail_pct);

    if (!opt.trace)
        return res;

    // --- traced run: per-layer ledger ------------------------------
    double total = 0, t_stage = 0, t_fw = 0, t_bw = 0, t_env = 0,
           t_update = 0;
    for (const auto &r : routines) {
        if (!r.traced)
            continue;
        total += r.totalUs;
        t_stage += r.stageUs;
        t_fw += r.fwUs;
        t_bw += r.bwUs;
        t_env += r.envUs;
        t_update += r.updateUs;
    }
    const Closure c = closeLedger(
        {{"env", t_env},
         {"nn", t_fw + t_bw},
         {"rl", t_stage + (ps ? 0.0 : t_update)},
         {"dist", ps ? t_update : 0.0},
         {"serve", 0.0}},
        total);
    for (const auto &[layer, pct] : c.sharePct)
        M[layer + ".share_pct"] = pct;
    M["unattributed_pct"] = c.unattributedPct;
    M["env.step_us_p50"] = median(env_step);
    M["nn.fw_us_p50"] = median(fw);
    M["nn.bw_us_p50"] = median(bw);
    M["rl.stage_us_p50"] = median(stage);
    const Summary us = summarize(update);
    M["rl.update_us_p50"] = us.p50;
    M["rl.update_us_p99"] = us.p99;
    if (ps) {
        const double pushes = static_cast<double>(attempted);
        M["dist.pushes"] = pushes;
        M["dist.push_reject_pct"] = fail_pct;
        M["dist.push_bytes"] =
            pushes * static_cast<double>(net.paramCount()) * sizeof(float);
    }
    M["fail_pct"] = fail_pct;
    M["gen.lag_us_p99"] = summarize(lag).p99;

    // Overhead: untraced vs traced segment step rates.
    double u_steps = 0, u_us = 0, t_steps = 0, t_us = 0;
    for (const Segment &g : segs) {
        (g.traced ? t_steps : u_steps) += g.steps;
        (g.traced ? t_us : u_us) += g.us;
    }
    if (u_us > 0 && t_us > 0 && u_steps > 0) {
        const double u_rate = u_steps / u_us, t_rate = t_steps / t_us;
        M["trace_overhead_pct"] = 100.0 * (u_rate - t_rate) / u_rate;
    }
    res.prov("traced_routines", static_cast<double>(us.n));
    res.prov("rl.update_us_p99_valid", us.p99Valid ? 1.0 : 0.0);
    return res;
}

} // namespace perfbench
