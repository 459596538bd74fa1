/**
 * @file
 * Measuring decorators passed through the program's factory seams.
 * They wrap a real rl::DnnBackend or env::Environment, forward every
 * call unchanged, and time it from outside: routine boundaries are
 * always recorded (the end-to-end metrics need them); per-call samples
 * and spans only while the routine or batch is traced.
 */

#ifndef PERFBENCH_PROBE_HH
#define PERFBENCH_PROBE_HH

#include <atomic>
#include <memory>
#include <vector>

#include "env/environment.hh"
#include "rl/backend.hh"
#include "aliases.hh"
#include "trace.hh"

namespace perfbench {

/**
 * Measurement phase shared by the measuring loop and the decorators:
 * warm-up, then numbered segments of the measured window, then done. Work is
 * attributed to the phase in force when its routine or batch began.
 */
inline constexpr int kWarmup = -1;
inline constexpr int kDone = 1000;
inline std::atomic<int> g_phase{kWarmup};

inline int
phase()
{
    return g_phase.load(std::memory_order_relaxed);
}

inline bool
measured(int segment)
{
    return segment >= 0 && segment < kDone;
}

/** Emit a span now that its interval is known (when @p on). */
inline void
emitSpan(bool on, const char *name, const char *layer, double t0,
         double t1, std::uint64_t group, std::uint64_t parent)
{
    if (!on)
        return;
    Span s;
    s.name = name;
    s.layer = layer;
    s.startUs = t0;
    s.durUs = t1 - t0;
    s.id = Tracer::get().newId();
    s.parent = parent;
    s.group = group;
    Tracer::get().record(s);
}

/** One A3C routine: parameter sync to the next parameter sync. */
struct RoutineRec
{
    int segment = kWarmup;
    bool traced = false;
    double startUs = 0.0;
    double totalUs = 0.0;
    double stageUs = 0.0;  ///< onParamSync
    double fwUs = 0.0;     ///< every forward
    double bwUs = 0.0;     ///< every backward (BW + GC)
    double envUs = 0.0;    ///< every Environment call
    double updateUs = 0.0; ///< end of last backward -> next sync
};

/**
 * Per-agent routine ledger. Written only by the agent's own thread
 * (the environment is also stepped there); read by the measuring loop after
 * that thread has ended, except syncs(), which is atomic.
 */
class TrainProbe
{
  public:
    /** @param remote the update interval is a PS exchange (layer
     * "dist") rather than the in-process RMSProp (layer "rl"). */
    explicit TrainProbe(bool remote) : remote_(remote) {}

    void
    syncStart(double t)
    {
        if (open_)
            closeRoutine(t);
        open_ = true;
        envPending_ = 0.0;
        cur_ = RoutineRec{};
        cur_.startUs = t;
        cur_.segment = phase();
        cur_.traced = Tracer::get().on() && measured(cur_.segment);
        routineSpan_ = cur_.traced ? Tracer::get().newId() : 0;
        syncs_.fetch_add(1, std::memory_order_relaxed);
    }

    void
    syncEnd(double t0, double t1)
    {
        cur_.stageUs += t1 - t0;
        if (cur_.traced)
            stageSamples.push_back(t1 - t0);
        emitSpan(cur_.traced, "rl.stage", "rl", t0, t1, routineSpan_,
                 routineSpan_);
    }

    void
    forward(double t0, double t1)
    {
        flushEnvStep();
        cur_.fwUs += t1 - t0;
        if (cur_.traced)
            fwSamples.push_back(t1 - t0);
        emitSpan(cur_.traced, "nn.forward", "nn", t0, t1, routineSpan_,
                 routineSpan_);
    }

    void
    backward(double t0, double t1)
    {
        flushEnvStep();
        cur_.bwUs += t1 - t0;
        lastBwEnd_ = t1;
        if (cur_.traced)
            bwSamples.push_back(t1 - t0);
        emitSpan(cur_.traced, "nn.backward", "nn", t0, t1, routineSpan_,
                 routineSpan_);
    }

    void
    envCall(const char *name, double t0, double t1)
    {
        if (!open_)
            return; // construction-time reset, before any routine
        cur_.envUs += t1 - t0;
        envPending_ += t1 - t0;
        emitSpan(cur_.traced, name, "env", t0, t1, routineSpan_,
                 routineSpan_);
    }

    std::uint64_t
    syncs() const
    {
        return syncs_.load(std::memory_order_relaxed);
    }

    /** Closed routines, in order. */
    std::vector<RoutineRec> routines;
    /** Per-call samples of traced routines, microseconds. */
    std::vector<double> stageSamples, fwSamples, bwSamples, envStepSamples,
        updateSamples;

  private:
    bool remote_;
    bool open_ = false;
    RoutineRec cur_;
    std::uint64_t routineSpan_ = 0;
    double lastBwEnd_ = 0.0;
    double envPending_ = 0.0;
    std::atomic<std::uint64_t> syncs_{0};

    /** Environment time since the previous forward is one agent step. */
    void
    flushEnvStep()
    {
        if (envPending_ > 0.0 && cur_.traced)
            envStepSamples.push_back(envPending_);
        envPending_ = 0.0;
    }

    void
    closeRoutine(double t)
    {
        cur_.totalUs = t - cur_.startUs;
        if (lastBwEnd_ >= cur_.startUs) {
            cur_.updateUs = t - lastBwEnd_;
            if (cur_.traced)
                updateSamples.push_back(cur_.updateUs);
            emitSpan(cur_.traced, remote_ ? "dist.exchange" : "rl.update",
                     remote_ ? "dist" : "rl", lastBwEnd_, t, routineSpan_,
                     routineSpan_);
        }
        if (cur_.traced) {
            Span root;
            root.name = "rl.routine";
            root.layer = "rl";
            root.startUs = cur_.startUs;
            root.durUs = cur_.totalUs;
            root.id = routineSpan_;
            root.group = routineSpan_;
            Tracer::get().record(root);
        }
        routines.push_back(cur_);
    }
};

/** DnnBackend decorator feeding a TrainProbe. */
class TrainBackend : public rl::DnnBackend
{
  public:
    TrainBackend(std::unique_ptr<rl::DnnBackend> inner, TrainProbe &probe)
        : inner_(std::move(inner)), probe_(probe)
    {
    }

    const nn::A3cNetwork &network() const override
    {
        return inner_->network();
    }

    void
    onParamSync(const nn::ParamSet &params) override
    {
        const double t0 = nowUs();
        probe_.syncStart(t0);
        inner_->onParamSync(params);
        probe_.syncEnd(t0, nowUs());
    }

    void
    forward(const nn::ParamSet &params, const tensor::Tensor &obs,
            nn::A3cNetwork::Activations &act) override
    {
        const double t0 = nowUs();
        inner_->forward(params, obs, act);
        probe_.forward(t0, nowUs());
    }

    void
    backward(const nn::ParamSet &params,
             const nn::A3cNetwork::Activations &act,
             const tensor::Tensor &g_out, nn::ParamSet &grads) override
    {
        const double t0 = nowUs();
        inner_->backward(params, act, g_out, grads);
        probe_.backward(t0, nowUs());
    }

  private:
    std::unique_ptr<rl::DnnBackend> inner_;
    TrainProbe &probe_;
};

/** Environment decorator feeding a TrainProbe. */
class TimedEnv : public env::Environment
{
  public:
    TimedEnv(std::unique_ptr<env::Environment> inner, TrainProbe &probe)
        : inner_(std::move(inner)), probe_(probe)
    {
    }

    int numActions() const override { return inner_->numActions(); }

    void
    reset() override
    {
        const double t0 = nowUs();
        inner_->reset();
        probe_.envCall("env.reset", t0, nowUs());
    }

    env::StepResult
    step(int action) override
    {
        const double t0 = nowUs();
        const env::StepResult r = inner_->step(action);
        probe_.envCall("env.step", t0, nowUs());
        return r;
    }

    void
    render(env::Frame &frame) const override
    {
        const double t0 = nowUs();
        inner_->render(frame);
        probe_.envCall("env.render", t0, nowUs());
    }

    const char *name() const override { return inner_->name(); }

    bool
    archiveState(sim::StateArchive &ar) override
    {
        return inner_->archiveState(ar);
    }

  private:
    std::unique_ptr<env::Environment> inner_;
    TrainProbe &probe_;
};

/** One forwardBatch call of a serving worker. */
struct BatchRec
{
    int segment = kWarmup;
    bool traced = false;
    double startUs = 0.0;
    double durUs = 0.0;
    int size = 0;
};

/** Per-worker serving ledger (written by its scheduler worker). */
struct ServeProbe
{
    std::vector<BatchRec> batches;
    /** Parameter stagings as (phase, duration us). */
    std::vector<std::pair<int, double>> stages;
};

/** DnnBackend decorator for a serving worker. */
class ServeBackend : public rl::DnnBackend
{
  public:
    ServeBackend(std::unique_ptr<rl::DnnBackend> inner, ServeProbe &probe)
        : inner_(std::move(inner)), probe_(probe)
    {
    }

    const nn::A3cNetwork &network() const override
    {
        return inner_->network();
    }

    void
    onParamSync(const nn::ParamSet &params) override
    {
        const int seg = phase();
        const double t0 = nowUs();
        inner_->onParamSync(params);
        const double t1 = nowUs();
        probe_.stages.emplace_back(seg, t1 - t0);
        emitSpan(Tracer::get().on(), "rl.stage", "rl", t0, t1, 0, 0);
    }

    void
    forward(const nn::ParamSet &params, const tensor::Tensor &obs,
            nn::A3cNetwork::Activations &act) override
    {
        inner_->forward(params, obs, act);
    }

    void
    backward(const nn::ParamSet &params,
             const nn::A3cNetwork::Activations &act,
             const tensor::Tensor &g_out, nn::ParamSet &grads) override
    {
        inner_->backward(params, act, g_out, grads);
    }

    void
    forwardBatch(const nn::ParamSet &params,
                 std::span<const tensor::Tensor *const> obs,
                 std::span<nn::A3cNetwork::Activations *const> acts)
        override
    {
        BatchRec b;
        b.segment = phase();
        b.traced = Tracer::get().on();
        b.size = static_cast<int>(obs.size());
        b.startUs = nowUs();
        inner_->forwardBatch(params, obs, acts);
        b.durUs = nowUs() - b.startUs;
        probe_.batches.push_back(b);
        emitSpan(b.traced, "nn.forward_batch", "nn", b.startUs,
                 b.startUs + b.durUs, 0, 0);
    }

  private:
    std::unique_ptr<rl::DnnBackend> inner_;
    ServeProbe &probe_;
};

} // namespace perfbench

#endif // PERFBENCH_PROBE_HH
