#include "checks.hh"

#include <cmath>
#include <limits>

#include "env/environment.hh"
#include "env/session.hh"
#include "rl/backend.hh"
#include "sim/rng.hh"

namespace perfbench {

int
argmax(std::span<const float> logits)
{
    int best = 0;
    for (std::size_t i = 1; i < logits.size(); ++i)
        if (logits[i] > logits[static_cast<std::size_t>(best)])
            best = static_cast<int>(i);
    return best;
}

float
top2Margin(std::span<const float> logits)
{
    float first = -std::numeric_limits<float>::infinity();
    float second = first;
    for (float v : logits) {
        if (v > first) {
            second = first;
            first = v;
        } else if (v > second) {
            second = v;
        }
    }
    return first - second;
}

std::vector<tensor::Tensor>
seededFrames(const nn::NetConfig &nc, int count, std::uint64_t seed)
{
    env::SessionConfig scfg;
    scfg.frameStack = nc.inChannels;
    scfg.obsHeight = nc.inHeight;
    scfg.obsWidth = nc.inWidth;
    env::AtariSession session(
        env::makeEnvironment(env::GameId::Pong, seed * 7919 + 3), scfg,
        seed * 104729 + 5);
    sim::Rng rng(seed ^ 0xF4A3C0DEull);
    std::vector<tensor::Tensor> frames;
    for (int i = 0; i < count; ++i) {
        // A few steps apart, so frames differ.
        for (int k = 0; k < 3; ++k)
            session.act(static_cast<int>(rng.uniformInt(
                static_cast<std::uint32_t>(session.numActions()))));
        frames.push_back(session.observation());
    }
    return frames;
}

ParityResult
greedyParity(const nn::A3cNetwork &net, const nn::ParamSet &params,
             const std::vector<tensor::Tensor> &frames)
{
    auto ref = rl::makeDnnBackend(rl::BackendKind::Reference, net);
    auto fast = rl::makeDnnBackend(rl::BackendKind::FastCpu, net);
    ref->onParamSync(params);
    fast->onParamSync(params);
    auto ref_act = net.makeActivations();
    auto fast_act = net.makeActivations();
    ParityResult r;
    for (const auto &obs : frames) {
        ref->forward(params, obs, ref_act);
        fast->forward(params, obs, fast_act);
        const auto ref_logits = net.policyLogits(ref_act);
        if (top2Margin(ref_logits) < kMinMargin) {
            ++r.excluded;
            continue;
        }
        ++r.compared;
        if (argmax(ref_logits) != argmax(net.policyLogits(fast_act)))
            ++r.mismatched;
    }
    return r;
}

bool
allFinite(const nn::ParamSet &params)
{
    for (float v : params.flat())
        if (!std::isfinite(v))
            return false;
    return true;
}

ServeChecker::ServeChecker(std::vector<std::array<int, 2>> ref_actions,
                           int connections)
    : ref_(std::move(ref_actions)),
      lastVersion_(static_cast<std::size_t>(connections), 0)
{
}

bool
ServeChecker::check(int conn, std::size_t obs_index,
                    const serve::Response &resp, std::string *why)
{
    if (resp.status != serve::Status::Ok)
        return true;
    const auto fail = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };
    std::uint64_t &last = lastVersion_.at(static_cast<std::size_t>(conn));
    if (resp.modelVersion == 0)
        return fail("Ok response without a model version");
    if (resp.modelVersion < last)
        return fail("model version went backwards on connection " +
                    std::to_string(conn) + ": " + std::to_string(last) +
                    " -> " + std::to_string(resp.modelVersion));
    last = resp.modelVersion;
    if (obs_index >= ref_.size())
        return fail("response for an unknown observation");
    const int set = static_cast<int>((resp.modelVersion - 1) % 2);
    const int want = ref_[obs_index][static_cast<std::size_t>(set)];
    if (resp.action != want)
        return fail("observation " + std::to_string(obs_index) +
                    " under version " +
                    std::to_string(resp.modelVersion) + ": action " +
                    std::to_string(resp.action) + ", reference " +
                    std::to_string(want));
    return true;
}

} // namespace perfbench
