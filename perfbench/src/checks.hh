/**
 * @file
 * Output checks that fail a run: greedy-action parity of trained
 * parameters between the fast and reference backends, and per-response
 * checks of served actions and model versions.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "nn/a3c_network.hh"
#include "nn/params.hh"
#include "serve/request.hh"
#include "aliases.hh"
#include "tensor/tensor.hh"

namespace perfbench {

/** Index of the largest logit (first on ties). */
int argmax(std::span<const float> logits);

/** Gap between the largest and second-largest logit. */
float top2Margin(std::span<const float> logits);

/**
 * Smallest reference top-2 logit gap at which a greedy action is
 * well-defined across backends: the fast kernels reassociate sums, so
 * logits closer than this may legitimately order differently.
 */
inline constexpr float kMinMargin = 1e-4f;

/** Observations from a seeded Pong session played with seeded actions. */
std::vector<tensor::Tensor> seededFrames(const nn::NetConfig &nc, int count,
                                         std::uint64_t seed);

struct ParityResult
{
    int compared = 0;   ///< frames with a well-defined greedy action
    int excluded = 0;   ///< reference margin below kMinMargin
    int mismatched = 0; ///< fast argmax != reference argmax
};

/** Greedy actions of @p params under FastCpu vs Reference. */
ParityResult greedyParity(const nn::A3cNetwork &net,
                          const nn::ParamSet &params,
                          const std::vector<tensor::Tensor> &frames);

/** Whether every parameter is finite. */
bool allFinite(const nn::ParamSet &params);

/**
 * Checks served responses against reference actions. Parameter sets
 * are published alternately starting with A, so model version v was
 * built from set (v - 1) % 2.
 */
class ServeChecker
{
  public:
    /** @param ref_actions per observation: reference action under
     * set A ([0]) and set B ([1]). */
    ServeChecker(std::vector<std::array<int, 2>> ref_actions,
                 int connections);

    /**
     * Check one response in its connection's arrival order. Non-Ok
     * responses carry no action and pass; they count as failures
     * elsewhere. @return false (with @p why) on a wrong action, an
     * unknown version, or a version older than the connection's last.
     */
    bool check(int conn, std::size_t obs_index,
               const serve::Response &resp, std::string *why);

  private:
    std::vector<std::array<int, 2>> ref_;
    std::vector<std::uint64_t> lastVersion_;
};

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
