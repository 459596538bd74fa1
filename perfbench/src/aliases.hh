/**
 * @file
 * Short names for the program's namespaces inside perfbench.
 */

#ifndef PERFBENCH_ALIASES_HH
#define PERFBENCH_ALIASES_HH

namespace fa3c::dist {}
namespace fa3c::env {}
namespace fa3c::nn {}
namespace fa3c::rl {}
namespace fa3c::serve {}
namespace fa3c::sim {}
namespace fa3c::tensor {}

namespace perfbench {
namespace dist = fa3c::dist;
namespace env = fa3c::env;
namespace nn = fa3c::nn;
namespace rl = fa3c::rl;
namespace serve = fa3c::serve;
namespace sim = fa3c::sim;
namespace tensor = fa3c::tensor;
} // namespace perfbench

#endif // PERFBENCH_ALIASES_HH
