/**
 * @file
 * What one benchmark run hands back to main(): metric values by name,
 * the output-check verdict, operation counts and provenance.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = "."; ///< where the trace file is written
};

struct Result
{
    std::map<std::string, double> metrics;
    bool correct = true;
    std::vector<std::string> errors;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Provenance as key -> JSON literal. */
    std::vector<std::pair<std::string, std::string>> provenance;

    /** Record an output check; a false @p ok fails the run. */
    void
    check(bool ok, const std::string &what)
    {
        if (!ok) {
            correct = false;
            errors.push_back(what);
        }
    }

    void
    prov(const std::string &key, double v)
    {
        provenance.emplace_back(key, std::to_string(v));
    }

    void
    prov(const std::string &key, const std::vector<double> &v)
    {
        std::string list = "[";
        for (std::size_t i = 0; i < v.size(); ++i)
            list += (i ? ", " : "") + std::to_string(v[i]);
        provenance.emplace_back(key, list + "]");
    }

    void
    prov(const std::string &key, const std::string &v)
    {
        std::string q = "\"";
        for (char c : v)
            q += (c == '"' || c == '\\') ? '_' : c;
        provenance.emplace_back(key, q + "\"");
    }
};

Result runTrain(const Options &opt, bool through_ps);
Result runServe(const Options &opt, bool publishing);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
