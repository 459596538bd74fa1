/**
 * @file
 * Span recorder for the traced run. Spans are written by the
 * benchmark's own decorators around calls into the program's public
 * layers; they stay in per-thread memory while the run is measured and
 * are written once at exit as Chrome trace-event JSON (Perfetto opens
 * it). Nothing is recorded while tracing is switched off, so untraced
 * segments pay one relaxed load per boundary.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Microseconds since the benchmark process started. */
double nowUs();

/** Microseconds of @p t on the nowUs() scale. */
double toUs(Clock::time_point t);

/** One completed call at a layer boundary. */
struct Span
{
    const char *name = "";   ///< boundary, e.g. "nn.forward"
    const char *layer = "";  ///< env | nn | rl | dist | serve | client
    double startUs = 0.0;
    double durUs = 0.0;
    std::uint64_t id = 0;     ///< this span
    std::uint64_t parent = 0; ///< span that caused it (0 = root)
    std::uint64_t group = 0;  ///< routine or request it belongs to
};

class Tracer
{
  public:
    /** The process-wide recorder. */
    static Tracer &get();

    bool on() const { return on_.load(std::memory_order_relaxed); }
    void setOn(bool on) { on_.store(on, std::memory_order_relaxed); }

    /** Fresh span / group identifier (never 0). */
    std::uint64_t newId()
    {
        return nextId_.fetch_add(1, std::memory_order_relaxed);
    }

    /** Append to the calling thread's buffer; callers check on(). */
    void record(const Span &s);

    /** Spans recorded so far. Call only once recording threads ended. */
    std::size_t spanCount() const;

    /**
     * Write every span as Chrome trace-event JSON. Call only after
     * every recording thread has ended. @return false on I/O error.
     */
    bool writeChromeJson(const std::string &path,
                         const std::string &processName) const;

  private:
    struct Buffer
    {
        int tid = 0;
        std::vector<Span> spans;
    };

    std::atomic<bool> on_{false};
    std::atomic<std::uint64_t> nextId_{1};
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Buffer>> buffers_;

    Buffer &threadBuffer();
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
