#include "trace.hh"

#include <cstdio>

namespace perfbench {

namespace {

const Clock::time_point kEpoch = Clock::now();

} // namespace

double
toUs(Clock::time_point t)
{
    return std::chrono::duration<double, std::micro>(t - kEpoch).count();
}

double
nowUs()
{
    return toUs(Clock::now());
}

Tracer &
Tracer::get()
{
    static Tracer tracer;
    return tracer;
}

Tracer::Buffer &
Tracer::threadBuffer()
{
    // Buffers are owned by the tracer and outlive their threads, so
    // the cached pointer stays valid for the life of the process.
    thread_local Buffer *buf = nullptr;
    if (!buf) {
        std::lock_guard<std::mutex> lock(mutex_);
        buffers_.push_back(std::make_unique<Buffer>());
        buf = buffers_.back().get();
        buf->tid = static_cast<int>(buffers_.size());
        buf->spans.reserve(1 << 14);
    }
    return *buf;
}

void
Tracer::record(const Span &s)
{
    threadBuffer().spans.push_back(s);
}

std::size_t
Tracer::spanCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const auto &b : buffers_)
        n += b->spans.size();
    return n;
}

bool
Tracer::writeChromeJson(const std::string &path,
                        const std::string &processName) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::lock_guard<std::mutex> lock(mutex_);
    std::fprintf(f,
                 "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
                 "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,"
                 "\"tid\":0,\"args\":{\"name\":\"%s\"}}",
                 processName.c_str());
    for (const auto &b : buffers_)
        for (const Span &s : b->spans)
            std::fprintf(f,
                         ",\n{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"%s\","
                         "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                         "\"args\":{\"id\":%llu,\"parent\":%llu,"
                         "\"group\":%llu}}",
                         s.name, s.layer, b->tid, s.startUs, s.durUs,
                         static_cast<unsigned long long>(s.id),
                         static_cast<unsigned long long>(s.parent),
                         static_cast<unsigned long long>(s.group));
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
