/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span is a name, a start, an end and the span that was open when it
 * began (its parent). Spans stay in memory while the workload runs and
 * are written once at the end, as Chrome trace-event JSON that Perfetto
 * (ui.perfetto.dev) and chrome://tracing open directly.
 *
 * Untraced runs pass a null Tracer: every Scope then records nothing
 * and costs one branch, so the end-to-end metrics come from the same
 * code path with tracing off.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <string>
#include <vector>

namespace perfbench
{

/** Monotonic host time in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

class Tracer
{
  public:
    struct Span
    {
        std::string name;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        /** Index of the enclosing span, -1 for a root. */
        int parent = -1;
    };

    /** Open a span under the innermost open one; returns its id. */
    int open(std::string name)
    {
        spans_.push_back({std::move(name), nowNs(), 0, current_});
        current_ = static_cast<int>(spans_.size()) - 1;
        return current_;
    }

    /** Close span @p id (must be the innermost open span). */
    void close(int id)
    {
        spans_[id].endNs = nowNs();
        current_ = spans_[id].parent;
    }

    /** Write every span as a complete ("X") trace event; the parent
     *  name travels in args. Returns false when unwritable. */
    bool writeChromeTrace(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        const std::int64_t origin =
            spans_.empty() ? 0 : spans_.front().startNs;
        out << std::fixed << std::setprecision(3)
            << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
                << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
                << (s.startNs - origin) / 1e3
                << ",\"dur\":" << (s.endNs - s.startNs) / 1e3
                << ",\"args\":{\"parent\":\""
                << (s.parent < 0 ? "" : spans_[s.parent].name) << "\"}}";
        }
        out << "\n]}\n";
        return static_cast<bool>(out);
    }

  private:
    std::vector<Span> spans_;
    int current_ = -1;
};

/** RAII span; measures its own duration whether or not it records. */
class Scope
{
  public:
    Scope(Tracer *tracer, const char *name)
        : tracer_(tracer), id_(tracer ? tracer->open(name) : -1),
          startNs_(nowNs())
    {
    }

    ~Scope() { stop(); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** End the span now; returns its length in seconds. */
    double stop()
    {
        if (endNs_ == 0) {
            endNs_ = nowNs();
            if (tracer_)
                tracer_->close(id_);
        }
        return (endNs_ - startNs_) * 1e-9;
    }

  private:
    Tracer *tracer_;
    int id_;
    std::int64_t startNs_;
    std::int64_t endNs_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
