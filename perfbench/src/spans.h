/**
 * @file
 * In-memory span recorder for the traced benchmark run.  Spans are
 * recorded from the benchmark's own code around calls into the
 * simulator's public API, kept in memory, and written once at the end
 * as Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
 */

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder
{
  public:
    /** Disabled recorders hand out no-op scopes. */
    explicit SpanRecorder(bool enabled);

    /** Index of an open span; -1 when recording is off. */
    using SpanId = int;

    /**
     * Open a span.  @p parent is the span that caused it (-1 for a
     * root); @p group ties together the spans of one repetition.
     */
    SpanId begin(const std::string &name, SpanId parent, int group);
    void end(SpanId id);

    /** RAII wrapper around begin()/end(). */
    class Scope
    {
      public:
        Scope(SpanRecorder &rec, const std::string &name,
              SpanId parent = -1, int group = -1)
            : rec_(rec), id_(rec.begin(name, parent, group))
        {
        }
        ~Scope() { rec_.end(id_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        SpanId id() const { return id_; }

      private:
        SpanRecorder &rec_;
        SpanId id_;
    };

    /**
     * Self time per span name in seconds: each span's duration minus
     * the part of it its child spans cover.
     */
    std::map<std::string, double> selfSeconds() const;

    /** Write the spans plus @p metadata (a JSON object) to @p path;
     *  false on I/O failure. */
    bool writeChromeJson(const std::string &path,
                         const std::string &metadata) const;

  private:
    struct Span {
        std::string name;
        SpanId parent = -1;
        int group = -1;
        double startUs = 0.0;
        double endUs = 0.0;
    };

    bool enabled_;
    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;

    double nowUs() const;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
