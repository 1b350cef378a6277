#pragma once

/**
 * @file
 * In-memory span recorder for the traced run. A span wraps one call
 * the driver makes into a layer of the program (name, layer, start,
 * end, parent, and the digest of the job it serves, if any). Spans
 * are kept in memory and written out once, at the end, as Chrome
 * trace-event JSON. Without an active tracer (the timed runs) a Span
 * costs one pointer load.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord
{
    std::uint64_t id = 0;      ///< 1-based
    std::uint64_t parent = 0;  ///< 0: no enclosing span
    std::string name;          ///< the call, e.g. "ResultStore::put"
    std::string layer;         ///< the module, e.g. "sim.resultstore"
    std::string job;           ///< digest of the job served, or empty
    std::uint64_t thread = 0;  ///< small per-thread number
    double start = 0.0;        ///< seconds since the tracer started
    double end = 0.0;
};

/** Per-layer totals over a set of spans. */
struct LayerTotals
{
    double selfSeconds = 0.0;   ///< span time not covered by children
    double totalSeconds = 0.0;
    std::uint64_t calls = 0;
};

class Tracer
{
  public:
    Tracer();
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    std::uint64_t begin(const char *name, const char *layer,
                        std::string job, std::uint64_t parent);
    void end(std::uint64_t id);

    /** A copy of every span recorded so far. */
    std::vector<SpanRecord> spans() const;

    /** Self time, total time and calls per layer. A span's self time
     *  is its duration minus that of its direct children (children
     *  nest inside their parent on the same thread). */
    std::map<std::string, LayerTotals> layerTotals() const;

    /** Durations (seconds) of every span called @p name; only those
     *  directly under a span called @p parent, if one is given. */
    std::vector<double> durations(const std::string &name,
                                  const std::string &parent = {}) const;

    /** Write the spans as Chrome trace-event JSON; false on I/O
     *  failure. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::chrono::steady_clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;  ///< guarded by mutex_
};

/** Install @p t as the active tracer (nullptr: tracing off). */
void setTracer(Tracer *t);

/** RAII span around one call into a layer; a no-op when no tracer
 *  is active. */
class Span
{
  public:
    Span(const char *name, const char *layer, std::string job = {});
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *tracer_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
};

} // namespace perfbench
