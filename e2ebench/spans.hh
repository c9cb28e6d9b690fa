/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * Spans are recorded by the benchmark around its calls into the
 * library's public entry points; nothing inside src/ is instrumented.
 * A span's layer is its name up to the first '.', e.g. "hb.build" is
 * layer "hb".  Spans are kept in memory and written out once, when the
 * run ends (Chrome trace-event JSON, viewable in any trace viewer).
 *
 * Self time is attributed by a sweep over all span boundaries: each
 * instant goes to the innermost open spans (those with no open child),
 * split evenly when several threads have one open at once.  Instants
 * covered by no span are "unattributed".  By construction the layer
 * self times plus the unattributed time sum to the measured wall.
 */

#ifndef DCATCH_E2EBENCH_SPANS_HH
#define DCATCH_E2EBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

/** Nanoseconds since an arbitrary process-wide origin. */
std::int64_t nowNs();

struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1; ///< index of the enclosing span, -1 for a root
    int item = -1;   ///< item id shared by all spans of one item
    int thread = 0;  ///< small per-thread id
};

class SpanLog
{
  public:
    /** Open a span on the calling thread; its parent is the thread's
     *  innermost open span.  @return span id */
    int begin(const std::string &name, int item);

    /** Close span @p id (must be the thread's innermost open span). */
    void end(int id);

    /** Record a closed span with explicit bounds under @p parent (for
     *  phases a composite call reports as durations). */
    int add(const std::string &name, int item, int parent,
            std::int64_t start_ns, std::int64_t end_ns);

    /** Time of span @p id's start and end. */
    std::int64_t startOf(int id) const;
    std::int64_t endOf(int id) const;

    /** Self time per layer over every recorded span. */
    std::map<std::string, double> layerSelfNs() const;

    /** Total duration of spans with exactly this name. */
    double durationNsOf(const std::string &name) const;

    /** Write every span as Chrome trace-event JSON. */
    void writeChromeTrace(const std::string &path) const;

    std::size_t size() const;

  private:
    std::vector<double> selfNs() const;

    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** Layer of a span name: the text before the first '.'. */
std::string layerOf(const std::string &name);

/** RAII span; does nothing when @p log is null (untraced run). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const std::string &name, int item)
        : log_(log), id_(log ? log->begin(name, item) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (log_)
            log_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    SpanLog *log_;
    int id_;
};

} // namespace e2e

#endif // DCATCH_E2EBENCH_SPANS_HH
