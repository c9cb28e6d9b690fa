/**
 * @file
 * The benchmark's four workloads.  Each is closed-loop: one client
 * (two for serve_ingest) issues its next item only after the previous
 * one completes.  A pass is a fixed batch of items whose order comes
 * from the seed; the runner repeats passes for the measured seconds.
 *
 * Every workload builds its options from library defaults plus the
 * parameters its description names (jobs, runs, policies) and never
 * selects an engine, kernel or overlap mode.
 */

#ifndef DCATCH_E2EBENCH_WORKLOADS_HH
#define DCATCH_E2EBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "spans.hh"

namespace e2e {

/** Worker threads of every workload (library `jobs` option). */
inline constexpr int kJobs = 2;

/** Per-layer sums and high-water marks of the traced run. */
class Counters
{
  public:
    void add(const std::string &name, double value);
    void max(const std::string &name, double value);
    double get(const std::string &name) const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, double> values_;
};

struct ItemSample
{
    double ms = 0;
    bool ok = true;
};

/** What one pass produced. */
struct PassOutput
{
    std::vector<ItemSample> items;
    double records = 0; ///< trace records the pass fed to analysis
    std::vector<std::string> errors; ///< one line per failed item

    void merge(PassOutput &&other);
};

/** Tracing hooks for one pass; both null in the untraced run. */
struct TraceContext
{
    SpanLog *spans = nullptr;
    Counters *counters = nullptr;

    bool on() const { return spans != nullptr; }
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** (Re)build every input of the workload; timed as setup_s. */
    virtual void setup() = 0;

    /** Run one pass of items, checking every item's output. */
    virtual PassOutput pass(const TraceContext &trace) = 0;
};

/**
 * @param work_dir working directory inside the checkout for trace
 *        files and bundles
 * @throws std::invalid_argument on an unknown name
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed,
                                       const std::string &work_dir);

} // namespace e2e

#endif // DCATCH_E2EBENCH_WORKLOADS_HH
