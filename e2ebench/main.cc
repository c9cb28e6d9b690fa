/**
 * @file
 * dcatch end-to-end benchmark program.
 *
 *   e2ebench --workload W --seed N --seconds S --trace 0|1
 *            [--work-dir DIR] [--spans-out FILE]
 *
 * Sets the workload up several times (setup_s is the median), then
 * runs passes for S seconds.  With --trace 0 it prints the end-to-end
 * metrics; with --trace 1 it runs untraced reference passes for a third
 * of the budget, then traced passes, and prints the per-layer metrics
 * and the layer-share table.  The last stdout line is one JSON object
 * {"correct", "attempted", "failed", "metrics"}.  Any item whose
 * output check fails makes the exit code 1.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "spans.hh"
#include "workloads.hh"

namespace {

using namespace e2e;

constexpr int kSetupReps = 3;

/** Untraced runs make at least this many passes, so one slow pass
 *  cannot move the median wall. */
constexpr std::size_t kMinPasses = 3;

/** Highest-first ladder for item_ms.tail. */
constexpr double kTailLadder[] = {0.999, 0.99, 0.95, 0.9, 0.75, 0.5};

/** Every layer the share table lists (src/ modules + the harness). */
const char *const kLayers[] = {
    "runtime", "apps", "trace", "model",  "hb",     "detect", "prune",
    "trigger", "replay", "explore", "serve", "common", "dcatch", "bench"};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
seconds(Clock::time_point since)
{
    return std::chrono::duration<double>(Clock::now() - since).count();
}

/** Linear-interpolated quantile of sorted @p values. */
double
quantile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    double pos = q * double(sorted.size() - 1);
    std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - double(lo));
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return quantile(values, 0.5);
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
           double(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string workDir = ".bench_build/e2e-work";
    std::string spansOut;
};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "e2ebench: %s\n"
                 "usage: e2ebench --workload W --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--spans-out FILE]\n",
                 why);
    return 2;
}

struct Passes
{
    std::vector<double> walls; ///< seconds per pass
    PassOutput out;
};

/** Run passes until @p budget seconds have elapsed and at least
 *  @p min_passes have run. */
Passes
runPasses(Workload &workload, const TraceContext &trace, double budget,
          std::size_t min_passes)
{
    Passes passes;
    Clock::time_point start = Clock::now();
    while (passes.walls.size() < min_passes || seconds(start) < budget) {
        Clock::time_point pass_start = Clock::now();
        PassOutput out = workload.pass(trace);
        passes.walls.push_back(seconds(pass_start));
        passes.out.merge(std::move(out));
    }
    return passes;
}

void
printJson(bool correct, std::size_t attempted, std::size_t failed,
          const std::vector<Metric> &metrics)
{
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.9g", metrics[i].value);
        json += (i ? ", \"" : "\"") + metrics[i].name +
                "\": {\"value\": " + value + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

/** End-to-end metrics of an untraced run. */
std::vector<Metric>
endToEnd(double setup_s, const Passes &passes)
{
    std::vector<double> items;
    std::size_t ok = 0;
    for (const ItemSample &item : passes.out.items) {
        items.push_back(item.ms);
        ok += item.ok;
    }
    std::sort(items.begin(), items.end());
    double tail_q = 0.5;
    for (double q : kTailLadder)
        if (double(items.size()) * (1 - q) >= 10) {
            tail_q = q;
            break;
        }
    double wall = 0;
    for (double w : passes.walls)
        wall += w;
    const double attempted = double(passes.out.items.size());

    std::printf("passes %zu, items %zu, item_ms.tail = p%g over %zu "
                "samples (%.0f beyond it)\n",
                passes.walls.size(), items.size(), tail_q * 100,
                items.size(), std::floor(double(items.size()) *
                                         (1 - tail_q)));
    std::printf("pass walls (s):");
    for (double w : passes.walls)
        std::printf(" %.4f", w);
    std::printf("\n");
    return {
        {"setup_s", setup_s, "s"},
        {"wall_s", median(passes.walls), "s"},
        {"item_ms.p50", quantile(items, 0.5), "ms"},
        {"item_ms.tail", quantile(items, tail_q), "ms"},
        {"records_per_s", passes.out.records / wall, "1/s"},
        {"ok_ratio", double(ok) / attempted, "ratio"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

/** Per-layer metrics and the layer-share table of a traced run. */
std::vector<Metric>
perLayer(const std::string &workload, double untraced_wall,
         const Passes &passes, double cpu_s, const SpanLog &spans,
         const Counters &counters)
{
    const double n = double(passes.walls.size());
    double traced_ns = 0;
    for (double w : passes.walls)
        traced_ns += w * 1e9;
    auto ms = [&](std::initializer_list<const char *> names) {
        double total = 0;
        for (const char *name : names)
            total += spans.durationNsOf(name);
        return total / 1e6 / n;
    };
    auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    const double run_ns = spans.durationNsOf("runtime.run");
    const double steps = counters.get("runtime.steps");

    std::vector<Metric> metrics = {
        {"runtime.run_ms", ms({"runtime.run"}), "ms"},
        {"runtime.steps", steps / n, "count"},
        {"runtime.steps_per_s", ratio(steps, run_ns / 1e9), "1/s"},
        {"runtime.ctx_switches_per_step",
         ratio(counters.get("runtime.ctx_switches"), steps), "ratio"},
        {"apps.build_ms", ms({"apps.build"}), "ms"},
        {"trigger.ms", ms({"trigger.test_all"}), "ms"},
        {"trigger.order_runs", counters.get("trigger.order_runs") / n,
         "count"},
        {"trigger.harmful_ratio",
         ratio(counters.get("trigger.harmful"),
               counters.get("trigger.reports")),
         "ratio"},
        {"replay.ms", ms({"replay.load", "replay.verify", "replay.run"}),
         "ms"},
        {"replay.runs", counters.get("replay.runs") / n, "count"},
        {"explore.runs_ms", ms({"explore.runs"}), "ms"},
        {"explore.shrink_ms", ms({"explore.shrink"}), "ms"},
        {"explore.shrink_replays",
         counters.get("explore.shrink_replays") / n, "count"},
        {"explore.crossval_ms", ms({"explore.crossval"}), "ms"},
        {"trace.load_ms", ms({"trace.load"}), "ms"},
        {"trace.records", counters.get("trace.records") / n, "count"},
        {"trace.bytes", counters.get("trace.bytes") / n, "bytes"},
        {"hb.build_ms", ms({"hb.build"}), "ms"},
        {"hb.reach_bytes", counters.get("hb.reach_bytes") / n, "bytes"},
        {"hb.pull_ms", ms({"hb.pull"}), "ms"},
        {"detect.ms", ms({"detect.detect"}), "ms"},
        {"detect.candidates", counters.get("detect.candidates") / n,
         "count"},
        {"prune.ms", ms({"prune.prune"}), "ms"},
        {"prune.kept_ratio",
         ratio(counters.get("prune.kept"),
               counters.get("prune.candidates")),
         "ratio"},
        {"model.build_ms", ms({"model.build"}), "ms"},
        {"serve.deliver_ms", ms({"serve.deliver"}), "ms"},
        {"serve.report_wait_ms", ms({"serve.report_wait"}), "ms"},
        {"serve.max_pending_bytes", counters.get("serve.max_pending_bytes"),
         "bytes"},
        {"serve.max_index_bytes", counters.get("serve.max_index_bytes"),
         "bytes"},
        {"serve.epochs_closed", counters.get("serve.epochs_closed") / n,
         "count"},
        {"process.cpu_util", ratio(cpu_s, traced_ns / 1e9 * kJobs),
         "ratio"},
    };

    // Layer-share table: self time per pass, share of traced wall.
    const std::map<std::string, double> self = spans.layerSelfNs();
    double attributed = 0;
    for (const auto &[layer, ns] : self)
        attributed += ns;
    const double unattributed = traced_ns - attributed;
    const double traced_wall = traced_ns / 1e9 / n;
    std::printf("\nlayer shares, %s (%zu traced passes, %zu spans)\n",
                workload.c_str(), passes.walls.size(), spans.size());
    std::printf("  %-12s %12s %8s\n", "layer", "self ms/pass", "share");
    for (const char *layer : kLayers) {
        auto it = self.find(layer);
        const double ns = it == self.end() ? 0.0 : it->second;
        const double share = ns / traced_ns;
        std::printf("  %-12s %12.3f %7.2f%%%s\n", layer, ns / 1e6 / n,
                    share * 100, share < 0.01 ? "  <1%: do not optimize"
                                              : "");
        metrics.push_back({std::string("self_ms.") + layer, ns / 1e6 / n,
                           "ms"});
    }
    for (const auto &[layer, ns] : self)
        if (std::find_if(std::begin(kLayers), std::end(kLayers),
                         [&](const char *l) { return layer == l; }) ==
            std::end(kLayers))
            std::printf("  !! span layer '%s' not in the table\n",
                        layer.c_str());
    std::printf("  %-12s %12.3f %7.2f%%\n", "unattributed",
                unattributed / 1e6 / n, unattributed / traced_ns * 100);
    std::printf("  self times + unattributed = %.3f ms/pass = traced "
                "wall %.3f ms/pass\n",
                (attributed + unattributed) / 1e6 / n, traced_wall * 1e3);
    std::printf("  untraced wall_s %.6f, traced wall_s %.6f (median "
                "%.6f), tracing overhead %.6f s/pass\n",
                untraced_wall, traced_wall, median(passes.walls),
                traced_wall - untraced_wall);
    metrics.push_back({"bench.unattributed_ms", unattributed / 1e6 / n,
                       "ms"});
    metrics.push_back({"bench.traced_wall_s", traced_wall, "s"});
    metrics.push_back({"bench.untraced_wall_s", untraced_wall, "s"});
    metrics.push_back({"bench.overhead_s", traced_wall - untraced_wall,
                       "s"});
    return metrics;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        try {
            if (arg == "--workload")
                opt.workload = value;
            else if (arg == "--seed")
                opt.seed = std::stoull(value);
            else if (arg == "--seconds")
                opt.seconds = std::stod(value);
            else if (arg == "--trace")
                opt.trace = std::stoi(value) != 0;
            else if (arg == "--work-dir")
                opt.workDir = value;
            else if (arg == "--spans-out")
                opt.spansOut = value;
            else
                return usage(("unknown flag " + arg).c_str());
        } catch (const std::exception &) {
            return usage(("bad value for " + arg).c_str());
        }
    }
    if (opt.workload.empty())
        return usage("--workload is required");

    try {
        std::unique_ptr<Workload> workload =
            makeWorkload(opt.workload, opt.seed, opt.workDir);

        std::vector<double> setups;
        for (int rep = 0; rep < kSetupReps; ++rep) {
            Clock::time_point start = Clock::now();
            workload->setup();
            setups.push_back(seconds(start));
        }

        Passes passes;
        std::vector<Metric> metrics;
        if (!opt.trace) {
            passes = runPasses(*workload, TraceContext{}, opt.seconds,
                               kMinPasses);
            metrics = endToEnd(median(setups), passes);
        } else {
            // Untraced reference passes for the overhead figure, then
            // traced passes for the rest of the budget.
            Passes reference =
                runPasses(*workload, TraceContext{}, opt.seconds / 3, 1);
            const double untraced_wall = median(reference.walls);
            double reference_s = 0;
            for (double w : reference.walls)
                reference_s += w;
            SpanLog spans;
            Counters counters;
            const double cpu_before = cpuSeconds();
            passes = runPasses(*workload, TraceContext{&spans, &counters},
                               std::max(0.0, opt.seconds - reference_s), 1);
            const double cpu_s = cpuSeconds() - cpu_before;
            passes.out.merge(std::move(reference.out));
            metrics = perLayer(opt.workload, untraced_wall, passes, cpu_s,
                               spans, counters);
            if (!opt.spansOut.empty())
                spans.writeChromeTrace(opt.spansOut);
        }

        const std::size_t failed = passes.out.errors.size();
        for (std::size_t i = 0; i < std::min<std::size_t>(failed, 10); ++i)
            std::printf("FAILED %s\n", passes.out.errors[i].c_str());
        for (const Metric &m : metrics)
            std::printf("  %-32s %14.6f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        std::fflush(stdout);
        printJson(failed == 0, passes.out.items.size(), failed, metrics);
        return failed == 0 ? 0 : 1;
    } catch (const std::exception &err) {
        std::fprintf(stderr, "e2ebench: %s\n", err.what());
        return 2;
    }
}
