#include "workloads.hh"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <optional>
#include <stdexcept>
#include <thread>

#include "apps/benchmark.hh"
#include "apps/hbase/mini_hbase.hh"
#include "apps/mapreduce/mini_mr.hh"
#include "common/task_pool.hh"
#include "common/util.hh"
#include "dcatch/pipeline.hh"
#include "detect/race_detect.hh"
#include "expected.hh"
#include "explore/crossval.hh"
#include "explore/explorer.hh"
#include "explore/shrink.hh"
#include "hb/graph.hh"
#include "prune/impact.hh"
#include "replay/bundle.hh"
#include "replay/driver.hh"
#include "runtime/sim.hh"
#include "serve/service.hh"
#include "serve/session.hh"
#include "serve/wire.hh"
#include "trace/trace_store.hh"
#include "trigger/harness.hh"

namespace e2e {

namespace fs = std::filesystem;
using namespace dcatch;

void
Counters::add(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    values_[name] += value;
}

void
Counters::max(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    double &slot = values_[name];
    slot = std::max(slot, value);
}

double
Counters::get(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
}

void
PassOutput::merge(PassOutput &&other)
{
    items.insert(items.end(), other.items.begin(), other.items.end());
    records += other.records;
    for (std::string &error : other.errors)
        errors.push_back(std::move(error));
}

namespace {

std::atomic<int> nextItem{0};

/** SplitMix64: the benchmark's only source of input randomness. */
std::uint64_t
splitmix(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Seeded Fisher-Yates permutation of 0..n-1. */
std::vector<std::size_t>
permutation(std::size_t n, std::uint64_t &state)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[splitmix(state) % i]);
    return order;
}

std::string
hex(std::uint64_t value)
{
    return strprintf("%016llx", static_cast<unsigned long long>(value));
}

/** Incremental FNV-1a 64 over length-prefixed fields. */
class Digest
{
  public:
    Digest &
    add(std::string_view field)
    {
        mix(static_cast<std::uint64_t>(field.size()));
        for (unsigned char c : field)
            byte(c);
        return *this;
    }

    Digest &
    mix(std::uint64_t value)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<unsigned char>(value >> (8 * i)));
        return *this;
    }

    std::string hex() const { return e2e::hex(hash_); }

  private:
    void
    byte(unsigned char c)
    {
        hash_ = (hash_ ^ c) * 0x100000001b3ull;
    }

    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/** Digest of a candidate list, in detector output order. */
std::string
candidateDigest(const std::vector<detect::Candidate> &candidates)
{
    Digest digest;
    for (const detect::Candidate &c : candidates) {
        digest.add(c.var).mix(static_cast<std::uint64_t>(c.dynamicPairs));
        for (const detect::CandidateAccess *side : {&c.a, &c.b})
            digest.add(side->site).add(side->callstack).mix(side->isWrite);
    }
    return digest.hex();
}

/** Digest of a trigger run: candidate, class, failing order. */
std::string
reportDigest(const std::vector<trigger::TriggerReport> &reports)
{
    Digest digest;
    for (const trigger::TriggerReport &r : reports) {
        digest.add(r.candidate.var);
        for (const detect::CandidateAccess *side :
             {&r.candidate.a, &r.candidate.b})
            digest.add(side->site).add(side->callstack);
        digest.add(trigger::triggerClassName(r.cls)).add(r.failingOrder);
    }
    return digest.hex();
}

long
contextSwitches()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_nvcsw + usage.ru_nivcsw;
}

/**
 * Time one item, then check its output outside the timed window.
 * @p work returns "" on success, else a one-line reason; @p check
 * likewise judges what @p work produced.  A throw from either counts
 * as a failed item.
 */
void
runItem(PassOutput &out, const TraceContext &trace,
        const std::string &label,
        const std::function<std::string(int item)> &work,
        const std::function<std::string()> &check)
{
    const int item = nextItem.fetch_add(1);
    std::string error;
    Clock::time_point start = Clock::now();
    try {
        ScopedSpan span(trace.spans, "bench.item", item);
        error = work(item);
    } catch (const std::exception &err) {
        error = std::string("threw: ") + err.what();
    }
    ItemSample sample;
    sample.ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                          start)
                    .count();
    if (error.empty()) {
        try {
            ScopedSpan span(trace.spans, "bench.check", item);
            error = check();
        } catch (const std::exception &err) {
            error = std::string("check threw: ") + err.what();
        }
    }
    sample.ok = error.empty();
    out.items.push_back(sample);
    if (!sample.ok)
        out.errors.push_back(label + ": " + error);
}

/** Child spans of a "dcatch.pipeline" span from its PhaseMetrics. */
void
addPhaseSpans(const TraceContext &trace, int parent, int item,
              const PhaseMetrics &metrics)
{
    // runPipeline reports its phases as durations; lay them out
    // backwards from the call's end in the order they ran.  Whatever
    // is left at the front (wave-1 overlap, model build) stays the
    // pipeline span's own time.
    const std::int64_t begin = trace.spans->startOf(parent);
    std::int64_t cursor = trace.spans->endOf(parent);
    const std::pair<const char *, double> phases[] = {
        {"hb.pull", metrics.loopSec},
        {"prune.prune", metrics.pruningSec},
        {"detect.detect", metrics.detectSec},
        {"hb.build", metrics.analysisSec - metrics.detectSec},
        {"runtime.traced_run", metrics.tracingSec},
    };
    for (const auto &[name, sec] : phases) {
        std::int64_t start = std::max(
            begin, cursor - static_cast<std::int64_t>(sec * 1e9));
        trace.spans->add(name, item, parent, start, cursor);
        cursor = start;
    }
}

/** runPipeline under a "dcatch.pipeline" span plus its phases. */
PipelineResult
tracedPipeline(const TraceContext &trace, int item,
               const apps::Benchmark &bench, const PipelineOptions &po)
{
    int span_id = -1;
    PipelineResult result;
    {
        ScopedSpan span(trace.spans, "dcatch.pipeline", item);
        span_id = span.id();
        result = runPipeline(bench, po);
    }
    addPhaseSpans(trace, span_id, item, result.metrics);
    trace.counters->add("trace.records",
                        double(result.metrics.traceRecords));
    trace.counters->add("trace.bytes", double(result.metrics.traceBytes));
    trace.counters->add("hb.reach_bytes",
                        double(result.metrics.hbReachBytes));
    trace.counters->add("detect.candidates",
                        double(result.afterTa.size()));
    trace.counters->add("prune.candidates", double(result.afterTa.size()));
    trace.counters->add("prune.kept", double(result.afterSp.size()));
    return result;
}

/** A serial, untraced-tracer Simulation::run under runtime spans. */
void
tracedBaseRun(const TraceContext &trace, int item,
              const apps::Benchmark &bench)
{
    sim::Simulation base(bench.config);
    trace::TracerConfig off;
    off.traceMemory = false;
    off.traceOps = false;
    off.traceLocks = false;
    base.setTracerConfig(off);
    {
        ScopedSpan span(trace.spans, "apps.build", item);
        bench.build(base);
    }
    long before = contextSwitches();
    sim::RunResult run;
    {
        ScopedSpan span(trace.spans, "runtime.run", item);
        run = base.run();
    }
    trace.counters->add("runtime.ctx_switches",
                        double(contextSwitches() - before));
    trace.counters->add("runtime.steps", double(run.steps));
}

// ------------------------------------------------------------------
// pipeline_trigger

class PipelineTrigger : public Workload
{
  public:
    explicit PipelineTrigger(std::uint64_t seed) : rng_(seed) {}

    void
    setup() override
    {
        benches_.clear();
        int reports = 0, harmful = 0, benign = 0, serial = 0;
        for (const expected::Pipeline &row : expected::kPipeline) {
            benches_.push_back(&apps::benchmark(row.id));
            reports += row.reports;
            harmful += row.harmful;
            benign += row.benign;
            serial += row.serial;
        }
        if (reports != expected::kReports ||
            harmful != expected::kHarmful || benign != expected::kBenign ||
            serial != expected::kSerial)
            throw std::runtime_error("pipeline_trigger: expected table "
                                     "does not sum to its totals");
        if (benches_.size() != apps::allBenchmarks().size())
            throw std::runtime_error("pipeline_trigger: benchmark "
                                     "registry and expected table "
                                     "disagree");
        // Warm every simulator path once: one untraced run per
        // benchmark plus its program model.
        for (const apps::Benchmark *bench : benches_) {
            sim::Simulation sim(bench->config);
            bench->build(sim);
            sim.run();
            bench->buildModel();
        }
    }

    PassOutput
    pass(const TraceContext &trace) override
    {
        PassOutput out;
        for (std::size_t i : permutation(benches_.size(), rng_)) {
            const apps::Benchmark &bench = *benches_[i];
            const expected::Pipeline &want = expected::kPipeline[i];
            PipelineResult result;
            runItem(
                out, trace, bench.id,
                [&](int item) {
                    result = trace.on() ? tracedItem(trace, item, bench)
                                        : untracedItem(bench);
                    out.records += double(result.metrics.traceRecords);
                    return std::string();
                },
                [&] { return check(bench, want, result); });
        }
        return out;
    }

  private:
    static PipelineResult
    untracedItem(const apps::Benchmark &bench)
    {
        PipelineOptions po;
        po.runTrigger = true;
        po.jobs = kJobs;
        return runPipeline(bench, po);
    }

    /** The same work as public sub-calls: base run, pipeline without
     *  trigger, then TriggerHarness::testAll on its final reports. */
    static PipelineResult
    tracedItem(const TraceContext &trace, int item,
               const apps::Benchmark &bench)
    {
        tracedBaseRun(trace, item, bench);
        PipelineOptions po;
        po.measureBase = false;
        po.jobs = kJobs;
        PipelineResult result = tracedPipeline(trace, item, bench, po);
        std::unique_ptr<TaskPool> pool;
        {
            ScopedSpan span(trace.spans, "common.pool", item);
            pool = std::make_unique<TaskPool>(TaskPool::resolveJobs(kJobs));
        }
        {
            ScopedSpan span(trace.spans, "trigger.test_all", item);
            trigger::TriggerHarness harness(bench.build, bench.config);
            result.triggered = harness.testAll(
                result.afterLp, result.monitoredTrace, pool.get());
        }
        double order_runs = 0, harmful = 0;
        for (const trigger::TriggerReport &r : result.triggered) {
            order_runs += double(r.runs.size());
            harmful += r.cls == trigger::TriggerClass::Harmful;
        }
        trace.counters->add("trigger.order_runs", order_runs);
        trace.counters->add("trigger.harmful", harmful);
        trace.counters->add("trigger.reports",
                            double(result.triggered.size()));
        return result;
    }

    static std::string
    check(const apps::Benchmark &bench, const expected::Pipeline &want,
          const PipelineResult &result)
    {
        if (result.analysisOom)
            return "analysis ran out of memory";
        if (result.monitoredRun.failedOrganically())
            return "monitored run failed: " + result.monitoredRun.summary();
        int harmful = 0, benign = 0, serial = 0;
        for (const trigger::TriggerReport &r : result.triggered) {
            harmful += r.cls == trigger::TriggerClass::Harmful;
            benign += r.cls == trigger::TriggerClass::Benign;
            serial += r.cls == trigger::TriggerClass::Serial;
        }
        const int reports = static_cast<int>(result.triggered.size());
        const std::string digest = reportDigest(result.triggered);
        if (reports != want.reports || harmful != want.harmful ||
            benign != want.benign || serial != want.serial ||
            digest != want.digest)
            return strprintf("got reports=%d harmful=%d benign=%d "
                             "serial=%d digest=%s",
                             reports, harmful, benign, serial,
                             digest.c_str());
        if (!classify(bench, result).knownBugDetected)
            return "known bug not detected";
        return "";
    }

    std::uint64_t rng_;
    std::vector<const apps::Benchmark *> benches_;
};

// ------------------------------------------------------------------
// explore_campaign

class ExploreCampaign : public Workload
{
  public:
    ExploreCampaign(std::uint64_t seed, std::string work_dir)
        : rng_(seed), workDir_(std::move(work_dir))
    {
    }

    void
    setup() override
    {
        policies_ = explore::parsePolicyList("random,pct:3,delay:2");
        benches_.clear();
        monitoredRecords_.clear();
        // The monitored trace each campaign's cross-validation
        // analyses: its size is the pass's record count.
        for (const expected::Campaign &row : expected::kCampaigns) {
            const apps::Benchmark &bench = apps::benchmark(row.id);
            benches_.push_back(&bench);
            sim::Simulation sim(bench.config);
            bench.build(sim);
            sim.run();
            monitoredRecords_.push_back(
                double(sim.tracer().store().totalRecords()));
        }
    }

    PassOutput
    pass(const TraceContext &trace) override
    {
        PassOutput out;
        for (std::size_t i : permutation(benches_.size(), rng_)) {
            const apps::Benchmark &bench = *benches_[i];
            const expected::Campaign &want = expected::kCampaigns[i];
            explore::CampaignResult campaign;
            runItem(
                out, trace, "explore " + bench.id,
                [&](int item) {
                    campaign = trace.on() ? tracedItem(trace, item, bench)
                                          : untracedItem(bench);
                    out.records += monitoredRecords_[i];
                    return std::string();
                },
                [&] { return check(want, campaign); });
        }
        return out;
    }

  private:
    static explore::ExploreOptions
    options()
    {
        explore::ExploreOptions eo;
        eo.runsPerPolicy = 10;
        eo.jobs = kJobs;
        return eo;
    }

    explore::CampaignResult
    untracedItem(const apps::Benchmark &bench) const
    {
        return explore::explore(bench, policies_, options());
    }

    /**
     * The campaign as public sub-calls: the monitored pipeline, the
     * runs (bundles written so they can be reloaded), then per
     * failure the shrink, the minimized-bundle replay, and the
     * cross-validation against the monitored candidates.
     */
    explore::CampaignResult
    tracedItem(const TraceContext &trace, int item,
               const apps::Benchmark &bench) const
    {
        tracedBaseRun(trace, item, bench);
        PipelineOptions po;
        po.measureBase = false;
        po.jobs = kJobs;
        PipelineResult monitored = tracedPipeline(trace, item, bench, po);
        if (monitored.monitoredRun.failedOrganically())
            throw std::runtime_error("monitored run failed");

        const std::string bundles =
            workDir_ + "/bundles/" + std::to_string(item);
        fs::remove_all(bundles);
        explore::ExploreOptions eo = options();
        eo.shrink = false;
        eo.crossValidate = false;
        eo.bundleDir = bundles;
        explore::CampaignResult campaign;
        {
            ScopedSpan span(trace.spans, "explore.runs", item);
            campaign = explore::explore(bench, policies_, eo);
        }
        trace.counters->add("replay.runs", double(campaign.failures()));

        std::map<std::string, std::size_t> monitored_order;
        {
            ScopedSpan span(trace.spans, "explore.crossval", item);
            monitored_order =
                explore::siteFirstOccurrence(monitored.monitoredTrace);
        }
        for (explore::RunRecord &rec : campaign.runs) {
            if (!rec.failed)
                continue;
            replay::ScheduleLog log;
            {
                ScopedSpan span(trace.spans, "replay.load", item);
                log = replay::loadBundleLog(rec.bundleDir);
            }
            explore::ShrinkResult shrunk;
            {
                ScopedSpan span(trace.spans, "explore.shrink", item);
                shrunk = explore::shrinkSchedule(bench, log, rec.signature);
            }
            rec.shrunkPrefix = shrunk.divergencePrefix;
            rec.shrinkReplays = shrunk.replaysUsed;
            rec.minimizedSignature = shrunk.signature;
            trace.counters->add("explore.shrink_replays",
                                double(shrunk.replaysUsed));
            {
                ScopedSpan span(trace.spans, "replay.verify", item);
                rec.minimizedVerified =
                    replay::replayLog(shrunk.minimized).identical();
            }
            replay::ReplayOutcome failing;
            {
                ScopedSpan span(trace.spans, "replay.run", item);
                failing = replay::replayLog(log);
            }
            trace.counters->add("replay.runs", 2);
            {
                ScopedSpan span(trace.spans, "explore.crossval", item);
                explore::CrossValMatch match = explore::crossValidate(
                    monitored.afterLp, monitored.afterTa, monitored_order,
                    explore::siteFirstOccurrence(failing.trace));
                rec.crossValidated = match.matched;
            }
        }
        fs::remove_all(bundles);
        return campaign;
    }

    static std::string
    check(const expected::Campaign &want,
          const explore::CampaignResult &campaign)
    {
        if (!campaign.allBundlesVerified())
            return "a failure bundle did not replay identically";
        if (!campaign.allMinimizedVerified())
            return "a minimized bundle did not replay identically";
        if (!campaign.allFailuresCrossValidated())
            return "a failure was not cross-validated";
        for (const explore::RunRecord &rec : campaign.runs)
            if (rec.failed && rec.minimizedSignature != rec.signature)
                return "minimized signature differs: " + rec.signature;
        const std::vector<std::string> signatures =
            campaign.distinctSignatures();
        if (campaign.failures() != want.failures ||
            signatures != want.signatures) {
            std::string got;
            for (const std::string &s : signatures)
                got += " [" + s + "]";
            return strprintf("got failures=%d signatures:%s",
                             campaign.failures(), got.c_str());
        }
        return "";
    }

    std::uint64_t rng_;
    std::string workDir_;
    std::vector<explore::PolicySpec> policies_;
    std::vector<const apps::Benchmark *> benches_;
    std::vector<double> monitoredRecords_;
};

// ------------------------------------------------------------------
// trace_analysis

class TraceAnalysis : public Workload
{
  public:
    /** Rounds of the item mix per pass: a pass (~0.6 s) spans many
     *  items, so one pass's wall averages out short host stalls. */
    static constexpr int kRoundsPerPass = 3;

    TraceAnalysis(std::uint64_t seed, std::string work_dir)
        : rng_(seed), workDir_(std::move(work_dir))
    {
    }

    void
    setup() override
    {
        traces_.clear();
        record("MR-3274x256", "MR-3274",
               detect::sitePair(apps::mr::kGetTaskRead,
                                apps::mr::kUnregRemove),
               [](sim::Simulation &sim) {
                   apps::mr::install(sim, apps::mr::Workload::Hang3274,
                                     256);
               });
        record("HB-4539x32", "HB-4539",
               detect::sitePair(apps::hb::kAlterEmpty,
                                apps::hb::kSplitPut),
               [](sim::Simulation &sim) {
                   apps::hb::install(
                       sim, apps::hb::Workload::SplitAlter4539, 32);
               });
    }

    PassOutput
    pass(const TraceContext &trace) override
    {
        // Four build-bound items per five detection-bound ones.  On a
        // shared host the clock moves between a steady base speed and a
        // turbo speed whose share of a run varies, so low and middle
        // quantiles of one item type swing with that share while high
        // ones stay on the base speed.  HB-4539x32 items are all faster
        // than MR-3274x256 items, so with this mix item_ms.p50 is the
        // 90th percentile of HB-4539x32 latencies.
        static const std::size_t kMix[] = {0, 0, 0, 0, 1, 1, 1, 1, 1};
        constexpr std::size_t kItems = sizeof kMix / sizeof kMix[0];
        PassOutput out;
        for (int round = 0; round < kRoundsPerPass; ++round) {
            for (std::size_t i : permutation(kItems, rng_)) {
                const Recorded &rec = traces_[kMix[i]];
                Analysed result;
                runItem(
                    out, trace, rec.want->name,
                    [&](int item) {
                        result = analyse(trace, item, rec);
                        out.records += double(result.records);
                        return std::string();
                    },
                    [&] { return check(rec, result); });
            }
        }
        return out;
    }

  private:
    struct Recorded
    {
        const expected::Analysis *want = nullptr;
        const apps::Benchmark *bench = nullptr;
        std::string dir;
        std::string bugPair;
        std::vector<trace::QueueMeta> queues;
        std::vector<trace::ThreadMeta> threads;
    };

    struct Analysed
    {
        std::size_t records = 0;
        std::vector<detect::Candidate> candidates, kept;
    };

    void
    record(const std::string &name, const std::string &bench_id,
           const std::string &bug_pair,
           const std::function<void(sim::Simulation &)> &install)
    {
        Recorded rec;
        for (const expected::Analysis &row : expected::kAnalysis)
            if (name == row.name)
                rec.want = &row;
        rec.bench = &apps::benchmark(bench_id);
        rec.bugPair = bug_pair;
        rec.dir = workDir_ + "/traces/" + name;
        sim::SimConfig config;
        config.maxSteps = 100'000'000;
        sim::Simulation sim(config);
        install(sim);
        sim::RunResult run = sim.run();
        if (run.failedOrganically())
            throw std::runtime_error(name + ": recording run failed: " +
                                     run.summary());
        const trace::TraceStore &store = sim.tracer().store();
        fs::remove_all(rec.dir);
        fs::create_directories(rec.dir);
        store.writeToDirectory(rec.dir);
        for (const auto &[id, queue] : store.queues())
            rec.queues.push_back(queue);
        for (const auto &[tid, thread] : store.threads())
            rec.threads.push_back(thread);
        traces_.push_back(std::move(rec));
    }

    static Analysed
    analyse(const TraceContext &trace, int item, const Recorded &rec)
    {
        auto store = std::make_unique<trace::TraceStore>();
        {
            ScopedSpan span(trace.spans, "trace.load", item);
            store->loadFromDirectory(rec.dir);
            for (const trace::QueueMeta &queue : rec.queues)
                store->noteQueue(queue);
            for (const trace::ThreadMeta &thread : rec.threads)
                store->noteThread(thread);
        }
        std::unique_ptr<hb::HbGraph> graph;
        {
            ScopedSpan span(trace.spans, "hb.build", item);
            graph = std::make_unique<hb::HbGraph>(*store);
        }
        if (graph->oom())
            throw std::runtime_error("HB graph ran out of memory");
        Analysed out;
        out.records = store->totalRecords();
        {
            ScopedSpan span(trace.spans, "detect.detect", item);
            out.candidates = detect::RaceDetector().detect(*graph);
        }
        std::optional<model::ProgramModel> model;
        {
            ScopedSpan span(trace.spans, "model.build", item);
            model = rec.bench->buildModel();
        }
        {
            ScopedSpan span(trace.spans, "prune.prune", item);
            out.kept = prune::StaticPruner(*model).prune(out.candidates);
        }
        if (trace.on()) {
            trace.counters->add("trace.records", double(out.records));
            trace.counters->add("trace.bytes",
                                double(store->serializedBytes()));
            trace.counters->add("hb.reach_bytes",
                                double(graph->reachBytes()));
            trace.counters->add("detect.candidates",
                                double(out.candidates.size()));
            trace.counters->add("prune.candidates",
                                double(out.candidates.size()));
            trace.counters->add("prune.kept", double(out.kept.size()));
        }
        // Freeing the graph and the store is part of the item's cost.
        {
            ScopedSpan span(trace.spans, "hb.free", item);
            graph.reset();
        }
        {
            ScopedSpan span(trace.spans, "trace.free", item);
            store.reset();
        }
        return out;
    }

    static std::string
    check(const Recorded &rec, const Analysed &result)
    {
        const std::string digest = candidateDigest(result.candidates);
        if (result.records != rec.want->records ||
            result.candidates.size() != rec.want->candidates ||
            result.kept.size() != rec.want->kept ||
            digest != rec.want->digest)
            return strprintf("got records=%zu candidates=%zu kept=%zu "
                             "digest=%s",
                             result.records, result.candidates.size(),
                             result.kept.size(), digest.c_str());
        for (const detect::Candidate &c : result.kept)
            if (c.sitePairKey() == rec.bugPair)
                return "";
        return "known bug pair missing after pruning";
    }

    std::uint64_t rng_;
    std::string workDir_;
    std::vector<Recorded> traces_;
};

// ------------------------------------------------------------------
// serve_ingest

class ServeIngest : public Workload
{
  public:
    static constexpr int kClients = 2;
    /** Sessions per client per pass (~0.4 s), long enough that one
     *  pass's wall averages out short host stalls. */
    static constexpr int kSessionsPerClient = 32;
    static constexpr std::size_t kFrameRecords = 256;

    explicit ServeIngest(std::uint64_t seed) : seed_(seed) {}

    void
    setup() override
    {
        core_.reset();
        sim::SimConfig config;
        config.maxSteps = 100'000'000;
        sim::Simulation sim(config);
        apps::mr::install(sim, apps::mr::Workload::Hang3274, 64);
        sim.run();
        const trace::TraceStore &store = sim.tracer().store();
        records_ = store.totalRecords();

        hb::HbGraph graph(store);
        candidates_ = detect::RaceDetector().detect(graph);

        meta_.clear();
        for (const auto &[id, queue] : store.queues())
            meta_ += serve::encodeFrame(
                serve::FrameType::QueueMeta,
                strprintf("%d %d %s", queue.node,
                          queue.singleConsumer ? 1 : 0, id.c_str()));
        for (const auto &[tid, thread] : store.threads())
            meta_ += serve::encodeFrame(
                serve::FrameType::ThreadMeta,
                strprintf("%d %d %d %s", thread.thread, thread.node,
                          thread.handlerThread ? 1 : 0,
                          thread.name.c_str()));

        // Cut the merged trace into 256-record frames; the seed picks
        // which producer carries each frame of every consecutive pair.
        std::uint64_t state = seed_;
        std::vector<std::string> frames;
        std::string lines;
        std::size_t in_frame = 0;
        for (const trace::Record &rec : store.mergedRecords()) {
            rec.appendLine(store.symbols(), lines);
            lines += '\n';
            if (++in_frame == kFrameRecords) {
                frames.push_back(std::move(lines));
                lines.clear();
                in_frame = 0;
            }
        }
        if (!lines.empty())
            frames.push_back(std::move(lines));
        for (auto &list : producerFrames_)
            list.clear();
        for (std::size_t f = 0; f < frames.size(); f += 2) {
            std::size_t first = splitmix(state) & 1;
            for (std::size_t k = f; k < std::min(f + 2, frames.size());
                 ++k)
                producerFrames_[(first + k - f) & 1].push_back(
                    serve::encodeFrame(serve::FrameType::Records,
                                       frames[k]));
        }

        serve::ServeOptions options;
        options.jobs = kJobs;
        core_ = std::make_unique<serve::ServeCore>(options);
    }

    PassOutput
    pass(const TraceContext &trace) override
    {
        const serve::ServeStats before = core_->stats();
        std::vector<PassOutput> outs(kClients);
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; ++c)
            clients.emplace_back([&, c] {
                for (int s = 0; s < kSessionsPerClient; ++s)
                    session(trace, c, outs[static_cast<std::size_t>(c)]);
            });
        for (std::thread &client : clients)
            client.join();
        PassOutput out;
        for (PassOutput &o : outs)
            out.merge(std::move(o));
        if (trace.on()) {
            const serve::ServeStats after = core_->stats();
            trace.counters->add("serve.epochs_closed",
                                double(after.epochsClosed -
                                       before.epochsClosed));
            trace.counters->max("serve.max_pending_bytes",
                                double(after.maxPendingBytes));
            trace.counters->max("serve.max_index_bytes",
                                double(after.maxOnlineIndexBytes));
        }
        return out;
    }

  private:
    void
    session(const TraceContext &trace, int client, PassOutput &out)
    {
        const std::string run_id =
            strprintf("e2e-%d-%d", client, sessions_.fetch_add(1));
        serve::ServeCore &core = *core_;
        const serve::ConnId conns[2] = {core.connect(), core.connect()};
        std::string reports[2];
        auto work = [&](int item) -> std::string {
            bool sent = true;
            auto deliver = [&](int p, const std::string &bytes) {
                ScopedSpan span(trace.spans, "serve.deliver", item);
                sent = core.deliver(conns[p], bytes.data(), bytes.size()) &&
                       sent;
            };
            const std::string hello = serve::encodeFrame(
                serve::FrameType::Hello,
                serve::encodeHello({run_id, 2}));
            deliver(0, hello);
            deliver(1, hello);
            deliver(0, meta_);
            const std::size_t rounds = std::max(producerFrames_[0].size(),
                                                producerFrames_[1].size());
            for (std::size_t r = 0; r < rounds; ++r)
                for (int p = 0; p < 2; ++p)
                    if (r < producerFrames_[p].size())
                        deliver(p, producerFrames_[p][r]);
            const std::string end =
                serve::encodeFrame(serve::FrameType::End, "");
            deliver(0, end);
            deliver(1, end);
            if (!sent)
                return "a frame was refused";

            {
                ScopedSpan span(trace.spans, "serve.report_wait", item);
                const Clock::time_point deadline =
                    Clock::now() + std::chrono::seconds(60);
                for (int p = 0; p < 2; ++p)
                    while (reports[p].empty() && Clock::now() < deadline)
                        for (const serve::Frame &frame : core.pollWait(
                                 conns[p], std::chrono::milliseconds(50))) {
                            if (frame.type == serve::FrameType::Error)
                                return "Error frame: " + frame.payload;
                            if (frame.type == serve::FrameType::Report)
                                reports[p] = frame.payload;
                        }
            }
            out.records += double(records_);
            return std::string();
        };
        auto check = [&]() -> std::string {
            const std::string want =
                serve::canonicalReport(run_id, records_, candidates_);
            for (const std::string &report : reports)
                if (report != want)
                    return report.empty() ? "no Report"
                                          : "Report differs from batch";
            return "";
        };
        runItem(out, trace, run_id, work, check);
        core.disconnect(conns[0]);
        core.disconnect(conns[1]);
    }

    std::uint64_t seed_;
    std::size_t records_ = 0;
    std::vector<detect::Candidate> candidates_;
    std::string meta_;
    std::vector<std::string> producerFrames_[2];
    std::atomic<int> sessions_{0};
    std::unique_ptr<serve::ServeCore> core_;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed,
             const std::string &work_dir)
{
    if (name == "pipeline_trigger")
        return std::make_unique<PipelineTrigger>(seed);
    if (name == "explore_campaign")
        return std::make_unique<ExploreCampaign>(seed, work_dir);
    if (name == "trace_analysis")
        return std::make_unique<TraceAnalysis>(seed, work_dir);
    if (name == "serve_ingest")
        return std::make_unique<ServeIngest>(seed);
    throw std::invalid_argument("unknown workload: " + name);
}

} // namespace e2e
