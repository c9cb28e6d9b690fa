#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <tuple>

namespace e2e {

namespace {

const Clock::time_point kOrigin = Clock::now();

std::atomic<int> nextThread{0};

int
threadId()
{
    thread_local int id = nextThread.fetch_add(1);
    return id;
}

/** Innermost-last open spans of the calling thread. */
thread_local std::vector<int> openStack;

} // namespace

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - kOrigin)
        .count();
}

std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

int
SpanLog::begin(const std::string &name, int item)
{
    Span span;
    span.name = name;
    span.item = item;
    span.thread = threadId();
    span.parent = openStack.empty() ? -1 : openStack.back();
    span.startNs = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    int id = static_cast<int>(spans_.size()) - 1;
    openStack.push_back(id);
    return id;
}

void
SpanLog::end(int id)
{
    std::int64_t now = nowNs();
    if (openStack.empty() || openStack.back() != id)
        throw std::logic_error("SpanLog::end: span not innermost");
    openStack.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].endNs = now;
}

int
SpanLog::add(const std::string &name, int item, int parent,
             std::int64_t start_ns, std::int64_t end_ns)
{
    Span span;
    span.name = name;
    span.item = item;
    span.thread = threadId();
    span.parent = parent;
    span.startNs = start_ns;
    span.endNs = std::max(start_ns, end_ns);
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size()) - 1;
}

std::int64_t
SpanLog::startOf(int id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_[static_cast<std::size_t>(id)].startNs;
}

std::int64_t
SpanLog::endOf(int id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_[static_cast<std::size_t>(id)].endNs;
}

std::size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

std::vector<double>
SpanLog::selfNs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    // (time, kind, id): kind 0 closes before kind 1 opens at a tie.
    std::vector<std::tuple<std::int64_t, int, int>> events;
    events.reserve(spans_.size() * 2);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        events.emplace_back(spans_[i].startNs, 1, static_cast<int>(i));
        events.emplace_back(spans_[i].endNs, 0, static_cast<int>(i));
    }
    std::sort(events.begin(), events.end());

    std::vector<double> self(spans_.size(), 0.0);
    std::vector<int> open_children(spans_.size(), 0);
    std::vector<char> is_open(spans_.size(), 0);
    std::vector<int> open;
    std::int64_t last = events.empty() ? 0 : std::get<0>(events.front());
    for (const auto &[time, kind, id] : events) {
        if (time > last && !open.empty()) {
            std::vector<int> leaves;
            for (int s : open)
                if (open_children[static_cast<std::size_t>(s)] == 0)
                    leaves.push_back(s);
            double share = double(time - last) / double(leaves.size());
            for (int s : leaves)
                self[static_cast<std::size_t>(s)] += share;
        }
        last = time;
        const std::size_t idx = static_cast<std::size_t>(id);
        const int parent = spans_[idx].parent;
        const bool parent_open =
            parent >= 0 && is_open[static_cast<std::size_t>(parent)];
        if (kind == 1) {
            is_open[idx] = 1;
            open.push_back(id);
            if (parent_open)
                ++open_children[static_cast<std::size_t>(parent)];
        } else if (is_open[idx]) {
            is_open[idx] = 0;
            open.erase(std::find(open.begin(), open.end(), id));
            if (parent_open)
                --open_children[static_cast<std::size_t>(parent)];
        }
    }
    return self;
}

std::map<std::string, double>
SpanLog::layerSelfNs() const
{
    std::vector<double> self = selfNs();
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, double> layers;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        layers[layerOf(spans_[i].name)] += self[i];
    return layers;
}

double
SpanLog::durationNsOf(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    double total = 0;
    for (const Span &span : spans_)
        if (span.name == name)
            total += double(span.endNs - span.startNs);
    return total;
}

void
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write " + path);
    out << "{\"traceEvents\":[\n";
    char buf[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                      "\"ts\":%.3f,\"dur\":%.3f,",
                      span.thread, double(span.startNs) / 1e3,
                      double(span.endNs - span.startNs) / 1e3);
        out << (i ? ",\n" : "") << "{\"name\":\"" << span.name
            << buf << "\"args\":{\"id\":" << i
            << ",\"parent\":" << span.parent << ",\"item\":" << span.item
            << "}}";
    }
    out << "\n]}\n";
}

} // namespace e2e
