#include "trace.h"

#include <atomic>
#include <cstdio>

#include "common/json.h"

namespace perfbench {

namespace json = dttsim::json;

namespace {

std::atomic<Tracer *> activeTracer{nullptr};
std::atomic<std::uint64_t> nextThread{1};

/** The innermost open span on this thread (0: none). */
thread_local std::uint64_t currentSpan = 0;

std::uint64_t
threadNumber()
{
    thread_local const std::uint64_t n = nextThread.fetch_add(1);
    return n;
}

} // namespace

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

std::uint64_t
Tracer::begin(const char *name, const char *layer, std::string job,
              std::uint64_t parent)
{
    SpanRecord rec;
    rec.parent = parent;
    rec.name = name;
    rec.layer = layer;
    rec.job = std::move(job);
    rec.thread = threadNumber();
    rec.start = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - origin_)
                    .count();
    std::lock_guard<std::mutex> lock(mutex_);
    rec.id = spans_.size() + 1;
    spans_.push_back(std::move(rec));
    return spans_.back().id;
}

void
Tracer::end(std::uint64_t id)
{
    const double t = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - origin_)
                         .count();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].end = t;
}

std::vector<SpanRecord>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::map<std::string, LayerTotals>
Tracer::layerTotals() const
{
    const std::vector<SpanRecord> all = spans();
    std::vector<double> childTime(all.size() + 1, 0.0);
    for (const SpanRecord &s : all)
        if (s.parent != 0)
            childTime[s.parent] += s.end - s.start;
    std::map<std::string, LayerTotals> out;
    for (const SpanRecord &s : all) {
        LayerTotals &t = out[s.layer];
        const double dur = s.end - s.start;
        t.totalSeconds += dur;
        t.selfSeconds += dur - childTime[s.id];
        ++t.calls;
    }
    return out;
}

std::vector<double>
Tracer::durations(const std::string &name,
                  const std::string &parent) const
{
    std::vector<double> out;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const SpanRecord &s : spans_)
        if (s.name == name
            && (parent.empty()
                || (s.parent != 0 && spans_[s.parent - 1].name == parent)))
            out.push_back(s.end - s.start);
    return out;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    json::Value events = json::Value::array();
    for (const SpanRecord &s : spans()) {
        json::Value e = json::Value::object();
        e.set("name", json::Value(s.name));
        e.set("cat", json::Value(s.layer));
        e.set("ph", json::Value("X"));
        e.set("ts", json::Value(s.start * 1e6));
        e.set("dur", json::Value((s.end - s.start) * 1e6));
        e.set("pid", json::Value(1));
        e.set("tid", json::Value(s.thread));
        json::Value args = json::Value::object();
        args.set("id", json::Value(s.id));
        args.set("parent", json::Value(s.parent));
        if (!s.job.empty())
            args.set("job", json::Value(s.job));
        e.set("args", std::move(args));
        events.push(std::move(e));
    }
    json::Value doc = json::Value::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", json::Value("ms"));
    const std::string text = doc.dump() + "\n";
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    ok = std::fclose(f) == 0 && ok;
    return ok;
}

void
setTracer(Tracer *t)
{
    activeTracer.store(t);
}

Span::Span(const char *name, const char *layer, std::string job)
    : tracer_(activeTracer.load(std::memory_order_relaxed))
{
    if (tracer_ == nullptr)
        return;
    parent_ = currentSpan;
    id_ = tracer_->begin(name, layer, std::move(job), parent_);
    currentSpan = id_;
}

Span::~Span()
{
    if (tracer_ == nullptr)
        return;
    tracer_->end(id_);
    currentSpan = parent_;
}

} // namespace perfbench
