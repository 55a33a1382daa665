#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "harness.h"
#include "obs/metrics.h"

namespace lakebench {

lake::Nanos
obsRemoteNs()
{
    const lake::obs::Metrics &m = lake::obs::Metrics::global();
    const lake::obs::ApiHistograms &rpc = m.stage(lake::obs::Stage::Rpc);
    const lake::obs::ApiHistograms &send = m.stage(lake::obs::Stage::Send);
    lake::Nanos total = 0;
    for (std::uint32_t api = 0; api < lake::obs::ApiHistograms::kMaxApi;
         ++api)
        total += rpc.at(api).count() > 0 ? rpc.at(api).sum()
                                         : send.at(api).sum();
    return total;
}

int
SpanRecorder::open(const char *layer, const char *name, lake::Nanos vnow,
                   std::uint64_t id, std::uint32_t pid, std::uint32_t tid)
{
    Span s;
    s.layer = layer;
    s.name = name;
    s.v_begin = vnow;
    s.h_begin = hostNs();
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.id = id;
    s.pid = pid;
    s.tid = tid;
    spans_.push_back(s);
    int idx = static_cast<int>(spans_.size() - 1);
    stack_.push_back(idx);
    remote_at_open_.push_back(obsRemoteNs());
    return idx;
}

void
SpanRecorder::close(int idx, lake::Nanos vnow)
{
    Span &s = spans_[static_cast<std::size_t>(idx)];
    s.v_end = vnow;
    s.h_end = hostNs();
    s.remote = obsRemoteNs() - remote_at_open_.back();
    stack_.pop_back();
    remote_at_open_.pop_back();
}

void
SpanRecorder::clear()
{
    spans_.clear();
    stack_.clear();
    remote_at_open_.clear();
}

namespace {

/** Per span: its children's virtual and remote totals. */
struct ChildSums
{
    lake::Nanos v = 0;
    lake::Nanos remote = 0;
};

std::vector<ChildSums>
childSums(const std::vector<Span> &spans)
{
    std::vector<ChildSums> c(spans.size());
    for (const Span &s : spans) {
        if (s.parent < 0)
            continue;
        ChildSums &p = c[static_cast<std::size_t>(s.parent)];
        p.v += s.v_end - s.v_begin;
        p.remote += s.remote;
    }
    return c;
}

/** Remoted ns a span issued itself (not through a child). */
lake::Nanos
ownRemote(const Span &s, const ChildSums &c)
{
    return s.remote - c.remote;
}

} // namespace

std::map<std::string, lake::Nanos>
SpanRecorder::layerSelf() const
{
    std::vector<ChildSums> c = childSums(spans_);
    std::map<std::string, lake::Nanos> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out[s.layer] += (s.v_end - s.v_begin) - c[i].v - ownRemote(s, c[i]);
    }
    return out;
}

lake::Nanos
SpanRecorder::covered() const
{
    lake::Nanos v = 0;
    for (const Span &s : spans_)
        if (s.parent < 0)
            v += s.v_end - s.v_begin;
    return v;
}

lake::Nanos
SpanRecorder::remoteInside() const
{
    lake::Nanos v = 0;
    for (const Span &s : spans_)
        if (s.parent < 0)
            v += s.remote;
    return v;
}

bool
SpanRecorder::consistent(std::string *why) const
{
    std::vector<ChildSums> c = childSums(spans_);
    char buf[200];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.v_end < s.v_begin || s.h_end < s.h_begin) {
            std::snprintf(buf, sizeof buf, "span %zu (%s.%s) ends before it "
                          "starts", i, s.layer, s.name);
            *why = buf;
            return false;
        }
        if (s.parent >= 0) {
            const Span &p = spans_[static_cast<std::size_t>(s.parent)];
            if (s.v_begin < p.v_begin || s.v_end > p.v_end ||
                s.h_begin < p.h_begin || s.h_end > p.h_end) {
                std::snprintf(buf, sizeof buf, "span %zu (%s.%s) leaves its "
                              "parent %s.%s", i, s.layer, s.name, p.layer,
                              p.name);
                *why = buf;
                return false;
            }
        }
        if (c[i].v + ownRemote(s, c[i]) > s.v_end - s.v_begin ||
            c[i].remote > s.remote) {
            std::snprintf(buf, sizeof buf, "span %zu (%s.%s) has negative "
                          "self time", i, s.layer, s.name);
            *why = buf;
            return false;
        }
    }
    return true;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::size_t n = std::min(spans_.size(), kMaxTraceSpans);
    std::fprintf(f,
                 "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"spans_recorded\":"
                 "%zu,\"spans_written\":%zu},\"traceEvents\":[\n",
                 spans_.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
        const Span &s = spans_[i];
        std::fprintf(
            f,
            "%s{\"name\":\"%s.%s\",\"cat\":\"%s\",\"ph\":\"X\","
            "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%u,\"tid\":%u,"
            "\"args\":{\"id\":%llu,\"parent\":%d,\"host_begin_ns\":%lld,"
            "\"host_dur_ns\":%lld,\"remote_ns\":%llu}}\n",
            i == 0 ? "" : ",", s.layer, s.name, s.layer,
            static_cast<double>(s.v_begin) / 1e3,
            static_cast<double>(s.v_end - s.v_begin) / 1e3, s.pid, s.tid,
            static_cast<unsigned long long>(s.id), s.parent,
            static_cast<long long>(s.h_begin),
            static_cast<long long>(s.h_end - s.h_begin),
            static_cast<unsigned long long>(s.remote));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

lake::Nanos
stageTotal(lake::obs::Stage stage)
{
    const lake::obs::ApiHistograms &h =
        lake::obs::Metrics::global().stage(stage);
    lake::Nanos t = 0;
    for (std::uint32_t a = 0; a < lake::obs::ApiHistograms::kMaxApi; ++a)
        t += h.at(a).sum();
    return t;
}

bool
putBudget(std::vector<Metric> &out, const SpanRecorder &rec,
          lake::Nanos total, std::string *why)
{
    if (!rec.consistent(why))
        return false;
    const lake::Nanos remote = obsRemoteNs();
    const lake::Nanos dispatch = stageTotal(lake::obs::Stage::Dispatch);
    const lake::Nanos execute = stageTotal(lake::obs::Stage::Execute);
    if (rec.remoteInside() != remote) {
        *why = "remoted commands ran outside every span";
        return false;
    }
    const lake::Nanos covered = rec.covered();
    if (covered > total || dispatch > remote || execute > dispatch) {
        *why = "spans or remoting stages exceed the phase";
        return false;
    }
    const double t = static_cast<double>(std::max<lake::Nanos>(1, total));
    std::map<std::string, lake::Nanos> self = rec.layerSelf();
    lake::Nanos sum = 0;
    auto put = [&](const std::string &layer, lake::Nanos v) {
        sum += v;
        out.push_back(Metric{"budget." + layer + "_frac",
                             static_cast<double>(v) / t, "ratio"});
    };
    for (const char *layer : {"serve", "registry", "policy", "ml", "crypto",
                              "fs"})
        put(layer, self.count(layer) ? self.at(layer) : 0);
    put("channel", remote - dispatch);
    put("remote", dispatch - execute);
    put("gpu", execute);
    put("other", total - covered);
    if (sum != total) {
        *why = "layer self times do not add up to the phase";
        return false;
    }
    return true;
}

} // namespace lakebench
