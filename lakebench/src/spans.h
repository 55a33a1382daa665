#ifndef LAKEBENCH_SPANS_H
#define LAKEBENCH_SPANS_H

/**
 * @file
 * The traced run's span recorder. Spans are recorded by the benchmark
 * around its own calls into each layer's public functions; the library
 * itself is not instrumented for this. Remoted commands issued inside a
 * span are carved out of its self time using the library's existing
 * obs stage histograms, so the remote, channel and gpu layers need no
 * spans of their own.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/time.h"
#include "harness.h"
#include "obs/metrics.h"

namespace lakebench {

/** One recorded span. */
struct Span
{
    const char *layer = "";
    const char *name = "";
    lake::Nanos v_begin = 0;
    lake::Nanos v_end = 0;
    std::int64_t h_begin = 0;
    std::int64_t h_end = 0;
    /** Index of the enclosing span; -1 for a root. */
    std::int32_t parent = -1;
    /** Request or batch the span belongs to. */
    std::uint64_t id = 0;
    /** Chrome-trace lane: shard and device. */
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;
    /** Virtual ns of remoted commands issued while the span was open. */
    lake::Nanos remote = 0;
};

/**
 * Virtual ns spent in remoted commands so far, read from the obs stage
 * histograms: the Rpc stage of two-way commands plus the Send stage of
 * one-way ones (each includes the daemon work its doorbell runs).
 */
lake::Nanos obsRemoteNs();

/** Virtual ns recorded so far in one obs stage, over every API. */
lake::Nanos stageTotal(lake::obs::Stage stage);

/**
 * In-memory span recorder. Disarmed (the default) it records nothing
 * and costs one branch per site.
 */
class SpanRecorder
{
  public:
    void arm(bool on) { armed_ = on; }
    bool armed() const { return armed_; }

    /** Opens a span nested in the innermost open one; returns its index. */
    int open(const char *layer, const char *name, lake::Nanos vnow,
             std::uint64_t id, std::uint32_t pid, std::uint32_t tid);
    /** Closes span @p idx, which must be the innermost open one. */
    void close(int idx, lake::Nanos vnow);

    const std::vector<Span> &spans() const { return spans_; }
    void clear();

    /**
     * Virtual self time per layer: a span's duration minus its
     * children's and minus the remoted commands it issued itself (which
     * the remote, channel and gpu layers account for).
     */
    std::map<std::string, lake::Nanos> layerSelf() const;

    /** Virtual ns covered by root spans. */
    lake::Nanos covered() const;

    /** Remoted virtual ns issued inside any span. */
    lake::Nanos remoteInside() const;

    /**
     * Checks nesting: every child lies inside its parent in both
     * clocks and every self time is non-negative. Describes the first
     * violation in @p why.
     */
    bool consistent(std::string *why) const;

    /** Spans a trace file holds at most (about 20 MB of JSON). */
    static constexpr std::size_t kMaxTraceSpans = 100000;

    /**
     * Writes the first kMaxTraceSpans spans as Chrome trace-event JSON
     * (pid = shard, tid = device).
     */
    bool writeChromeTrace(const std::string &path) const;

  private:
    bool armed_ = false;
    std::vector<Span> spans_;
    std::vector<int> stack_;
    std::vector<lake::Nanos> remote_at_open_;
};

/** RAII span around one call; a no-op while the recorder is disarmed. */
class SpanScope
{
  public:
    SpanScope(SpanRecorder &rec, const char *layer, const char *name,
              const lake::Clock &clock, std::uint64_t id = 0,
              std::uint32_t pid = 0, std::uint32_t tid = 0)
        : rec_(rec), clock_(clock)
    {
        if (rec_.armed())
            idx_ = rec_.open(layer, name, clock_.now(), id, pid, tid);
    }
    ~SpanScope()
    {
        if (idx_ >= 0)
            rec_.close(idx_, clock_.now());
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanRecorder &rec_;
    const lake::Clock &clock_;
    int idx_ = -1;
};

/**
 * The virtual-time budget of a traced phase lasting @p total virtual
 * ns: appends budget.<layer>_frac for the span layers (serve, registry,
 * policy, ml, crypto, fs), for the remoting layers split from the obs
 * stage histograms (channel: marshal, crossing and response; remote:
 * daemon dispatch; gpu: API execution), and budget.other_frac for the
 * time no span covers. Returns false, with the reason in @p why, when
 * the spans do not nest, a remoted command ran outside every span, or
 * the shares do not sum to one.
 */
bool putBudget(std::vector<Metric> &out, const SpanRecorder &rec,
               lake::Nanos total, std::string *why);

} // namespace lakebench

#endif // LAKEBENCH_SPANS_H
