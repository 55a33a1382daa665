// score_open and score_fleet: the paper's deployment under open-loop
// load. Tenants offer Poisson arrivals through serve::TrafficGenerator
// into the coalescing registry::ScoreServer; each flush asks the Fig. 3
// contention-aware policy (score_open) or the fleet placement policy
// (score_fleet) for an engine and runs the LinnOS MLP on the GPU through
// lakeLib, or on the CPU.
//
// Every rate and shape below is an absolute constant: nothing is scaled
// to a capacity measured at run time, so a faster layer shows up as
// lower latency or a higher slo_rate_vps rather than as more load.

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "core/lake.h"
#include "harness.h"
#include "layers.h"
#include "ml/backends.h"
#include "ml/mlp.h"
#include "obs/metrics.h"
#include "policy/policy.h"
#include "registry/manager.h"
#include "remote/fleet.h"
#include "remote/wire.h"
#include "score.h"
#include "serve/traffic.h"
#include "spans.h"
#include "storage/linnos.h"

namespace lakebench {

using lake::Nanos;

namespace {

/**
 * Generator events (arrivals and pumps) per host-time slice: a few
 * hundred ms of host work at the nominal rate.
 */
constexpr std::size_t kSliceEvents = 50000;

const std::array<std::string, lake::storage::kLinnosHistory> kLatFeature = {
    "io_lat0", "io_lat1", "io_lat2", "io_lat3"};

lake::ml::Matrix
featurize(const std::vector<lake::registry::FeatureVector> &fvs)
{
    lake::ml::Matrix x(fvs.size(), lake::storage::kLinnosFeatures);
    for (std::size_t r = 0; r < fvs.size(); ++r) {
        std::array<std::uint32_t, lake::storage::kLinnosHistory> hist{};
        for (std::size_t h = 0; h < lake::storage::kLinnosHistory; ++h)
            hist[h] = static_cast<std::uint32_t>(fvs[r].get(kLatFeature[h]));
        lake::storage::encodeLinnosFeatures(
            static_cast<std::uint32_t>(fvs[r].get("pend_ios")), hist,
            x.row(r));
    }
    return x;
}

lake::registry::Schema
linnosSchema()
{
    lake::registry::Schema schema;
    schema.add("pend_ios");
    for (const std::string &f : kLatFeature)
        schema.add(f);
    return schema;
}

/** The ExecPolicy decorator: times decide() and counts its engines. */
class ObservedPolicy final : public lake::policy::ExecPolicy
{
  public:
    struct Tally
    {
        std::uint64_t decisions = 0;
        std::uint64_t gpu = 0;
        std::int64_t host_ns = 0;
    };

    ObservedPolicy(std::unique_ptr<lake::policy::ExecPolicy> inner,
                   Tally &tally, SpanRecorder &rec, const lake::Clock &clock,
                   Nanos &dispatch_at, std::uint32_t lane)
        : inner_(std::move(inner)), tally_(tally), rec_(rec), clock_(clock),
          dispatch_at_(dispatch_at), lane_(lane)
    {}

    lake::policy::Engine
    decide(const lake::policy::PolicyInput &in) override
    {
        dispatch_at_ = clock_.now();
        SpanScope span(rec_, "policy", "decide", clock_, tally_.decisions,
                       lane_, lane_);
        std::int64_t h0 = rec_.armed() ? hostNs() : 0;
        lake::policy::Engine e = inner_->decide(in);
        if (rec_.armed())
            tally_.host_ns += hostNs() - h0;
        ++tally_.decisions;
        if (e == lake::policy::Engine::Gpu)
            ++tally_.gpu;
        return e;
    }

    const char *name() const override { return inner_->name(); }

  private:
    std::unique_ptr<lake::policy::ExecPolicy> inner_;
    Tally &tally_;
    SpanRecorder &rec_;
    const lake::Clock &clock_;
    Nanos &dispatch_at_;
    std::uint32_t lane_;
};

/** One device's serving path: its registries, models and generator. */
struct Lane
{
    std::size_t device = 0;
    lake::Clock *clock = nullptr;
    lake::registry::RegistryManager *mgr = nullptr;
    std::string sys;
    std::vector<std::string> regs;
    std::unique_ptr<lake::ml::KernelCpu> kcpu;
    std::unique_ptr<lake::ml::CpuMlp> cpu_mlp;
    std::unique_ptr<lake::ml::LakeMlp> gpu_mlp;
    std::unique_ptr<lake::serve::TrafficGenerator> gen;
    std::unique_ptr<lake::registry::RegistryManager> own_mgr;

    // Open-loop schedule.
    using Event = std::pair<Nanos, std::size_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        arrivals;
    lake::Rng arrival_rng{1};
    lake::Rng value_rng{2};
    double mean_gap_ns = 0.0;
    Nanos start = 0;
    Nanos end = 0;
    Nanos next_pump = 0;
    /** Due times of each tenant's admitted, undispatched requests. */
    std::vector<std::deque<Nanos>> due;
    /** The request the factory built last (for a refused submit). */
    std::size_t last_tenant = 0;
    Nanos last_due = 0;
    /** Set by the policy decorator when a flush starts. */
    Nanos dispatch_at = 0;

    /** Backlog (queued + server pending) at mid-run and at the horizon. */
    std::size_t backlog_mid = 0;
    std::size_t backlog_end = 0;
    bool mid_taken = false;
    Nanos runahead_end = 0;

    Nanos
    nextEvent() const
    {
        Nanos ta = arrivals.empty() ? end + 1 : arrivals.top().first;
        return std::min(ta, next_pump);
    }

    std::size_t
    backlog() const
    {
        std::size_t q = 0;
        for (const lake::serve::Tenant &t : gen->tenantStates())
            q += t.queue.size();
        return q + mgr->scorer()->pending();
    }
};

} // namespace

/** One booted scoring system (one round of the workload). */
class ScoreSystem
{
  public:
    ScoreSystem(const ScoreShape &shape, SpanRecorder &rec, bool traced);
    ~ScoreSystem();

    ScoreSystem(const ScoreSystem &) = delete;
    ScoreSystem &operator=(const ScoreSystem &) = delete;

    /** One batch down each engine of every lane (part of set-up). */
    void warmup(std::uint64_t seed);

    /**
     * Offers @p vps per device for @p duration, then drains, timing its
     * host work on @p timer in slices of kSliceEvents events.
     */
    void run(double vps, Nanos duration, std::uint64_t seed, HostTimer &timer);

    RoundResult result() const;

  private:
    void buildLane(std::size_t d);
    std::vector<float> classify(Lane &lane, const std::string &key, bool gpu,
                                const std::vector<lake::registry::FeatureVector> &fvs);
    lake::Result<std::vector<int>> runGpu(Lane &lane, const std::string &key,
                                          const lake::ml::Matrix &x);
    void offer(Lane &lane, std::size_t tenant, Nanos t);
    void pump(Lane &lane, Nanos t);
    void drain(Lane &lane);
    void collectLayers(RoundResult &r) const;

    ScoreShape shape_;
    SpanRecorder &rec_;
    bool traced_;
    std::unique_ptr<lake::core::Lake> lake_;
    lake::Rng model_rng_{42};
    lake::ml::Mlp model_{lake::ml::MlpConfig::linnos(), model_rng_};
    std::vector<std::unique_ptr<lake::ml::LakeMlp>> fleet_mlps_;
    std::vector<std::unique_ptr<Lane>> lanes_;

    // Tallies of the timed phase.
    LatencySample latency_;
    LatencySample lag_;
    LatencySample queue_;
    ObservedPolicy::Tally policy_;
    std::uint64_t requests_ = 0;
    std::uint64_t batches_ = 0;
    std::uint64_t gpu_batches_ = 0;
    std::uint64_t cpu_batches_ = 0;
    std::uint64_t gpu_vectors_ = 0;
    std::uint64_t cpu_vectors_ = 0;
    Nanos gpu_virtual_ = 0;
    Nanos cpu_virtual_ = 0;
    std::int64_t ml_host_ns_ = 0;
    std::uint64_t mismatches_ = 0;
    /** Times run(); output checks are left out of it. */
    HostTimer *timer_ = nullptr;
    std::int64_t host_ns_ = 0;
    double scaled_host_ns_ = 0.0;
    Nanos virtual_ns_ = 0;
    Nanos makespan_ns_ = 0;
    std::vector<std::string> errors_;

    /** Remoting counters at the start of the timed phase. */
    RemoteSnapshot remote0_;
};

ScoreSystem::ScoreSystem(const ScoreShape &shape, SpanRecorder &rec,
                         bool traced)
    : shape_(shape), rec_(rec), traced_(traced)
{
    lake::core::LakeConfig cfg;
    cfg.obs.metrics = traced;
    cfg.obs.trace = traced;
    if (shape_.devices == 1) {
        cfg.scoring.enabled = true;
        cfg.scoring.max_batch = kMaxBatch;
        cfg.scoring.queue_capacity = kServerQueue;
    } else {
        cfg.fleet.enabled = true;
        cfg.fleet.devices = shape_.devices;
        cfg.fleet.shards = shape_.devices;
    }
    lake_ = std::make_unique<lake::core::Lake>(cfg);

    if (lake_->fleet() != nullptr) {
        // One model copy per device, uploaded through the owning shard
        // while that device is active so its pointers live in the
        // device's own VA window.
        lake::remote::ShardFleet &shards = *lake_->shardFleet();
        for (std::size_t d = 0; d < shape_.devices; ++d) {
            lake::remote::LakeShard &sh = shards.shardFor(d);
            std::lock_guard<std::mutex> lock(sh.mu());
            if (sh.activate(shards.localIndex(d)) !=
                lake::gpu::CuResult::Success) {
                errors_.push_back("device activation failed");
                return;
            }
            fleet_mlps_.push_back(std::make_unique<lake::ml::LakeMlp>(
                model_, sh.lib(), /*sync_copy=*/true, kMaxBatch));
        }
        // Pin each device's registries to it before the first decision
        // (the router seeds placements round-robin in first-use order).
        for (std::size_t r = 0; r < kRegistries; ++r)
            for (std::size_t d = 0; d < shape_.devices; ++d)
                lake_->router()->lastPlacement("d" + std::to_string(d) +
                                               ".r" + std::to_string(r));
    }
    for (std::size_t d = 0; d < shape_.devices; ++d)
        buildLane(d);
}

ScoreSystem::~ScoreSystem()
{
    // Generators hold callbacks into this object; retire them (which
    // flushes their ScoreServer) before anything else goes.
    for (auto &lane : lanes_)
        lane->gen.reset();
}

void
ScoreSystem::buildLane(std::size_t d)
{
    auto lane = std::make_unique<Lane>();
    Lane &l = *lane;
    l.device = d;
    const bool fleet = lake_->fleet() != nullptr;
    if (fleet) {
        lake::remote::LakeShard &sh = lake_->shardFleet()->shardFor(d);
        l.clock = &sh.clock();
        l.own_mgr = std::make_unique<lake::registry::RegistryManager>(sh.clock());
        l.mgr = l.own_mgr.get();
        l.kcpu = std::make_unique<lake::ml::KernelCpu>(sh.clock(),
                                                       lake_->config().cpu);
        l.cpu_mlp = std::make_unique<lake::ml::CpuMlp>(model_, *l.kcpu);
    } else {
        l.clock = &lake_->clock();
        l.mgr = &lake_->registries();
        l.cpu_mlp =
            std::make_unique<lake::ml::CpuMlp>(model_, lake_->kernelCpu());
        l.gpu_mlp = std::make_unique<lake::ml::LakeMlp>(
            model_, lake_->lib(), /*sync_copy=*/true, kMaxBatch);
    }
    l.sys = shape_.name + ".d" + std::to_string(d);
    for (std::size_t r = 0; r < kRegistries; ++r) {
        std::string name = "d" + std::to_string(d) + ".r" + std::to_string(r);
        l.regs.push_back(name);
        if (!l.mgr->createRegistry(name, l.sys, linnosSchema(), 8).isOk()) {
            errors_.push_back("createRegistry failed");
            return;
        }
        lake::registry::Registry *reg = l.mgr->find(name, l.sys);
        reg->registerClassifier(
            lake::registry::Arch::Cpu,
            [this, &l, name](const std::vector<lake::registry::FeatureVector> &f) {
                return classify(l, name, false, f);
            });
        reg->registerClassifier(
            lake::registry::Arch::Gpu,
            [this, &l, name](const std::vector<lake::registry::FeatureVector> &f) {
                return classify(l, name, true, f);
            });
        std::unique_ptr<lake::policy::ExecPolicy> inner;
        if (fleet)
            inner = lake_->router()->policyFor(name);
        else
            inner = lake_->degradationGuard(
                std::make_unique<lake::policy::ContentionAwarePolicy>(
                    lake_->nvmlProbe(), lake::policy::ContentionConfig{}));
        reg->registerPolicy(std::make_unique<ObservedPolicy>(
            std::move(inner), policy_, rec_, *l.clock, l.dispatch_at,
            static_cast<std::uint32_t>(d)));
    }
    if (fleet) {
        lake::registry::ScoringConfig scfg;
        scfg.enabled = true;
        scfg.max_batch = kMaxBatch;
        scfg.queue_capacity = kServerQueue;
        if (!l.mgr->enableScoring(scfg).isOk()) {
            errors_.push_back("enableScoring failed");
            return;
        }
    }
    lanes_.push_back(std::move(lane));
}

lake::Result<std::vector<int>>
ScoreSystem::runGpu(Lane &lane, const std::string &key,
                    const lake::ml::Matrix &x)
{
    if (lake_->fleet() == nullptr)
        return lane.gpu_mlp->tryClassify(x);
    lake::remote::FleetRouter &router = *lake_->router();
    lake::remote::ShardFleet &shards = *lake_->shardFleet();
    std::size_t dev = router.lastPlacement(key);
    router.noteDispatch(dev, x.rows());
    lake::remote::LakeShard &sh = shards.shardFor(dev);
    lake::Result<std::vector<int>> r(
        lake::Status(lake::Code::Unavailable, "device activation failed"));
    {
        std::lock_guard<std::mutex> lock(sh.mu());
        if (sh.activate(shards.localIndex(dev)) ==
            lake::gpu::CuResult::Success)
            r = fleet_mlps_[dev]->tryClassify(x);
    }
    router.noteDone(dev);
    if (!r.isOk())
        sh.health().fallbacks.fetch_add(1);
    return r;
}

std::vector<float>
ScoreSystem::classify(Lane &lane, const std::string &key, bool gpu,
                      const std::vector<lake::registry::FeatureVector> &fvs)
{
    const std::uint64_t id = ++batches_;
    const Nanos v0 = lane.clock->now();
    lake::ml::Matrix x;
    std::vector<int> labels;
    bool on_gpu = false;
    {
        SpanScope span(rec_, "ml", gpu ? "gpu_classify" : "cpu_classify",
                       *lane.clock, id, static_cast<std::uint32_t>(lane.device),
                       static_cast<std::uint32_t>(lane.device));
        const std::int64_t h0 = traced_ ? hostNs() : 0;
        x = featurize(fvs);
        if (gpu) {
            lake::Result<std::vector<int>> r = runGpu(lane, key, x);
            if (r.isOk()) {
                labels = r.takeValue();
                on_gpu = true;
            } else {
                // Remoting failed mid-batch: finish on the CPU, the same
                // contract the library's own call sites follow.
                if (lake_->fleet() == nullptr)
                    lake_->noteFallback();
            }
        }
        if (!on_gpu)
            labels = lane.cpu_mlp->classify(x);
        if (traced_)
            ml_host_ns_ += hostNs() - h0;
    }
    const Nanos v1 = lane.clock->now();
    if (on_gpu) {
        ++gpu_batches_;
        gpu_vectors_ += fvs.size();
        gpu_virtual_ += v1 - v0;
    } else {
        ++cpu_batches_;
        cpu_vectors_ += fvs.size();
        cpu_virtual_ += v1 - v0;
    }
    for (const lake::registry::FeatureVector &fv : fvs) {
        latency_.add(lake::toUs(v1 - fv.ts_begin));
        queue_.add(lake::toUs(lane.dispatch_at - fv.ts_end));
    }

    // Output check against the host reference model; its host time is
    // excluded from the measured phase.
    const std::int64_t c0 = cpuNs();
    if (model_.classify(x) != labels) {
        ++mismatches_;
        if (errors_.size() < 5)
            errors_.push_back(std::string(on_gpu ? "GPU" : "CPU") +
                              " batch labels differ from the reference Mlp");
    }
    if (timer_)
        timer_->exclude(cpuNs() - c0);
    return std::vector<float>(labels.begin(), labels.end());
}

void
ScoreSystem::offer(Lane &lane, std::size_t tenant, Nanos t)
{
    lane.clock->advanceTo(t);
    lag_.add(lake::toUs(lane.clock->now() - t));
    const lake::serve::Tenant &ts = lane.gen->tenantStates()[tenant];
    const std::uint64_t sheds = ts.queue_sheds;
    if (!lane.gen->offer(tenant, t).isOk()) {
        latency_.refuse();
        return;
    }
    if (ts.queue_sheds != sheds) {
        // The generator shed this tenant's oldest queued request.
        lane.due[tenant].pop_front();
        latency_.refuse();
    }
    lane.due[tenant].push_back(t);
}

void
ScoreSystem::pump(Lane &lane, Nanos t)
{
    lane.clock->advanceTo(t);
    lake::registry::ScoreServer &server = *lane.mgr->scorer();
    const std::uint64_t rejected = server.rejected();
    lane.gen->pump(t);
    if (server.rejected() != rejected) {
        // Backpressure: the generator re-queued the request the factory
        // built last, at the front of its tenant's queue.
        lane.due[lane.last_tenant].push_front(lane.last_due);
    }
}

void
ScoreSystem::drain(Lane &lane)
{
    auto queued = [&lane] {
        std::size_t q = 0;
        for (const lake::serve::Tenant &t : lane.gen->tenantStates())
            q += t.queue.size();
        return q;
    };
    while (queued() > 0) {
        lane.next_pump = std::max(lane.next_pump, lane.clock->now()) +
                         kPumpInterval;
        pump(lane, lane.next_pump);
    }
    lane.mgr->scorer()->flushAll(lane.clock->now());
}

void
ScoreSystem::warmup(std::uint64_t seed)
{
    if (!errors_.empty())
        return;
    // Lazy first-use costs land in set-up, not in the first timed
    // requests.
    for (auto &lp : lanes_) {
        Lane &l = *lp;
        lake::Rng rng(seed ^ 0x5eedull);
        std::vector<lake::registry::FeatureVector> fvs(kMaxBatch);
        for (auto &fv : fvs)
            fv = makeLinnosRequest(rng, l.clock->now());
        lake::ml::Matrix x = featurize(fvs);
        (void)runGpu(l, l.regs[0], x);
        (void)l.cpu_mlp->classify(x);
    }
}

void
ScoreSystem::run(double vps, Nanos duration, std::uint64_t seed, HostTimer &timer)
{
    if (!errors_.empty())
        return;
    lake::obs::Metrics::global().reset();
    lake::obs::Tracer::global().clear();
    remote0_ = snapshotRemote(*lake_);

    timer_ = &timer;
    auto slice = [this] {
        const HostSlice s = timer_->split();
        host_ns_ += s.ns;
        scaled_host_ns_ += s.scaledNs();
    };
    std::size_t events = 0;
    for (auto &lp : lanes_) {
        Lane &l = *lp;
        lake::serve::ServeConfig cfg;
        cfg.enabled = true;
        cfg.tenants = kTenants;
        cfg.rate_rps = vps / static_cast<double>(kTenants);
        cfg.bucket_rate = kBucketRate;
        cfg.bucket_burst = kBucketBurst;
        cfg.queue_capacity = kTenantQueue;
        cfg.drr_quantum = kDrrQuantum;
        cfg.pump_interval = kPumpInterval;
        cfg.shards = kRegistries;
        l.gen = std::make_unique<lake::serve::TrafficGenerator>(
            *l.mgr, *l.clock, cfg, l.sys, l.regs);
        l.gen->setRequestFactory([this, &l](std::size_t tenant, Nanos now) {
            SpanScope span(rec_, "serve", "request", *l.clock, ++requests_,
                           static_cast<std::uint32_t>(l.device),
                           static_cast<std::uint32_t>(l.device));
            l.last_tenant = tenant;
            l.last_due = l.due[tenant].front();
            l.due[tenant].pop_front();
            lake::registry::FeatureVector fv =
                makeLinnosRequest(l.value_rng, l.last_due);
            fv.ts_end = now; // enqueue time, for registry.queue_us
            return fv;
        });
        l.due.assign(kTenants, {});
        l.arrival_rng = lake::Rng(seed * 0x9e3779b97f4a7c15ull + 2 * l.device + 1);
        l.value_rng = lake::Rng(seed * 0x9e3779b97f4a7c15ull + 2 * l.device + 2);
        l.mean_gap_ns = 1e9 / cfg.rate_rps;
        l.start = l.clock->now();
        l.end = l.start + duration;
        l.next_pump = l.start + kPumpInterval;
        for (std::size_t t = 0; t < kTenants; ++t)
            l.arrivals.push({l.start + static_cast<Nanos>(
                                           l.arrival_rng.exponential(l.mean_gap_ns)),
                             t});
    }

    // One load-generating thread interleaves every lane's events in
    // virtual-time order (lanes own separate shard clocks).
    for (;;) {
        Lane *next = nullptr;
        Nanos t = 0;
        for (auto &lp : lanes_) {
            Nanos e = lp->nextEvent();
            if (e <= lp->end && (next == nullptr || e < t)) {
                next = lp.get();
                t = e;
            }
        }
        if (next == nullptr)
            break;
        if (++events % kSliceEvents == 0)
            slice();
        Lane &l = *next;
        if (!l.mid_taken && t >= l.start + duration / 2) {
            l.backlog_mid = l.backlog();
            l.mid_taken = true;
        }
        if (!l.arrivals.empty() && l.arrivals.top().first == t) {
            std::size_t tenant = l.arrivals.top().second;
            l.arrivals.pop();
            l.arrivals.push(
                {t + static_cast<Nanos>(l.arrival_rng.exponential(l.mean_gap_ns)),
                 tenant});
            offer(l, tenant, t);
        } else {
            pump(l, t);
            l.next_pump += kPumpInterval;
        }
    }
    for (auto &lp : lanes_) {
        lp->backlog_end = lp->backlog();
        lp->runahead_end = lp->clock->now() > lp->end
                               ? lp->clock->now() - lp->end
                               : 0;
        drain(*lp);
        virtual_ns_ += lp->clock->now() - lp->start;
        makespan_ns_ = std::max(makespan_ns_, lp->clock->now() - lp->start);
    }
    slice();
    timer_ = nullptr;
}

RoundResult
ScoreSystem::result() const
{
    RoundResult r;
    r.errors = errors_;
    r.p50 = latency_.percentile(50.0);
    r.p99 = latency_.percentile(99.0);
    r.p999 = latency_.percentile(99.9);
    r.lag_p99 = lag_.percentile(99.0);
    r.queue_p99 = queue_.percentile(99.0);
    r.host_s = static_cast<double>(host_ns_) / 1e9;
    r.scaled_host_s = scaled_host_ns_ / 1e9;
    r.virtual_ns = virtual_ns_;
    r.makespan_ns = makespan_ns_;
    r.mismatches = mismatches_;
    r.batches = batches_;
    r.gpu_batches = gpu_batches_;
    for (const auto &lp : lanes_) {
        const Lane &l = *lp;
        if (!l.gen) {
            r.errors.push_back("lane never ran");
            continue;
        }
        lake::serve::ServeSummary s = l.gen->summary(l.end - l.start);
        r.arrivals += s.arrivals;
        r.admits += s.admits;
        r.bucket_rejects += s.bucket_rejects;
        r.queue_sheds += s.queue_sheds;
        r.completions += s.completions;
        r.failures += s.failures;
        if (s.arrivals != s.admits + s.bucket_rejects ||
            s.admits != s.completions + s.queue_sheds + s.failures +
                            s.queued_residual)
            r.errors.push_back("generator lost requests (conservation)");
        if (l.backlog_end > l.backlog_mid + kBacklogSlack ||
            l.runahead_end > kLatencyLimit)
            r.backlog_grew = true;
    }
    if (r.completions != gpu_vectors_ + cpu_vectors_)
        r.errors.push_back("completions differ from vectors scored");
    if (latency_.count() != r.arrivals)
        r.errors.push_back("latency sample misses arrivals");
    r.vectors = gpu_vectors_ + cpu_vectors_;
    if (traced_)
        collectLayers(r);
    return r;
}

void
ScoreSystem::collectLayers(RoundResult &r) const
{
    lake::core::Lake &lake = *lake_;
    const lake::obs::Metrics &m = lake::obs::Metrics::global();
    using lake::obs::Stage;
    using lake::remote::ApiId;
    auto put = [&r](const char *name, double v, const char *unit) {
        r.layers.push_back(Metric{name, v, unit});
    };
    const double ops = static_cast<double>(std::max<std::uint64_t>(1, gpu_batches_));
    const double arrivals = static_cast<double>(std::max<std::uint64_t>(1, r.arrivals));

    put("serve.admit_frac", static_cast<double>(r.admits) / arrivals, "ratio");
    put("serve.shed_frac",
        static_cast<double>(r.queue_sheds + r.failures) / arrivals, "ratio");
    put("serve.gen_lag_us", r.lag_p99.value, "us");

    std::uint64_t flushes = 0, rejects = 0;
    for (const auto &lp : lanes_) {
        flushes += lp->mgr->scorer()->flushes();
        rejects += lp->mgr->scorer()->rejected();
    }
    put("registry.batch",
        static_cast<double>(r.vectors) /
            static_cast<double>(std::max<std::uint64_t>(1, flushes)),
        "vectors");
    put("registry.queue_us", r.queue_p99.value, "us");
    put("registry.rejects", static_cast<double>(rejects), "count");

    const double decisions =
        static_cast<double>(std::max<std::uint64_t>(1, policy_.decisions));
    put("policy.decide_ns", static_cast<double>(policy_.host_ns) / decisions, "ns");
    put("policy.gpu_frac", static_cast<double>(policy_.gpu) / decisions, "ratio");
    const lake::obs::Histogram &nvml =
        m.stage(Stage::Rpc).at(static_cast<std::uint32_t>(ApiId::NvmlGetUtilization));
    put("policy.probes", static_cast<double>(nvml.count()), "count");
    put("policy.probe_us",
        nvml.count() ? lake::toUs(nvml.sum()) / static_cast<double>(nvml.count()) : 0.0,
        "us");

    put("ml.gpu_batch_us",
        gpu_batches_ ? lake::toUs(gpu_virtual_) / static_cast<double>(gpu_batches_) : 0.0,
        "us");
    put("ml.cpu_batch_us",
        cpu_batches_ ? lake::toUs(cpu_virtual_) / static_cast<double>(cpu_batches_) : 0.0,
        "us");
    put("ml.host_ns_per_vec",
        static_cast<double>(ml_host_ns_) /
            static_cast<double>(std::max<std::uint64_t>(1, r.vectors)),
        "ns");

    const RemoteSnapshot now = snapshotRemote(lake);
    putRemoteLayers(r.layers, remote0_, now, ops);
    std::vector<double> util;
    for (std::size_t d = 0; d < now.busy.size(); ++d) {
        const Lane &l = *lanes_[d];
        util.push_back(100.0 * static_cast<double>(now.busy[d] - remote0_.busy[d]) /
                       static_cast<double>(std::max<Nanos>(1, l.clock->now() - l.start)));
    }
    double util_mean = 0.0;
    for (double u : util)
        util_mean += u / static_cast<double>(util.size());
    put("gpu.util_pct", util_mean, "%");
    // Computed from tensor shapes: 31 float features in, 2 logits out.
    put("gpu.bytes_per_op",
        static_cast<double>(gpu_vectors_ * (lake::storage::kLinnosFeatures + 2) *
                            sizeof(float)) / ops,
        "bytes");
    put("fleet.util_min_pct", *std::min_element(util.begin(), util.end()), "%");
    put("fleet.util_max_pct", *std::max_element(util.begin(), util.end()), "%");
    put("fleet.migrations",
        lake.router() ? static_cast<double>(lake.router()->migrations()) : 0.0,
        "count");
    // Shard skew: max over min virtual busy time (time inside root spans).
    std::vector<Nanos> shard_busy(lanes_.size(), 0);
    for (const Span &s : rec_.spans())
        if (s.parent < 0 && s.pid < shard_busy.size())
            shard_busy[s.pid] += s.v_end - s.v_begin;
    Nanos bmin = *std::min_element(shard_busy.begin(), shard_busy.end());
    Nanos bmax = *std::max_element(shard_busy.begin(), shard_busy.end());
    put("fleet.shard_skew",
        bmin ? static_cast<double>(bmax) / static_cast<double>(bmin) : 0.0, "ratio");

    // Per-batch budget of a GPU batch, virtual us (see README.md). The
    // rows add up to the batch's virtual time; kernel_us is the device's
    // busy time, which overlaps the crossing of the DtoH command.
    const Nanos nvml_rpc = nvml.sum();
    Nanos send = 0, disp = 0, exec = 0, own = 0;
    for (ApiId id : {ApiId::CuMemcpyHtoDShm, ApiId::CuLaunchKernel,
                     ApiId::CuMemcpyDtoHShm}) {
        send += stageSum(Stage::Send, id);
        disp += stageSum(Stage::Dispatch, id);
        exec += stageSum(Stage::Execute, id);
        own += id == ApiId::CuLaunchKernel ? stageSum(Stage::Send, id)
                                           : stageSum(Stage::Rpc, id);
    }
    const Nanos htod = stageSum(Stage::Execute, ApiId::CuMemcpyHtoDShm);
    const Nanos launch = stageSum(Stage::Execute, ApiId::CuLaunchKernel);
    const Nanos dtoh = stageSum(Stage::Execute, ApiId::CuMemcpyDtoHShm);
    const Nanos host_side = gpu_virtual_ > own ? gpu_virtual_ - own : 0;
    Nanos kernel = 0;
    for (std::size_t d = 0; d < now.busy.size(); ++d)
        kernel += now.busy[d] - remote0_.busy[d];
    put("batch.nvml_probe_us", lake::toUs(nvml_rpc) / ops, "us");
    put("batch.marshal_crossing_us", lake::toUs(send - disp) / ops, "us");
    put("batch.daemon_dispatch_us", lake::toUs(disp - exec) / ops, "us");
    put("batch.htod_us", lake::toUs(htod) / ops, "us");
    put("batch.launch_us", lake::toUs(launch) / ops, "us");
    put("batch.kernel_us", lake::toUs(kernel) / ops, "us");
    put("batch.dtoh_us", lake::toUs(dtoh) / ops, "us");
    put("batch.response_us", lake::toUs(own - send) / ops, "us");
    put("batch.host_us", lake::toUs(host_side) / ops, "us");
    put("batch.total_us", lake::toUs(gpu_virtual_ + nvml_rpc) / ops, "us");

    std::string why;
    if (!putBudget(r.layers, rec_, virtual_ns_, &why))
        r.errors.push_back("budget does not reconcile: " + why);
}

bool
RoundResult::sameVirtual(const RoundResult &o) const
{
    return p50.value == o.p50.value && p99.value == o.p99.value &&
           p999.value == o.p999.value && virtual_ns == o.virtual_ns &&
           makespan_ns == o.makespan_ns && arrivals == o.arrivals &&
           completions == o.completions && refused() == o.refused() &&
           batches == o.batches && gpu_batches == o.gpu_batches;
}

RoundResult
scoreRound(const ScoreShape &shape, double vps, std::size_t arrivals,
           std::uint64_t seed, SpanRecorder &rec, bool traced, bool scale)
{
    // The simulator's state reaches beyond L2, so the memory reference
    // scales it.
    HostTimer timer(scale, Reference::Memory);
    // Set-up: boot, registries, model upload and warm-up, up to the
    // first timed request.
    ScoreSystem sys(shape, rec, traced);
    sys.warmup(seed);
    const HostSlice setup = timer.split();

    rec.clear();
    rec.arm(traced);
    sys.run(vps, static_cast<Nanos>(static_cast<double>(arrivals) / vps * 1e9),
            seed, timer);
    RoundResult r = sys.result();
    rec.arm(false);
    r.setup_s = static_cast<double>(setup.ns) / 1e9;
    r.scaled_setup_s = setup.scaledNs() / 1e9;
    return r;
}

lake::registry::FeatureVector
makeLinnosRequest(lake::Rng &rng, Nanos due)
{
    lake::registry::FeatureVector fv;
    fv.ts_begin = due;
    fv.ts_end = due;
    fv.values[lake::registry::featureKey("pend_ios")] = {rng.uniformInt(0, 31)};
    for (const std::string &f : kLatFeature)
        fv.values[lake::registry::featureKey(f)] = {rng.uniformInt(50, 2000)};
    return fv;
}

SloSearch
searchSlo(double lo, double hi, double step,
          const std::function<bool(double)> &passes)
{
    SloSearch s;
    auto probe = [&](std::size_t i) {
        const double rate = lo + step * static_cast<double>(i);
        auto it = s.probed.find(rate);
        if (it != s.probed.end())
            return it->second;
        return s.probed[rate] = passes(rate);
    };
    const auto n =
        static_cast<std::size_t>(std::floor((hi - lo) / step + 1e-9));
    if (!probe(0))
        return s;
    if (probe(n)) {
        s.rate = lo + step * static_cast<double>(n);
        s.capped = true;
        return s;
    }
    std::size_t pass = 0, fail = n; // probe(pass) passed, probe(fail) failed
    while (fail - pass > 1) {
        const std::size_t mid = pass + (fail - pass) / 2;
        if (probe(mid))
            pass = mid;
        else
            fail = mid;
    }
    s.rate = lo + step * static_cast<double>(pass);
    return s;
}

bool
meetsSlo(RoundResult &r)
{
    const double attempted =
        static_cast<double>(std::max<std::uint64_t>(1, r.arrivals));
    return r.errors.empty() && r.mismatches == 0 && r.p99.ok &&
           r.p99.value <= lake::toUs(kLatencyLimit) &&
           static_cast<double>(r.refused()) / attempted <= kMaxFailFrac &&
           !r.backlog_grew;
}

namespace {

/** Scored payload per vector: 31 float features in, 2 logits out. */
constexpr double kPayloadBytes =
    (lake::storage::kLinnosFeatures + 2) * sizeof(float);

/** The largest relative difference between two virtual outputs. */
double
drift(double a, double b)
{
    if (a == b)
        return 0.0;
    return std::fabs(a - b) / std::max(std::fabs(a), std::fabs(b));
}

Outcome
runScore(const Options &opt, const ScoreShape &shape)
{
    Outcome out;
    SpanRecorder rec;
    const double devices = static_cast<double>(shape.devices);

    auto check = [&out](const RoundResult &r, const char *what) {
        for (const std::string &e : r.errors)
            out.fail(std::string(what) + ": " + e);
    };
    auto search = [&](bool traced) {
        SloSearch s = searchSlo(
            kSearchLoVps, kSearchHiVps, kSearchStepVps, [&](double vps) {
                RoundResult r =
                    scoreRound(shape, vps, kProbeArrivals, opt.seed, rec, traced);
                check(r, "slo probe");
                return meetsSlo(r);
            });
        const double next = s.rate + kSearchStepVps;
        if (s.rate > 0.0 &&
            (!s.probed.at(s.rate) ||
             (!s.capped && s.probed.count(next) && s.probed.at(next))))
            out.fail("slo search did not bracket its result");
        return s;
    };

    const SloSearch slo = search(false);
    // A traced run repeats the search with tracing on before its rounds,
    // so the spans left for the trace file are a nominal round's.
    const SloSearch slo_traced = opt.trace ? search(true) : slo;
    std::vector<double> setup_s, host_vps, host_mbps, overhead;
    RoundResult first, traced_round;
    repeatFor(opt.seconds, opt.trace ? 1 : 3, [&](std::size_t round) {
        RoundResult r = scoreRound(shape, kNominalVps, kRoundArrivals, opt.seed,
                                   rec, false, !opt.trace);
        check(r, "nominal round");
        setup_s.push_back(r.scaled_setup_s);
        host_vps.push_back(static_cast<double>(r.vectors) / r.scaled_host_s);
        host_mbps.push_back(static_cast<double>(r.vectors) * kPayloadBytes /
                            r.scaled_host_s / 1e6);
        if (round == 0)
            first = r;
        else if (!r.sameVirtual(first))
            out.fail("rounds with one seed disagree in virtual time");
        if (opt.trace) {
            RoundResult t = scoreRound(shape, kNominalVps, kRoundArrivals,
                                       opt.seed, rec, true);
            check(t, "traced round");
            overhead.push_back(t.host_s / r.host_s - 1.0);
            traced_round = std::move(t);
        }
    });

    out.attempted = first.arrivals;
    out.failed = first.refused() + first.mismatches;
    if (first.mismatches)
        out.fail(std::to_string(first.mismatches) +
                 " batches scored labels that differ from the reference Mlp");
    std::printf("%s\n%s\n%s\n", describe("p50_us", first.p50).c_str(),
                describe("p99_us", first.p99).c_str(),
                describe("p999_us", first.p999).c_str());
    std::printf("slo search: %zu probes, %.0f vectors/s per device%s\n",
                slo.probed.size(), slo.rate, slo.capped ? " (grid top)" : "");
    for (const Percentile *p : {&first.p50, &first.p99, &first.p999})
        if (!p->ok)
            out.fail("a latency percentile has fewer than 10 samples beyond it");

    if (!opt.trace) {
        out.put("setup_s", median(setup_s), "s");
        out.put("rss_mb", peakRssMb(), "MiB");
        out.put("p50_us", first.p50.value, "us");
        out.put("p99_us", first.p99.value, "us");
        out.put("p999_us", first.p999.value, "us");
        out.put("slo_rate_vps", slo.rate * devices, "vectors/s");
        out.put("host_vps", median(host_vps), "vectors/s");
        out.put("crypt_mbps",
                static_cast<double>(first.vectors) * kPayloadBytes /
                    lake::toSec(first.makespan_ns) / 1e6,
                "MB/s");
        out.put("host_mbps", median(host_mbps), "MB/s");
        return out;
    }

    // Traced run: the virtual-time outputs must not move.
    double d = drift(slo.rate, slo_traced.rate);
    d = std::max({d, drift(first.p50.value, traced_round.p50.value),
                  drift(first.p99.value, traced_round.p99.value),
                  drift(first.p999.value, traced_round.p999.value),
                  drift(static_cast<double>(first.makespan_ns),
                        static_cast<double>(traced_round.makespan_ns))});
    if (!first.sameVirtual(traced_round) || d != 0.0)
        out.fail("tracing moved virtual time");
    for (const Metric &m : traced_round.layers)
        out.put(m.name, m.value, m.unit);
    out.put("fail_frac",
            static_cast<double>(out.failed) /
                static_cast<double>(std::max<std::uint64_t>(1, out.attempted)),
            "ratio");
    out.put("obs.host_overhead_frac", median(overhead), "ratio");
    out.put("obs.virtual_drift", d, "ratio");
    if (!opt.trace_out.empty() && !rec.writeChromeTrace(opt.trace_out))
        out.fail("cannot write " + opt.trace_out);

    std::printf("per-batch virtual budget of a %zu-vector GPU batch (us):\n",
                kMaxBatch);
    for (const char *row :
         {"batch.nvml_probe_us", "batch.marshal_crossing_us",
          "batch.daemon_dispatch_us", "batch.htod_us", "batch.launch_us",
          "batch.dtoh_us", "batch.response_us", "batch.host_us",
          "batch.total_us", "batch.kernel_us"})
        std::printf("  %-28s %10.3f\n", row, out.get(row));
    return out;
}

} // namespace

Outcome
runScoreOpen(const Options &opt)
{
    return runScore(opt, ScoreShape{"score_open", 1});
}

Outcome
runScoreFleet(const Options &opt)
{
    return runScore(opt, ScoreShape{"score_fleet", 4});
}

} // namespace lakebench
