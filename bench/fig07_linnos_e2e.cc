// Reproduces Fig. 7: average read latency of five workloads on a
// 3-NVMe array without I/O rerouting (baseline), with LinnOS-style
// rerouting through CPU inference, and with LAKE's batched CPU/GPU
// inference — for the original NN and the +1/+2 augmented models.
//
// Workloads: each named trace replayed on every NVMe ("Azure*",
// "Cosmos*", "Bing-I*"), a mixed workload with a different trace per
// device, and "Mixed+" with every trace re-rated to 3x IOPS.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "obs/obs.h"
#include "storage/e2e.h"
#include "storage/linnos.h"

using namespace lake;
using namespace lake::storage;

int
main()
{
    bench::banner("Fig. 7",
                  "end-to-end average read latency (us) with ML-driven "
                  "I/O rerouting");

    const Nanos kDuration = 400_ms;

    // Train the three model variants on a stressed workload trace, the
    // paper's offline-training step.
    Rng rng(2023);
    LinnosDataset train = collectLinnosData(
        TraceSpec::azure().rerated(3.0), NvmeSpec::samsung980Pro(),
        600_ms, 0.85, 7);
    std::vector<ml::Mlp> models;
    for (std::size_t extra = 0; extra <= 2; ++extra)
        models.push_back(trainLinnosModel(train, extra, 5, 0.05f, rng));
    const std::size_t gpu_threshold[3] = {8, 3, 2}; // Fig. 8 crossovers

    struct Workload
    {
        const char *name;
        std::vector<TraceSpec> traces;
    };
    std::vector<Workload> workloads = {
        {"Azure*", {TraceSpec::azure(), TraceSpec::azure(),
                    TraceSpec::azure()}},
        {"Cosmos*", {TraceSpec::cosmos(), TraceSpec::cosmos(),
                     TraceSpec::cosmos()}},
        {"Bing-I*", {TraceSpec::bingI(), TraceSpec::bingI(),
                     TraceSpec::bingI()}},
        {"Mixed", {TraceSpec::azure(), TraceSpec::bingI(),
                   TraceSpec::cosmos()}},
        {"Mixed+", {TraceSpec::azure().rerated(3.0),
                    TraceSpec::bingI().rerated(3.0),
                    TraceSpec::cosmos().rerated(3.0)}},
    };

    std::printf("%-9s %9s", "workload", "Baseline");
    for (const char *col : {"NN cpu", "NN LAKE", "NN+1cpu", "NN+1LAKE",
                            "NN+2cpu", "NN+2LAKE"})
        std::printf(" %9s", col);
    std::printf("  (reroute%%/gpu-batch%%)\n");

    for (const Workload &w : workloads) {
        E2eConfig base;
        base.mode = E2eMode::Baseline;
        base.duration = kDuration;
        base.threshold_us = train.threshold_us;
        E2eResult br = runE2e(w.traces, base);
        std::printf("%-9s %9.1f", w.name, br.avg_read_lat_us);

        double last_reroute = 0.0, last_gpu = 0.0;
        for (std::size_t v = 0; v < models.size(); ++v) {
            for (E2eMode mode : {E2eMode::CpuNn, E2eMode::LakeNn}) {
                E2eConfig cfg = base;
                cfg.mode = mode;
                cfg.model = &models[v];
                cfg.gpu_batch_threshold = gpu_threshold[v];
                E2eResult r = runE2e(w.traces, cfg);
                std::printf(" %9.1f", r.avg_read_lat_us);
                if (mode == E2eMode::LakeNn) {
                    last_reroute =
                        r.reads ? 100.0 * static_cast<double>(
                                              r.rerouted) /
                                      static_cast<double>(r.reads)
                                : 0.0;
                    last_gpu = r.inference_batches
                                   ? 100.0 *
                                         static_cast<double>(
                                             r.gpu_batches) /
                                         static_cast<double>(
                                             r.inference_batches)
                                   : 0.0;
                }
            }
        }
        std::printf("  (%.1f%%/%.0f%%)\n", last_reroute, last_gpu);
    }

    bench::expectation(
        "single-trace workloads on modern NVMes see little or no "
        "benefit (the NN cost can even hurt); mixed workloads that "
        "stress devices in dissimilar ways improve under both LinnOS "
        "and LAKE, and the ML benefit is preserved under GPU "
        "acceleration; LAKE gains on high-IOPS workloads from batching");

    // Opt-in tracing: when LAKE_OBS_TRACE names a file, the Lake
    // instances runE2e boots recorded the remoting lifecycle (the
    // configure() env hook enables the tracer); dump the Chrome trace
    // there. Reported on stderr so stdout stays byte-identical.
    if (const char *trace_path = obs::envTracePath()) {
        Status s = obs::writeChromeTrace(trace_path);
        std::fprintf(stderr, "%s\n",
                     s.isOk() ? (std::string("wrote trace ") + trace_path)
                                    .c_str()
                              : s.message().c_str());
    }
    return 0;
}
