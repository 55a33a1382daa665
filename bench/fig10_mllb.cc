// Reproduces Fig. 10: time taken to predict load-balancing decisions
// using MLLB for variable batch sizes (CPU, LAKE with pre-staged data,
// LAKE with synchronous copies).

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/lake.h"
#include "ml/backends.h"
#include "sched/mllb.h"

using namespace lake;

int
main()
{
    bench::banner("Fig. 10",
                  "MLLB load-balance inference time vs batch size (us)");

    core::Lake lake(core::LakeConfig::paper());
    Rng rng(17);

    // A trained model, produced the way the paper's MLLB port was:
    // offline against observed balancing decisions.
    auto data = sched::buildMllbDataset(4000, 16, 5.0, rng);
    ml::Mlp model = sched::trainMllbModel(data, 12, 0.05f, rng);

    ml::CpuMlp cpu(model, lake.kernelCpu());
    ml::LakeMlp gpu(model, lake.lib(), false, 1024);
    ml::LakeMlp gpu_sync(model, lake.lib(), true, 1024);

    std::printf("%-7s %11s %11s %13s\n", "tasks", "CPU", "LAKE",
                "LAKE (sync.)");
    for (std::size_t batch : {1u,  2u,  4u,   8u,   16u, 32u,
                              64u, 128u, 256u, 512u, 1024u}) {
        ml::Matrix x(batch, sched::kMllbFeatures);
        for (std::size_t i = 0; i < x.size(); ++i)
            x.data()[i] = static_cast<float>(rng.uniform(0.0, 1.0));

        Nanos t0 = lake.clock().now();
        cpu.classify(x);
        double cpu_us = toUs(lake.clock().now() - t0);

        t0 = lake.clock().now();
        gpu.classify(x);
        double gpu_us = toUs(lake.clock().now() - t0);

        t0 = lake.clock().now();
        gpu_sync.classify(x);
        double sync_us = toUs(lake.clock().now() - t0);

        std::printf("%-7zu %11.1f %11.1f %13.1f\n", batch, cpu_us,
                    gpu_us, sync_us);
    }

    bench::expectation(
        "GPU profitable only past ~256 tasks (the model is tiny, so the "
        "CPU stays cheap); current many-core servers easily exceed that "
        "threshold (90% of Google servers ran up to 4500 threads)");
    return 0;
}
