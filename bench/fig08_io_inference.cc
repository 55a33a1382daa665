// Reproduces Fig. 8: I/O latency prediction time for variable batch
// sizes on CPU and GPU through LAKE (including data copying), for the
// LinnOS model and its +1 / +2 augmented variants. Also prints the
// §7.1 worked example (batch-8 amortization at 256k IOPS).

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/lake.h"
#include "ml/backends.h"

using namespace lake;

namespace {

ml::Matrix
randomBatch(std::size_t n, Rng &rng)
{
    ml::Matrix x(n, 31);
    for (std::size_t i = 0; i < x.size(); ++i)
        x.data()[i] = static_cast<float>(rng.uniform(0.0, 0.9));
    return x;
}

} // namespace

int
main()
{
    bench::banner("Fig. 8",
                  "I/O latency prediction time vs batch size "
                  "(us, LAKE includes data movement)");

    const std::vector<std::size_t> batches = {1,  2,  4,   8,   16,  32,
                                              64, 128, 256, 512, 1024};

    core::Lake lake(core::LakeConfig::paper());
    Rng rng(7);

    std::printf("%-7s", "batch");
    for (const char *col : {"CPU", "CPU+1", "CPU+2", "LAKE", "LAKE+1",
                            "LAKE+2"})
        std::printf(" %9s", col);
    std::printf("\n");

    // Build the three model variants and both backends for each.
    std::vector<ml::Mlp> models;
    for (std::size_t extra = 0; extra <= 2; ++extra)
        models.emplace_back(ml::MlpConfig::linnos(extra), rng);

    std::vector<std::unique_ptr<ml::CpuMlp>> cpu;
    std::vector<std::unique_ptr<ml::LakeMlp>> gpu;
    for (auto &m : models) {
        cpu.push_back(std::make_unique<ml::CpuMlp>(m, lake.kernelCpu()));
        gpu.push_back(
            std::make_unique<ml::LakeMlp>(m, lake.lib(), false, 1024));
    }

    double cpu_t1 = 0.0, gpu_t8 = 0.0;
    for (std::size_t batch : batches) {
        ml::Matrix x = randomBatch(batch, rng);
        std::printf("%-7zu", batch);
        for (int v = 0; v < 3; ++v) {
            Nanos t0 = lake.clock().now();
            cpu[v]->classify(x);
            double us = toUs(lake.clock().now() - t0);
            if (v == 0 && batch == 1)
                cpu_t1 = us;
            std::printf(" %9.1f", us);
        }
        for (int v = 0; v < 3; ++v) {
            Nanos t0 = lake.clock().now();
            gpu[v]->classify(x);
            double us = toUs(lake.clock().now() - t0);
            if (v == 0 && batch == 8)
                gpu_t8 = us;
            std::printf(" %9.1f", us);
        }
        std::printf("\n");
    }

    // §7.1's worked example: at 256k IOPS (4 us inter-arrival), batch 8.
    double wait_us = 8 * 4.0;
    double serial_cpu = 8 * cpu_t1;
    double batched_gpu = wait_us + gpu_t8;
    std::printf("\n§7.1 example @256k IOPS: 8 x CPU inference = %.0f us;"
                " wait 8 arrivals (%.0f us) + GPU batch = %.0f us"
                " -> %.0f%% reduction\n",
                serial_cpu, wait_us, batched_gpu,
                100.0 * (1.0 - batched_gpu / serial_cpu));

    double cpu_1024 = 0.0, gpu_1024 = 0.0;
    {
        ml::Matrix x = randomBatch(1024, rng);
        Nanos t0 = lake.clock().now();
        cpu[0]->classify(x);
        cpu_1024 = toUs(lake.clock().now() - t0);
        t0 = lake.clock().now();
        gpu[0]->classify(x);
        gpu_1024 = toUs(lake.clock().now() - t0);
    }
    std::printf("large-batch inference time reduction (1024): %.1f%%\n",
                100.0 * (1.0 - gpu_1024 / cpu_1024));

    bench::expectation(
        "CPU grows linearly (~15 us per inference); LAKE is flat ~58 us "
        "until compute dominates; crossover at 8 for the base NN, 3 and "
        "2 for +1/+2; acceleration cuts inference time by up to ~95%");
    return 0;
}
