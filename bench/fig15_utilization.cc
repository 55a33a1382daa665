// Reproduces Fig. 15: CPU and GPU utilization while sequentially
// reading (and decrypting) a large file on eCryptfs with a 2 MB block
// size, using CPU-only crypto, AES-NI, and LAKE.
//
// The host executes a 64 MiB file for tractability; virtual-time
// utilization ratios are independent of the file length in steady
// state, and reported durations are scaled to the paper's 2 GiB.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/lake.h"
#include "crypto/engines.h"
#include "fs/ecryptfs.h"

using namespace lake;

namespace {

constexpr std::size_t kRealBytes = 64 << 20;
constexpr double kScaleTo2GiB =
    static_cast<double>(2ull << 30) / kRealBytes;

struct UtilRow
{
    const char *label;
    double duration_s;   //!< scaled to the 2 GiB read
    double kernel_cpu;   //!< kernel-context CPU %
    double daemon_cpu;   //!< lakeD (user-space API handler) CPU %
    double gpu;          //!< GPU compute %
};

} // namespace

int
main()
{
    bench::banner("Fig. 15",
                  "utilization while decrypting a 2 GiB file on "
                  "eCryptfs, 2 MB blocks");

    std::uint8_t key[32];
    for (int i = 0; i < 32; ++i)
        key[i] = static_cast<std::uint8_t>(i + 11);

    std::vector<std::uint8_t> data(kRealBytes);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 29 + 5);

    std::vector<UtilRow> rows;

    auto run = [&](const char *label, bool lake_engine, bool use_ni) {
        core::Lake lake(core::LakeConfig::paper());
        gpu::CpuSpec cpu_spec = lake.config().cpu;
        std::unique_ptr<crypto::CipherEngine> engine;
        if (lake_engine) {
            engine = std::make_unique<crypto::LakeGpuCipher>(
                key, 32, lake.lib(), 2 << 20);
        } else if (use_ni) {
            engine = std::make_unique<crypto::AesNiCipher>(
                key, 32, lake.clock(), cpu_spec);
        } else {
            engine = std::make_unique<crypto::CpuCipher>(
                key, 32, lake.clock(), cpu_spec);
        }

        fs::ECryptFs fs(*engine, lake.clock(),
                        fs::LowerFsModel::testbed(), 2 << 20);
        Status st = fs.writeFile("/big", data.data(), data.size());
        LAKE_ASSERT(st.isOk(), "write failed");

        Nanos t0 = lake.clock().now();
        std::uint64_t gpu_busy0 =
            lake.device().computeBusy().totalBusy();
        std::uint64_t cmds0 = lake.daemon().commandsHandled();
        auto back = fs.readFile("/big");
        LAKE_ASSERT(back.isOk(), "read failed");
        Nanos elapsed = lake.clock().now() - t0;

        UtilRow row;
        row.label = label;
        row.duration_s = toSec(elapsed) * kScaleTo2GiB;
        double gpu_busy = static_cast<double>(
            lake.device().computeBusy().totalBusy() - gpu_busy0);
        row.gpu = 100.0 * gpu_busy / static_cast<double>(elapsed);

        if (lake_engine) {
            // Kernel CPU: per-extent issue work + channel send costs.
            std::uint64_t cmds =
                lake.daemon().commandsHandled() - cmds0;
            double kernel_ns =
                static_cast<double>(cmds) * 16_us; // marshal+doorbell
            double daemon_ns =
                static_cast<double>(cmds) * 11_us; // decode+dispatch
            row.kernel_cpu =
                100.0 * kernel_ns / static_cast<double>(elapsed);
            row.daemon_cpu =
                100.0 * daemon_ns / static_cast<double>(elapsed);
        } else {
            row.kernel_cpu =
                100.0 *
                static_cast<double>(fs.stats().crypto_busy) /
                static_cast<double>(elapsed);
            row.daemon_cpu = 0.0;
        }
        rows.push_back(row);
    };

    run("CPU", false, false);
    run("AES-NI", false, true);
    run("LAKE", true, false);

    std::printf("%-8s %12s %12s %10s %8s\n", "engine", "duration (s)",
                "kernel CPU%", "lakeD CPU%", "GPU%");
    for (const UtilRow &r : rows) {
        std::printf("%-8s %12.1f %12.1f %10.1f %8.1f\n", r.label,
                    r.duration_s, r.kernel_cpu, r.daemon_cpu, r.gpu);
    }

    bench::expectation(
        "the CPU engine is crypto-bound (high kernel CPU for ~17 s); "
        "AES-NI shows a shorter, lower peak (~24%); LAKE finishes "
        "fastest with ~20% total CPU (kernel + lakeD) and the work "
        "shifted to the GPU — a ~64% CPU utilization reduction");
    return 0;
}
