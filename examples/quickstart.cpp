// Quickstart: boot LAKE and drive the GPU from "kernel space".
//
// This is the flow of the paper's hello_driver module: a kernel-side
// client allocates staging buffers in lakeShm, calls the remoted CUDA
// driver API exported by lakeLib, and lakeD executes the work on the
// accelerator. Run it and read the printed trace to see what each step
// costs in virtual time.

#include <cstdio>

#include "core/lake.h"

using namespace lake;

int
main()
{
    // 1. Boot the runtime: lakeShm, the Netlink command channel, lakeD,
    //    lakeLib and the simulated A100, all sharing one virtual clock.
    core::Lake lake(core::LakeConfig::paper());
    auto &lib = lake.lib();      // the kernel-space view (lakeLib)
    auto &arena = lake.arena();  // lakeShm

    std::printf("booted: %s, %zu MiB lakeShm, %s channel\n",
                lake.device().spec().name.c_str(),
                arena.capacity() >> 20,
                channel::kindName(lake.channel().kind()));

    // 2. Allocate a staging buffer in shared memory. Both kernel space
    //    and lakeD address these bytes directly: zero copies.
    const std::uint64_t n = 1 << 16;
    shm::ShmOffset h_buf = arena.alloc(n * sizeof(float));
    auto *buf = static_cast<float *>(arena.at(h_buf));

    // 3. Remote cuMemAlloc: the command crosses to lakeD over Netlink.
    gpu::DevicePtr d_x = 0, d_y = 0;
    lib.cuMemAlloc(&d_x, n * sizeof(float));
    lib.cuMemAlloc(&d_y, n * sizeof(float));
    std::printf("after cuMemAlloc x2: t = %.1f us, device mem = %zu KiB\n",
                toUs(lake.clock().now()), lake.device().memUsed() >> 10);

    // 4. Fill x and y and push them to the device through lakeShm.
    for (std::uint64_t i = 0; i < n; ++i)
        buf[i] = 1.0f;
    lib.cuMemcpyHtoDShm(d_x, h_buf, n * sizeof(float));
    for (std::uint64_t i = 0; i < n; ++i)
        buf[i] = 2.0f;
    lib.cuMemcpyHtoDShm(d_y, h_buf, n * sizeof(float));
    std::printf("after uploads:      t = %.1f us\n",
                toUs(lake.clock().now()));

    // 5. Launch saxpy: y = 3*x + y. The launch is a one-way command;
    //    errors (if any) surface at the next synchronizing call.
    gpu::LaunchConfig cfg;
    cfg.kernel = "saxpy";
    cfg.grid_x = static_cast<std::uint32_t>((n + 255) / 256);
    cfg.block_x = 256;
    cfg.argF(3.0f).arg(d_x).arg(d_y).arg(n, nullptr);
    lib.cuLaunchKernel(cfg);
    gpu::CuResult sync = lib.cuCtxSynchronize();
    std::printf("after launch+sync:  t = %.1f us (%s)\n",
                toUs(lake.clock().now()), gpu::cuResultName(sync));

    // 6. Read the result back and verify.
    lib.cuMemcpyDtoHShm(h_buf, d_y, n * sizeof(float));
    bool ok = true;
    for (std::uint64_t i = 0; i < n; ++i)
        ok = ok && buf[i] == 5.0f;
    std::printf("result: y[i] == 5.0 for all %llu elements: %s\n",
                static_cast<unsigned long long>(n), ok ? "yes" : "NO");

    // 7. Clean up.
    lib.cuMemFree(d_x);
    lib.cuMemFree(d_y);
    arena.free(h_buf);
    std::printf("done: %llu remoted commands, %llu bytes over the "
                "channel (bulk data went through lakeShm)\n",
                static_cast<unsigned long long>(
                    lake.daemon().commandsHandled()),
                static_cast<unsigned long long>(
                    lake.channel().bytesSent()));
    return ok ? 0 : 1;
}
