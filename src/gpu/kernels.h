#ifndef LAKE_GPU_KERNELS_H
#define LAKE_GPU_KERNELS_H

/**
 * @file
 * Kernel registry for the simulated GPU.
 *
 * The real system loads PTX through cuModuleLoad / cuModuleGetFunction;
 * here "modules" are host functors registered under the kernel's name.
 * Each kernel carries two callables: a body that performs the actual
 * computation on device memory (so results are bit-real and testable)
 * and a cost model that maps a launch configuration to virtual time.
 *
 * Subsystem libraries (ml, crypto) register their kernels at static
 * initialization, exactly as their .cubin would ship alongside lakeD.
 */

#include <cstdint>
#include <cstring>
#include <functional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/time.h"
#include "gpu/device.h"

namespace lake::gpu {

/** Arguments and geometry of one kernel launch. */
struct LaunchConfig
{
    std::string kernel;
    std::uint32_t grid_x = 1;
    std::uint32_t block_x = 1;
    /** Raw 64-bit argument slots: device pointers or bit-cast scalars. */
    std::vector<std::uint64_t> args;

    /** Appends a device pointer argument. */
    LaunchConfig &
    arg(DevicePtr p)
    {
        args.push_back(p);
        return *this;
    }

    /** Appends an integral scalar argument. */
    LaunchConfig &
    arg(std::uint64_t v, std::nullptr_t)
    {
        args.push_back(v);
        return *this;
    }

    /** Appends a bit-cast float scalar argument. */
    LaunchConfig &
    argF(float f)
    {
        std::uint64_t v = 0;
        std::memcpy(&v, &f, sizeof(f));
        args.push_back(v);
        return *this;
    }

    /** Reads argument @p i as a float. */
    float
    floatArg(std::size_t i) const
    {
        float f = 0.0f;
        std::memcpy(&f, &args.at(i), sizeof(f));
        return f;
    }

    /** Reads argument @p i as a 64-bit integer / device pointer. */
    std::uint64_t u64Arg(std::size_t i) const { return args.at(i); }

    /** Total threads requested. */
    std::uint64_t
    threads() const
    {
        return static_cast<std::uint64_t>(grid_x) * block_x;
    }
};

/**
 * Name -> {body, cost} table shared by every simulated device.
 *
 * Thread-safe: stacks on different threads register their kernel
 * families on first use while other stacks launch, so lookups take a
 * shared lock and add() an exclusive one.
 */
class KernelRegistry
{
  public:
    /** Executes the computation against device memory. */
    using Body = std::function<CuResult(Device &, const LaunchConfig &)>;
    /** Maps a launch to modeled device time (excluding launch overhead). */
    using Cost = std::function<Nanos(const Device &, const LaunchConfig &)>;

    /** The process-wide registry. */
    static KernelRegistry &global();

    /** One registered kernel: its computation and its cost model. */
    struct Entry
    {
        Body body;
        Cost cost;
    };

    /**
     * One-lookup handle for the launch fast path: has() + run() +
     * cost() each hash the kernel name again, which showed up as the
     * dominant per-launch cost in the remoting pipeline bench.
     * @return the entry, or nullptr for unknown kernels. It stays
     *         valid across add() of other names; re-adding this name
     *         replaces it in place.
     */
    const Entry *find(const std::string &name) const;

    /**
     * Registers a kernel; re-registering a name replaces the previous
     * entry (module reload semantics).
     */
    void add(const std::string &name, Body body, Cost cost);

    /** True when @p name is registered. */
    bool has(const std::string &name) const;

    /** Runs the kernel body. @return NotFound for unknown kernels. */
    CuResult run(Device &dev, const LaunchConfig &cfg) const;

    /** Modeled duration; 0 for unknown kernels. */
    Nanos cost(const Device &dev, const LaunchConfig &cfg) const;

    /** Registered kernel names (sorted), for diagnostics. */
    std::vector<std::string> names() const;

  private:
    mutable std::shared_mutex mu_; //!< guards table_
    std::unordered_map<std::string, Entry> table_;
};

/**
 * Registers the built-in demo kernels:
 *  - "vec_add":  c[i] = a[i] + b[i]                (args: a, b, c, n)
 *  - "saxpy":    y[i] = alpha*x[i] + y[i]          (args: alpha, x, y, n)
 *  - "page_hash": 64-bit FNV-1a hash per 4 KiB page (args: in, out, npages)
 *
 * "page_hash" is the compute-bound user-space workload of the Fig. 1 /
 * Fig. 13 contention experiments.
 * Idempotent and thread-safe; called by GpuContext construction.
 */
void registerBuiltinKernels();

} // namespace lake::gpu

#endif // LAKE_GPU_KERNELS_H
