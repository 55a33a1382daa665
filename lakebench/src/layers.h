#ifndef LAKEBENCH_LAYERS_H
#define LAKEBENCH_LAYERS_H

/**
 * @file
 * Per-layer metrics of the remoting path (remote, channel, shm, gpu),
 * read from counters the library already exposes and from the obs
 * stage histograms, for the workloads that cross it.
 */

#include <cstdint>
#include <vector>

#include "base/time.h"
#include "core/lake.h"
#include "harness.h"

namespace lakebench {

/** Remoting-path counters of a booted system, summed over its shards. */
struct RemoteSnapshot
{
    std::uint64_t calls = 0;
    std::uint64_t doorbells = 0;
    std::uint64_t retries = 0;
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
    std::uint64_t launches = 0;
    /** Compute-engine busy time of each device. */
    std::vector<lake::Nanos> busy;
    /** Largest arena high-water mark, bytes. */
    std::size_t highwater = 0;
};

/** Reads every lakeLib, channel, arena and device of @p lake. */
RemoteSnapshot snapshotRemote(lake::core::Lake &lake);

/**
 * Appends the remote.*, channel.*, shm.* and gpu.{htod,kernel,dtoh,
 * launches}_per-op metrics for the phase between @p before and
 * @p after, per @p ops operations (GPU batches or extents).
 */
void putRemoteLayers(std::vector<Metric> &out, const RemoteSnapshot &before,
                     const RemoteSnapshot &after, double ops);

/** Virtual ns in obs stage @p s of API @p id so far. */
lake::Nanos stageSum(lake::obs::Stage s, lake::remote::ApiId id);

} // namespace lakebench

#endif // LAKEBENCH_LAYERS_H
