#include "layers.h"

#include <algorithm>

#include "obs/metrics.h"
#include "remote/fleet.h"
#include "remote/wire.h"
#include "spans.h"

namespace lakebench {

lake::Nanos
stageSum(lake::obs::Stage s, lake::remote::ApiId id)
{
    return lake::obs::Metrics::global()
        .stage(s)
        .at(static_cast<std::uint32_t>(id))
        .sum();
}

RemoteSnapshot
snapshotRemote(lake::core::Lake &lake)
{
    RemoteSnapshot s;
    auto lane = [&s](lake::remote::LakeLib &lib, lake::channel::Channel &ch,
                     lake::shm::ShmArena &arena) {
        s.calls += lib.calls();
        s.doorbells += lib.doorbells();
        s.retries += lib.retries();
        s.msgs += ch.messagesSent();
        s.bytes += ch.bytesSent();
        s.highwater = std::max(s.highwater, arena.highwater());
    };
    auto device = [&s](lake::gpu::Device &dev) {
        s.busy.push_back(dev.computeBusy().totalBusy());
        s.launches += dev.launches();
    };
    if (lake::remote::ShardFleet *shards = lake.shardFleet()) {
        for (std::size_t k = 0; k < shards->size(); ++k)
            lane(shards->shard(k).lib(), shards->shard(k).channel(),
                 shards->shard(k).arena());
        for (std::size_t d = 0; d < lake.fleet()->size(); ++d)
            device(lake.fleet()->at(d));
    } else {
        lane(lake.lib(), lake.channel(), lake.arena());
        device(lake.device());
    }
    return s;
}

void
putRemoteLayers(std::vector<Metric> &out, const RemoteSnapshot &before,
                const RemoteSnapshot &after, double ops)
{
    using lake::obs::Stage;
    using lake::remote::ApiId;
    auto put = [&out](const char *name, double v, const char *unit) {
        out.push_back(Metric{name, v, unit});
    };
    auto per = [ops](double v) { return ops > 0.0 ? v / ops : 0.0; };
    const lake::obs::Metrics &m = lake::obs::Metrics::global();
    const lake::Nanos remote = obsRemoteNs();
    const lake::Nanos dispatch = stageTotal(Stage::Dispatch);
    const lake::Nanos execute = stageTotal(Stage::Execute);
    put("remote.cmds_per_op", per(static_cast<double>(after.calls - before.calls)),
        "count");
    put("remote.doorbells_per_op",
        per(static_cast<double>(after.doorbells - before.doorbells)), "count");
    put("remote.rpc_us", per(lake::toUs(remote)), "us");
    put("remote.dispatch_us", per(lake::toUs(dispatch)), "us");
    put("remote.execute_us", per(lake::toUs(execute)), "us");
    put("remote.retries", static_cast<double>(after.retries - before.retries),
        "count");
    put("channel.msgs_per_op", per(static_cast<double>(after.msgs - before.msgs)),
        "count");
    put("channel.bytes_per_op",
        per(static_cast<double>(after.bytes - before.bytes)), "bytes");
    put("channel.crossing_us", per(lake::toUs(remote - dispatch)), "us");
    put("shm.allocs_per_op", per(static_cast<double>(m.shm_allocs.get())), "count");
    put("shm.highwater_kb", static_cast<double>(after.highwater) / 1024.0, "KiB");
    put("shm.alloc_failures", static_cast<double>(m.shm_alloc_failures.get()),
        "count");

    lake::Nanos kernel = 0;
    for (std::size_t d = 0; d < after.busy.size(); ++d)
        kernel += after.busy[d] - before.busy[d];
    // The DtoH of a synchronous copy also waits out the tail of the
    // kernel launched before it; the kernel's own busy time overlaps
    // the crossing of the command that follows it.
    put("gpu.htod_us",
        per(lake::toUs(stageSum(Stage::Execute, ApiId::CuMemcpyHtoDShm) +
                       stageSum(Stage::Execute, ApiId::CuMemcpyHtoDShmAsync))),
        "us");
    put("gpu.kernel_us", per(lake::toUs(kernel)), "us");
    put("gpu.dtoh_us",
        per(lake::toUs(stageSum(Stage::Execute, ApiId::CuMemcpyDtoHShm) +
                       stageSum(Stage::Execute, ApiId::CuMemcpyDtoHShmAsync))),
        "us");
    put("gpu.launches_per_op",
        per(static_cast<double>(after.launches - before.launches)), "count");
}

} // namespace lakebench
