#ifndef LAKE_GPU_FLEET_H
#define LAKE_GPU_FLEET_H

/**
 * @file
 * Multi-device backend: a fleet of simulated accelerators.
 *
 * A DeviceFleet owns N identical Device instances carved out of
 * disjoint VA windows (Device::kVaWindow apart). The fleet is pure
 * state: shard daemons and the placement policy (src/remote/fleet.h,
 * src/policy) decide who talks to which device.
 *
 * Everything is default-off. FleetConfig.enabled == false constructs
 * nothing anywhere and no virtual-time figure in the repository
 * changes (DESIGN.md §13).
 */

#include <cstddef>
#include <memory>
#include <vector>

#include "gpu/device.h"
#include "gpu/spec.h"

namespace lake::gpu {

/** Boot-time knobs of the device fleet (LakeConfig.fleet). */
struct FleetConfig
{
    /**
     * Master switch. While false, core::Lake builds the classic
     * single-device stack and the fleet types are never constructed.
     */
    bool enabled = false;

    /** Simulated devices in the fleet. */
    std::size_t devices = 1;

    /**
     * lakeD worker shards. Shard k owns devices {i : i % shards == k};
     * must be in [1, devices].
     */
    std::size_t shards = 1;
};

/**
 * N devices with disjoint VA windows: device i allocates from
 * [kVaBase + i*kVaWindow, kVaBase + (i+1)*kVaWindow).
 */
class DeviceFleet
{
  public:
    /** @p devices devices, each modeled by @p spec. */
    DeviceFleet(std::size_t devices, const DeviceSpec &spec);

    DeviceFleet(const DeviceFleet &) = delete;
    DeviceFleet &operator=(const DeviceFleet &) = delete;

    std::size_t size() const { return devices_.size(); }

    Device &at(std::size_t i) { return *devices_.at(i); }
    const Device &at(std::size_t i) const { return *devices_.at(i); }

    /** Fleet index owning @p ptr; size() when no device's window does. */
    std::size_t ownerOf(DevicePtr ptr) const;

  private:
    std::vector<std::unique_ptr<Device>> devices_;
};

} // namespace lake::gpu

#endif // LAKE_GPU_FLEET_H
