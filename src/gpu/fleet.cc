#include "gpu/fleet.h"

#include "base/logging.h"

namespace lake::gpu {

DeviceFleet::DeviceFleet(std::size_t devices, const DeviceSpec &spec)
{
    LAKE_ASSERT(devices >= 1, "fleet needs at least one device");
    devices_.reserve(devices);
    for (std::size_t i = 0; i < devices; ++i) {
        DevicePtr base = Device::kVaBase + i * Device::kVaWindow;
        devices_.push_back(std::make_unique<Device>(
            spec, static_cast<std::uint32_t>(i), base,
            base + Device::kVaWindow));
    }
}

std::size_t
DeviceFleet::ownerOf(DevicePtr ptr) const
{
    for (std::size_t i = 0; i < devices_.size(); ++i)
        if (devices_[i]->ownsVa(ptr))
            return i;
    return devices_.size();
}

} // namespace lake::gpu
