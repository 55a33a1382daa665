#include "base/env.h"

#include <cerrno>
#include <cstdlib>

namespace lake::base {

std::optional<std::size_t>
envSize(const char *name)
{
    const char *v = std::getenv(name);
    if (v == nullptr || *v < '0' || *v > '9')
        return std::nullopt; // unset, empty, sign or leading space
    char *end = nullptr;
    errno = 0;
    unsigned long long parsed = std::strtoull(v, &end, 10);
    if (*end != '\0' || errno == ERANGE)
        return std::nullopt;
    return static_cast<std::size_t>(parsed);
}

} // namespace lake::base
