#ifndef LAKE_BASE_ENV_H
#define LAKE_BASE_ENV_H

/**
 * @file
 * Strict parsing of the LAKE_* environment knobs.
 *
 * A knob's value counts only when it is a plain non-negative decimal
 * integer: digits and nothing else, no sign, no whitespace, no unit
 * suffix, no overflow. Anything else is ignored, so a typo such as
 * LAKE_STREAMS=4x or LAKE_POOL_BUFFERS=16k never half-applies.
 */

#include <cstddef>
#include <optional>

namespace lake::base {

/** Env var @p name as a size; nullopt when unset, empty or malformed. */
std::optional<std::size_t> envSize(const char *name);

/** Env var @p name as a size; @p fallback when unset, empty or
 *  malformed. */
std::size_t envSize(const char *name, std::size_t fallback);

} // namespace lake::base

#endif // LAKE_BASE_ENV_H
