#ifndef LAKE_BASE_ENV_H
#define LAKE_BASE_ENV_H

/**
 * @file
 * Strict parsing of a numeric environment variable (LAKE_CPU_THREADS).
 *
 * A value counts only when it is a plain non-negative decimal
 * integer: digits and nothing else, no sign, no whitespace, no unit
 * suffix, no overflow. Anything else is ignored, so a typo such as
 * LAKE_CPU_THREADS=4x never half-applies.
 */

#include <cstddef>
#include <optional>

namespace lake::base {

/** Env var @p name as a size; nullopt when unset, empty or malformed. */
std::optional<std::size_t> envSize(const char *name);

} // namespace lake::base

#endif // LAKE_BASE_ENV_H
