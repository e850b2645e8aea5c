/**
 * @file
 * FNV-1a, the 64-bit byte hash behind the live-point store key and the
 * run registry's spec identity.  Callers compose their own chains; the
 * constants and the byte fold live here once.
 */

#ifndef CACHELAB_UTIL_HASH_HH
#define CACHELAB_UTIL_HASH_HH

#include <cstddef>
#include <cstdint>

namespace cachelab
{

/** FNV-1a offset basis (the initial value of a hash chain). */
inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;

/** FNV-1a prime. */
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/** @return @p hash with the @p n bytes at @p data folded in. */
inline std::uint64_t
fnv1a(std::uint64_t hash, const void *data, std::size_t n)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        hash ^= bytes[i];
        hash *= kFnvPrime;
    }
    return hash;
}

/** @return @p hash with the host-order bytes of @p v folded in. */
inline std::uint64_t
fnv1aU64(std::uint64_t hash, std::uint64_t v)
{
    return fnv1a(hash, &v, sizeof(v));
}

} // namespace cachelab

#endif // CACHELAB_UTIL_HASH_HH
