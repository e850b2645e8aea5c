/**
 * @file
 * Cache configuration: the design parameters the paper explores.
 *
 * "There are a number of choices to be made regarding the cache
 * including size, line size (block size), mapping algorithm,
 * replacement algorithm, writeback algorithm, split
 * (instructions/data) vs. unified, fetch algorithm" (section 1).
 */

#ifndef CACHELAB_CACHE_CONFIG_HH
#define CACHELAB_CACHE_CONFIG_HH

#include <cstdint>
#include <optional>
#include <string>

#include "cache/policy.hh"

namespace cachelab
{

/** How writes propagate to memory. */
enum class WritePolicy : std::uint8_t
{
    CopyBack,     ///< write-back; dirty lines flushed on eviction
    WriteThrough, ///< every store goes to memory immediately
};

/** What a write miss does. */
enum class WriteMissPolicy : std::uint8_t
{
    FetchOnWrite, ///< allocate: fetch the line, then write (paper default)
    NoAllocate,   ///< bypass: send the write to memory, do not allocate
};

/** Fetch (prefetch) algorithm. */
enum class FetchPolicy : std::uint8_t
{
    Demand,         ///< fetch only on a miss
    PrefetchAlways, ///< on a reference to line i, ensure line i+1 resident
};

/** @return display name for each policy value. */
std::string toString(WritePolicy policy);
std::string toString(WriteMissPolicy policy);
std::string toString(FetchPolicy policy);

/**
 * Full parameterization of a single cache.
 *
 * The paper's Table 1 baseline is: fully associative, LRU, demand
 * fetch, copy back with fetch on write, 16-byte lines — which is what
 * a default-constructed config (with a size filled in) describes.
 */
struct CacheConfig
{
    /** Total capacity in bytes; must be a power of two. */
    std::uint64_t sizeBytes = 1024;

    /** Line (block) size in bytes; power of two, <= sizeBytes. */
    std::uint32_t lineBytes = 16;

    /**
     * Set associativity: number of lines per set.  0 means fully
     * associative (one set containing every line).
     */
    std::uint32_t associativity = 0;

    /**
     * Replacement policy (see cache/policy.hh for the valid names and
     * their parameters).  Defaults to LRU, the paper's baseline.
     */
    PolicySpec replacement;

    /**
     * Optional admission policy; an empty spec (the default) installs
     * every missing line, the pre-admission behaviour.
     */
    PolicySpec admission{"", {}};

    WritePolicy writePolicy = WritePolicy::CopyBack;
    WriteMissPolicy writeMiss = WriteMissPolicy::FetchOnWrite;
    FetchPolicy fetchPolicy = FetchPolicy::Demand;

    /** Seed for stochastic replacement policies (random). */
    std::uint64_t randomSeed = 1;

    /**
     * Most lines a cache may hold.  Ways are numbered in 32 bits and
     * ~0 marks "no way", so 2^31 keeps every way index a plain value.
     */
    static constexpr std::uint64_t kMaxLines = std::uint64_t{1} << 31;

    /** @return number of lines the cache holds. */
    std::uint64_t lineCount() const { return sizeBytes / lineBytes; }

    /** @return lines per set after resolving associativity = 0. */
    std::uint64_t effectiveAssociativity() const;

    /** @return number of sets. */
    std::uint64_t setCount() const;

    /**
     * @return a diagnostic if any parameter combination is invalid, or
     * std::nullopt when valid.  The non-fatal twin of validate(), for
     * callers (the campaign server) that must survive bad input.
     */
    std::optional<std::string> check() const;

    /** fatal() with check()'s diagnostic if there is one. */
    void validate() const;

    /**
     * @return compact description, e.g. "16K/16B/full/LRU/copy-back/
     * demand".  The policy field renders the full parameterized spec
     * ("slru:probation=0.25", "lru+tinylfu") so sweep rows from
     * different parameterizations stay distinguishable.
     */
    std::string describe() const;
};

} // namespace cachelab

#endif // CACHELAB_CACHE_CONFIG_HH
