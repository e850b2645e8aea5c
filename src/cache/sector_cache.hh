/**
 * @file
 * Sector (block/sub-block) cache.
 *
 * Models the Zilog Z80000 on-chip cache the paper critiques in
 * section 1.2: "a sector cache (block/subblock), with a 16 byte sector
 * (larger block) and then fetches either 2 bytes, 4 bytes or 16 bytes
 * (called a block or subblock)".  A tag is kept per sector; validity
 * is tracked per sub-block, and a miss fetches only the referenced
 * sub-block.
 */

#ifndef CACHELAB_CACHE_SECTOR_CACHE_HH
#define CACHELAB_CACHE_SECTOR_CACHE_HH

#include <cstdint>
#include <vector>

#include "cache/probe.hh"
#include "cache/stats.hh"
#include "trace/memory_ref.hh"
#include "util/flat_map.hh"

namespace cachelab
{

/** Parameters of a sector cache. */
struct SectorCacheConfig
{
    /** Total capacity in bytes (power of two). */
    std::uint64_t sizeBytes = 256;

    /** Sector size in bytes (power of two). */
    std::uint32_t sectorBytes = 16;

    /** Sub-block (transfer unit) size; divides sectorBytes. */
    std::uint32_t subblockBytes = 4;

    /** fatal() on invalid parameters. */
    void validate() const;

    std::uint64_t sectorCount() const { return sizeBytes / sectorBytes; }
    std::uint32_t subblocksPerSector() const
    {
        return sectorBytes / subblockBytes;
    }
};

/**
 * Fully associative LRU sector cache with demand sub-block fetch.
 *
 * Write policy is copy-back with fetch-on-write at sub-block
 * granularity, matching the Table 1 baseline choices.
 */
class SectorCache
{
  public:
    explicit SectorCache(const SectorCacheConfig &config);

    /** Apply one reference; @return true when every touched sub-block
     *  was resident. */
    bool access(const MemoryRef &ref);

    /** Invalidate everything, pushing dirty sub-blocks. */
    void purge();

    /** @return true when the sub-block containing @p addr is valid. */
    bool contains(Addr addr) const;

    const SectorCacheConfig &config() const { return config_; }
    const CacheStats &stats() const { return stats_; }
    void resetStats() { stats_ = CacheStats{}; }

    /**
     * Attach an introspection probe (not owned; nullptr detaches).
     * Events carry the sub-block address as lineAddr and set 0 (the
     * cache is fully associative); Evict/Writeback fire per sector.
     */
    void setProbe(CacheProbe *probe)
    {
        probe_ = probe;
        if (probe != nullptr && probeMeta_.size() != sectors_.size())
            probeMeta_.assign(sectors_.size(), ProbeMeta{});
    }

    /** @return number of access() calls so far (the event clock). */
    std::uint64_t accessClock() const { return clock_; }

  private:
    struct Sector
    {
        Addr sectorAddr = 0;
        std::uint64_t validMask = 0;
        std::uint64_t dirtyMask = 0;
        std::uint32_t prev = kInvalid;
        std::uint32_t next = kInvalid;
    };

    /** Probe-only per-sector bookkeeping, parallel to sectors_ and
     *  maintained only while a probe is attached (see Cache). */
    struct ProbeMeta
    {
        std::uint64_t fillClock = 0; ///< access() clock at allocation
        std::uint64_t hitCount = 0;  ///< sub-block hits since then
    };

    static constexpr std::uint32_t kInvalid = AddrIndex::kEmpty;

    void unlink(std::uint32_t idx);
    void pushMru(std::uint32_t idx);
    std::uint32_t allocateSector(Addr sector_addr);
    void evictSector(std::uint32_t idx, bool is_purge);
    /** @tparam kProbed compiled-in probe dispatch: the false
     *  instantiation carries no probe branches at all, keeping the
     *  uninstrumented hot path identical to a probe-free build. */
    template <bool kProbed>
    bool touchSubblock(Addr addr, AccessKind kind);

    /** The instrumented sub-block loop, kept out of line so its bulk
     *  does not eat access()'s inlining budget (which would deopt the
     *  probe-off hot path). */
    [[gnu::noinline]] bool accessSubblocksProbed(Addr first, Addr last,
                                                 AccessKind kind);

    SectorCacheConfig config_;
    CacheStats stats_;
    std::vector<Sector> sectors_;
    std::vector<ProbeMeta> probeMeta_; ///< empty until a probe attaches
    AddrIndex index_; ///< sectorAddr -> slot of every valid sector
    std::uint32_t head_ = kInvalid;
    std::uint32_t tail_ = kInvalid;
    std::uint64_t clock_ = 0; ///< access() count (event timestamps)
    CacheProbe *probe_ = nullptr;
};

} // namespace cachelab

#endif // CACHELAB_CACHE_SECTOR_CACHE_HH
