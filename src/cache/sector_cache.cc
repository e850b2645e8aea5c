/**
 * @file
 * Implementation of the sector cache.
 */

#include "cache/sector_cache.hh"

#include "util/bits.hh"
#include "util/logging.hh"

namespace cachelab
{

void
SectorCacheConfig::validate() const
{
    if (!isPowerOfTwo(sizeBytes))
        fatal("sector cache size ", sizeBytes, " is not a power of two");
    if (!isPowerOfTwo(sectorBytes))
        fatal("sector size ", sectorBytes, " is not a power of two");
    if (!isPowerOfTwo(subblockBytes))
        fatal("sub-block size ", subblockBytes, " is not a power of two");
    if (sectorBytes > sizeBytes)
        fatal("sector size exceeds cache size");
    if (subblockBytes > sectorBytes)
        fatal("sub-block size ", subblockBytes, " exceeds sector size ",
              sectorBytes);
    if (sectorBytes / subblockBytes > 64)
        fatal("more than 64 sub-blocks per sector is unsupported");
}

SectorCache::SectorCache(const SectorCacheConfig &config) : config_(config)
{
    config_.validate();
    sectors_.assign(config_.sectorCount(), Sector{});
    index_.reserve(sectors_.size());
    for (std::uint32_t i = 0; i < sectors_.size(); ++i)
        pushMru(i);
}

void
SectorCache::unlink(std::uint32_t idx)
{
    Sector &s = sectors_[idx];
    if (s.prev != kInvalid)
        sectors_[s.prev].next = s.next;
    else
        head_ = s.next;
    if (s.next != kInvalid)
        sectors_[s.next].prev = s.prev;
    else
        tail_ = s.prev;
    s.prev = kInvalid;
    s.next = kInvalid;
}

void
SectorCache::pushMru(std::uint32_t idx)
{
    Sector &s = sectors_[idx];
    s.prev = kInvalid;
    s.next = head_;
    if (head_ != kInvalid)
        sectors_[head_].prev = idx;
    head_ = idx;
    if (tail_ == kInvalid)
        tail_ = idx;
}

std::uint32_t
SectorCache::allocateSector(Addr sector_addr)
{
    const std::uint32_t victim = tail_;
    CACHELAB_ASSERT(victim != kInvalid, "sector cache has no sectors");
    evictSector(victim, /*is_purge=*/false);

    Sector &s = sectors_[victim];
    s.sectorAddr = sector_addr;
    s.validMask = 0;
    s.dirtyMask = 0;
    if (probe_ != nullptr) {
        probeMeta_[victim].fillClock = clock_;
        probeMeta_[victim].hitCount = 0;
    }
    index_.insert(sector_addr, victim);
    unlink(victim);
    pushMru(victim);
    return victim;
}

void
SectorCache::evictSector(std::uint32_t idx, bool is_purge)
{
    Sector &s = sectors_[idx];
    if (s.validMask == 0)
        return;
    // Each valid sub-block counts as a (sub-block-granularity) push.
    const auto pushes =
        static_cast<std::uint64_t>(std::popcount(s.validMask));
    const auto dirty =
        static_cast<std::uint64_t>(std::popcount(s.dirtyMask));
    if (is_purge) {
        stats_.purgePushes += pushes;
        stats_.dirtyPurgePushes += dirty;
    } else {
        stats_.replacementPushes += pushes;
        stats_.dirtyReplacementPushes += dirty;
    }
    stats_.bytesToMemory += dirty * config_.subblockBytes;
    if (probe_ != nullptr) {
        CacheEvent event;
        event.type = CacheEventType::Evict;
        event.dirty = s.dirtyMask != 0;
        event.isPurge = is_purge;
        event.lineAddr = s.sectorAddr;
        event.refIndex = clock_;
        event.residentRefs = clock_ - probeMeta_[idx].fillClock;
        event.hitCount = probeMeta_[idx].hitCount;
        probe_->onEvent(event);
        if (s.dirtyMask != 0) {
            event.type = CacheEventType::Writeback;
            probe_->onEvent(event);
        }
    }
    index_.take(s.sectorAddr);
    s.validMask = 0;
    s.dirtyMask = 0;
}

template <bool kProbed>
bool
SectorCache::touchSubblock(Addr addr, AccessKind kind)
{
    const Addr sector_addr = alignDown(addr, config_.sectorBytes);
    const auto sub =
        static_cast<std::uint32_t>((addr - sector_addr) / config_.subblockBytes);
    const std::uint64_t bit = 1ULL << sub;

    std::uint32_t idx = index_.find(sector_addr);
    bool hit = false;
    if (idx != kInvalid && (sectors_[idx].validMask & bit)) {
        hit = true;
        unlink(idx);
        pushMru(idx);
        if constexpr (kProbed) {
            ++probeMeta_[idx].hitCount;
            CacheEvent event;
            event.type = CacheEventType::Hit;
            event.kind = kind;
            event.lineAddr = addr;
            event.refIndex = clock_;
            probe_->onEvent(event);
        }
    } else {
        if constexpr (kProbed) {
            CacheEvent event;
            event.type = CacheEventType::Miss;
            event.kind = kind;
            event.lineAddr = addr;
            event.refIndex = clock_;
            probe_->onEvent(event);
        }
        if (idx == kInvalid)
            idx = allocateSector(sector_addr);
        else {
            unlink(idx);
            pushMru(idx);
        }
        sectors_[idx].validMask |= bit;
        stats_.bytesFromMemory += config_.subblockBytes;
        ++stats_.demandFetches;
        if constexpr (kProbed) {
            CacheEvent event;
            event.type = CacheEventType::Fill;
            event.lineAddr = addr;
            event.refIndex = clock_;
            probe_->onEvent(event);
        }
    }
    if (kind == AccessKind::Write)
        sectors_[idx].dirtyMask |= bit;
    return hit;
}

bool
SectorCache::accessSubblocksProbed(Addr first, Addr last, AccessKind kind)
{
    bool hit = true;
    for (Addr sub = first;; sub += config_.subblockBytes) {
        hit &= touchSubblock<true>(sub, kind);
        if (sub == last)
            break;
    }
    return hit;
}

bool
SectorCache::access(const MemoryRef &ref)
{
    CACHELAB_ASSERT(ref.size > 0, "zero-sized reference");
    ++clock_;
    const auto k = static_cast<std::size_t>(ref.kind);
    ++stats_.accesses[k];

    const Addr first = alignDown(ref.addr, config_.subblockBytes);
    const Addr last =
        alignDown(ref.addr + ref.size - 1, config_.subblockBytes);
    bool hit = true;
    if (probe_ != nullptr) {
        hit = accessSubblocksProbed(first, last, ref.kind);
    } else {
        for (Addr sub = first;; sub += config_.subblockBytes) {
            hit &= touchSubblock<false>(sub, ref.kind);
            if (sub == last)
                break;
        }
    }
    if (!hit)
        ++stats_.misses[k];
    return hit;
}

void
SectorCache::purge()
{
    if (probe_ != nullptr) {
        CacheEvent event;
        event.type = CacheEventType::Purge;
        event.refIndex = clock_;
        probe_->onEvent(event);
    }
    for (std::uint32_t i = 0; i < sectors_.size(); ++i)
        evictSector(i, /*is_purge=*/true);
    ++stats_.purges;
}

bool
SectorCache::contains(Addr addr) const
{
    const Addr sector_addr = alignDown(addr, config_.sectorBytes);
    const std::uint32_t idx = index_.find(sector_addr);
    if (idx == kInvalid)
        return false;
    const auto sub =
        static_cast<std::uint32_t>((addr - sector_addr) / config_.subblockBytes);
    return (sectors_[idx].validMask >> sub) & 1;
}

} // namespace cachelab
