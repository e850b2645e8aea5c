/**
 * @file
 * Implementation of the cache model.
 */

#include "cache/cache.hh"

#include <algorithm>

#include "util/bits.hh"
#include "util/logging.hh"

namespace cachelab
{

Cache::Cache(const CacheConfig &config)
    : config_(config), rng_(config.randomSeed)
{
    config_.validate();
    assoc_ = config_.effectiveAssociativity();
    sets_ = config_.setCount();
    // validate() made the line size and the set count powers of two.
    lineShift_ = floorLog2(config_.lineBytes);
    setMask_ = sets_ - 1;

    const std::uint64_t n = config_.lineCount();
    lines_.assign(n, CacheLine{});
    scan_ = assoc_ <= kMaxScanWays;
    if (scan_)
        hint_.assign(sets_, 0);
    else
        index_.reserve(n);

    policy_ = makeReplacementPolicy(config_.replacement);
    policy_->bind(sets_, static_cast<std::uint32_t>(assoc_),
                  PolicyHost(lines_.data()), &rng_);
    admission_ = makeAdmissionPolicy(config_.admission);
}

std::uint64_t
Cache::setOf(Addr line_addr) const
{
    return (line_addr >> lineShift_) & setMask_;
}

std::uint32_t
Cache::scanSet(std::uint32_t base, Addr line_addr) const
{
    const auto end = static_cast<std::uint32_t>(base + assoc_);
    for (std::uint32_t way = base; way < end; ++way)
        if (lines_[way].lineAddr == line_addr && lines_[way].valid)
            return way;
    return kInvalid;
}

template <bool kScan>
std::uint32_t
Cache::findWay(Addr line_addr)
{
    if constexpr (kScan) {
        // An early exit on hits to arbitrary ways mispredicts; the hint
        // makes the common re-touch one predictable compare.
        const std::uint64_t set = setOf(line_addr);
        const auto base = static_cast<std::uint32_t>(set * assoc_);
        const std::uint32_t hinted = base + hint_[set];
        if (lines_[hinted].lineAddr == line_addr && lines_[hinted].valid)
            return hinted;
        const std::uint32_t way = scanSet(base, line_addr);
        if (way != kInvalid)
            hint_[set] = static_cast<std::uint8_t>(way - base);
        return way;
    } else {
        return index_.find(line_addr);
    }
}

template <bool kScan>
void
Cache::evict(std::uint32_t idx, bool is_purge)
{
    CacheLine &line = lines_[idx];
    if (!line.valid)
        return;
    if (is_purge) {
        ++stats_.purgePushes;
        if (line.dirty)
            ++stats_.dirtyPurgePushes;
    } else {
        ++stats_.replacementPushes;
        if (line.dirty)
            ++stats_.dirtyReplacementPushes;
    }
    if (line.dirty)
        stats_.bytesToMemory += config_.lineBytes;
    if (observer_ != nullptr)
        observer_->onEvict(line.lineAddr, line.dirty, is_purge);
    if (probe_ != nullptr) {
        CacheEvent event;
        event.type = CacheEventType::Evict;
        event.dirty = line.dirty;
        event.isPurge = is_purge;
        event.lineAddr = line.lineAddr;
        event.set = setOf(line.lineAddr);
        event.refIndex = clock_;
        event.residentRefs = clock_ - probeMeta_[idx].fillClock;
        event.hitCount = probeMeta_[idx].hitCount;
        probe_->onEvent(event);
        if (line.dirty) {
            event.type = CacheEventType::Writeback;
            probe_->onEvent(event);
        }
    }
    policy_->onEvict(idx / assoc_, idx, line.lineAddr, is_purge);
    if constexpr (!kScan)
        index_.take(line.lineAddr);
    line.valid = false;
    line.dirty = false;
    --validLines_;
}

template <bool kScan>
std::uint32_t
Cache::install(Addr line_addr, bool prefetched)
{
    const std::uint64_t set = setOf(line_addr);
    const std::uint32_t victim = policy_->victimWay(set, line_addr);
    if (admission_ != nullptr &&
        !admission_->admit(line_addr, lines_[victim].lineAddr,
                           lines_[victim].valid))
        return kInvalid;
    evict<kScan>(victim, /*is_purge=*/false);

    CacheLine &line = lines_[victim];
    line.lineAddr = line_addr;
    line.valid = true;
    line.dirty = false;
    if constexpr (kScan)
        hint_[set] = static_cast<std::uint8_t>(victim - set * assoc_);
    else
        index_.insert(line_addr, victim);
    ++validLines_;

    policy_->onFill(set, victim, line_addr);

    stats_.bytesFromMemory += config_.lineBytes;
    if (prefetched)
        ++stats_.prefetchFetches;
    else
        ++stats_.demandFetches;
    if (observer_ != nullptr)
        observer_->onFill(line_addr, prefetched);
    if (probe_ != nullptr) {
        probeMeta_[victim].fillClock = clock_;
        probeMeta_[victim].hitCount = 0;
        CacheEvent event;
        event.type = prefetched ? CacheEventType::Prefetch
                                : CacheEventType::Fill;
        event.lineAddr = line_addr;
        event.set = set;
        event.refIndex = clock_;
        probe_->onEvent(event);
    }
    return victim;
}

template <bool kProbed, bool kScan>
bool
Cache::touchLine(Addr line_addr, AccessKind kind, std::uint32_t size)
{
    if (admission_ != nullptr)
        admission_->onAccess(line_addr);

    const std::uint32_t idx = findWay<kScan>(line_addr);
    if (idx != kInvalid) {
        policy_->onHit(setOf(line_addr), idx, line_addr);
        if constexpr (kProbed) {
            ++probeMeta_[idx].hitCount;
            CacheEvent event;
            event.type = CacheEventType::Hit;
            event.kind = kind;
            event.lineAddr = line_addr;
            event.set = setOf(line_addr);
            event.refIndex = clock_;
            probe_->onEvent(event);
        }
        if (kind == AccessKind::Write) {
            if (config_.writePolicy == WritePolicy::CopyBack) {
                lines_[idx].dirty = true;
            } else {
                stats_.bytesToMemory += size;
                ++stats_.writeThroughs;
            }
        }
        return true;
    }

    // Miss.  The event fires before any fill or bypass so sinks see
    // the cache in its pre-miss state.
    if constexpr (kProbed) {
        CacheEvent event;
        event.type = CacheEventType::Miss;
        event.kind = kind;
        event.lineAddr = line_addr;
        event.set = setOf(line_addr);
        event.refIndex = clock_;
        probe_->onEvent(event);
    }
    if (kind == AccessKind::Write &&
        config_.writeMiss == WriteMissPolicy::NoAllocate) {
        // The store bypasses the cache entirely.
        stats_.bytesToMemory += size;
        ++stats_.writeThroughs;
        return false;
    }

    const std::uint32_t way =
        install<kScan>(line_addr, /*prefetched=*/false);
    if (way == kInvalid) {
        // Admission rejected the fill: the reference is still served
        // (and its memory traffic still flows), the line just is not
        // cached — reads stream the line from memory, writes behave
        // like a no-allocate store.
        if (kind == AccessKind::Write) {
            stats_.bytesToMemory += size;
            ++stats_.writeThroughs;
        } else {
            stats_.bytesFromMemory += config_.lineBytes;
        }
        return false;
    }
    if (kind == AccessKind::Write) {
        if (config_.writePolicy == WritePolicy::CopyBack) {
            lines_[way].dirty = true;
        } else {
            stats_.bytesToMemory += size;
            ++stats_.writeThroughs;
        }
    }
    return false;
}

template <bool kScan>
void
Cache::maybePrefetch(Addr line_addr)
{
    const Addr succ = line_addr + config_.lineBytes;
    if (succ < line_addr)
        return; // address-space wraparound
    if (findWay<kScan>(succ) == kInvalid)
        install<kScan>(succ, /*prefetched=*/true);
}

template <bool kScan>
bool
Cache::accessLinesProbed(Addr first, Addr last, AccessKind kind,
                         std::uint32_t size)
{
    bool hit = true;
    for (Addr line = first;; line += config_.lineBytes) {
        hit &= touchLine<true, kScan>(line, kind, size);
        if (line == last)
            break;
    }
    return hit;
}

template <bool kScan>
bool
Cache::accessWith(const MemoryRef &ref)
{
    CACHELAB_ASSERT(ref.size > 0, "zero-sized reference");
    ++clock_;
    const auto k = static_cast<std::size_t>(ref.kind);
    ++stats_.accesses[k];

    const Addr first = alignDown(ref.addr, config_.lineBytes);
    const Addr last = alignDown(ref.addr + ref.size - 1, config_.lineBytes);

    bool hit = true;
    if (probe_ != nullptr) {
        hit = accessLinesProbed<kScan>(first, last, ref.kind, ref.size);
    } else {
        for (Addr line = first;; line += config_.lineBytes) {
            hit &= touchLine<false, kScan>(line, ref.kind, ref.size);
            if (line == last)
                break;
        }
    }
    if (!hit)
        ++stats_.misses[k];

    if (config_.fetchPolicy == FetchPolicy::PrefetchAlways)
        maybePrefetch<kScan>(last);

    return hit;
}

template bool Cache::accessWith<true>(const MemoryRef &ref);
template bool Cache::accessWith<false>(const MemoryRef &ref);

void
Cache::purge()
{
    if (probe_ != nullptr) {
        CacheEvent event;
        event.type = CacheEventType::Purge;
        event.refIndex = clock_;
        probe_->onEvent(event);
    }
    for (std::uint32_t idx = 0; idx < lines_.size(); ++idx) {
        if (scan_)
            evict<true>(idx, /*is_purge=*/true);
        else
            evict<false>(idx, /*is_purge=*/true);
    }

    // Reset the policy so every set drains in way order again.
    policy_->reset();
    if (admission_ != nullptr)
        admission_->reset();

    ++stats_.purges;
}

CacheState
Cache::exportState() const
{
    CacheState state;
    state.sizeBytes = config_.sizeBytes;
    state.lineBytes = config_.lineBytes;
    state.sets = sets_;
    state.assoc = assoc_;
    state.lines.reserve(lines_.size());
    for (const CacheLine &line : lines_)
        state.lines.push_back({line.lineAddr, line.valid, line.dirty});
    state.recency.reserve(lines_.size());
    policy_->exportRecency(state.recency);
    CACHELAB_ASSERT(state.recency.size() == lines_.size(),
                    "recency lists cover ", state.recency.size(), " of ",
                    lines_.size(), " ways");
    state.rngState = rng_.state();
    state.clock = clock_;
    state.stats = stats_;
    return state;
}

void
Cache::importState(const CacheState &state)
{
    if (state.sizeBytes != config_.sizeBytes ||
        state.lineBytes != config_.lineBytes || state.sets != sets_ ||
        state.assoc != assoc_) {
        fatal("cache state import: snapshot geometry ", state.sizeBytes,
              "B/", state.lineBytes, "B lines/", state.sets, "x",
              state.assoc, " does not match cache ", config_.sizeBytes,
              "B/", config_.lineBytes, "B lines/", sets_, "x", assoc_);
    }
    CACHELAB_ASSERT(state.lines.size() == lines_.size(),
                    "cache state import: ", state.lines.size(),
                    " lines for ", lines_.size(), " ways");
    CACHELAB_ASSERT(state.recency.size() == lines_.size(),
                    "cache state import: recency covers ",
                    state.recency.size(), " of ", lines_.size(), " ways");
    if (admission_ != nullptr)
        panic("cache state import: exact state covers no admission "
              "filter (", config_.admission.toString(), ")");
    // The recency order goes first: a policy whose state is more than
    // that order refuses it before any line is replaced.
    policy_->importRecency(state.recency);

    if (scan_)
        std::fill(hint_.begin(), hint_.end(), 0);
    else
        index_.clear();
    validLines_ = 0;
    for (std::size_t idx = 0; idx < lines_.size(); ++idx) {
        CacheLine &line = lines_[idx];
        line.lineAddr = state.lines[idx].lineAddr;
        line.valid = state.lines[idx].valid;
        line.dirty = state.lines[idx].dirty;
        if (line.valid) {
            CACHELAB_ASSERT(setOf(line.lineAddr) == idx / assoc_,
                            "cache state import: line ", line.lineAddr,
                            " in way ", idx, " maps to set ",
                            setOf(line.lineAddr));
            // In a scanned set, no earlier way holds the line when the
            // scan from the set's first way stops at this one.
            const auto way = static_cast<std::uint32_t>(idx);
            const bool unique =
                scan_ ? scanSet(way - way % assoc_, line.lineAddr) == way
                      : index_.insert(line.lineAddr, way);
            CACHELAB_ASSERT(unique, "cache state import: duplicate line ",
                            line.lineAddr);
            ++validLines_;
        }
    }

    rng_.setState(state.rngState);
    clock_ = state.clock;
    stats_ = state.stats;
    if (!probeMeta_.empty())
        probeMeta_.assign(lines_.size(), ProbeMeta{});
}

bool
Cache::contains(Addr addr) const
{
    return wayOf(alignDown(addr, config_.lineBytes)) != kInvalid;
}

bool
Cache::isDirty(Addr addr) const
{
    const std::uint32_t idx = wayOf(alignDown(addr, config_.lineBytes));
    return idx != kInvalid && lines_[idx].dirty;
}

std::uint32_t
Cache::wayOf(Addr line_addr) const
{
    if (!scan_)
        return index_.find(line_addr);
    return scanSet(static_cast<std::uint32_t>(setOf(line_addr) * assoc_),
                   line_addr);
}

} // namespace cachelab
