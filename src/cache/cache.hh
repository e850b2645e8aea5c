/**
 * @file
 * The cache model.
 *
 * A single cache parameterized by CacheConfig: direct-mapped through
 * fully associative, any replacement policy of cache/policy.hh with
 * optional admission, copy-back or write-through, demand fetch or
 * prefetch-always.  A set of at most Cache::kMaxScanWays ways is its
 * own index: a lookup checks the way last hit or filled in the set,
 * then scans the set's ways.  Wider sets (a fully associative cache of
 * more than 16 lines, such as Table 1's from 512 B) find a line with
 * one probe of a flat line index (util/flat_map.hh).  The policy's
 * bookkeeping comes on top: O(1) for the recency-list trio, an
 * O(assoc) scan of the line array for the zoo.
 */

#ifndef CACHELAB_CACHE_CACHE_HH
#define CACHELAB_CACHE_CACHE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/config.hh"
#include "cache/policy.hh"
#include "cache/probe.hh"
#include "cache/stats.hh"
#include "trace/memory_ref.hh"
#include "util/flat_map.hh"
#include "util/random.hh"

namespace cachelab
{

/**
 * Observer of a cache's fill and eviction events.  Used to compose
 * caches into larger structures (hierarchies, victim caches) without
 * burdening the hot path: a null observer costs one branch.
 */
class CacheObserver
{
  public:
    virtual ~CacheObserver() = default;

    /** A line was fetched into the cache. */
    virtual void onFill(Addr line_addr, bool prefetched) = 0;

    /** A valid line was removed (replacement or purge). */
    virtual void onEvict(Addr line_addr, bool dirty, bool is_purge) = 0;
};

/**
 * Dynamic state of a Cache, as exported by Cache::exportState() and
 * accepted by Cache::importState().
 *
 * Exact for lru, fifo and random without an admission filter, whose
 * whole policy state is the recency order: importing it into a cache
 * of the identical geometry and continuing the reference stream
 * reproduces the original run bit for bit (way identity and the
 * random-replacement generator state are preserved).  Other caches
 * export it but refuse an import.  It is an in-memory value only: the
 * live-point restore (ckpt/live_points.hh) builds one from a stored
 * image and imports it, and tests compare caches through exportState().
 */
struct CacheState
{
    // Geometry echo, checked on import.
    std::uint64_t sizeBytes = 0;
    std::uint32_t lineBytes = 0;
    std::uint64_t sets = 0;
    std::uint64_t assoc = 0;

    struct Line
    {
        Addr lineAddr = 0;
        bool valid = false;
        bool dirty = false;

        bool operator==(const Line &) const = default;
    };

    /** Way-indexed lines, sets * assoc entries. */
    std::vector<Line> lines;

    /**
     * Per-set recency order as way indices, MRU first: entries
     * [set * assoc, (set + 1) * assoc) list every way of @p set
     * exactly once (invalid ways are on the list too).  Scan-based
     * policies emit the identity permutation here.
     */
    std::vector<std::uint32_t> recency;

    std::array<std::uint64_t, 4> rngState{};
    std::uint64_t clock = 0;
    CacheStats stats;
};

/**
 * One cache.
 *
 * Thread-compatible (no internal synchronization): use one instance
 * per simulation thread.  Not copyable or movable: the replacement
 * policy holds a view of the line array and a pointer to the rng.
 */
class Cache
{
  public:
    /**
     * Widest set found by a scan of its ways rather than the line
     * index; the geometry alone decides (DESIGN.md §2, "One flat line
     * index", has the crossover it comes from).
     */
    static constexpr std::uint64_t kMaxScanWays = 16;

    /** Construct from a validated configuration. */
    explicit Cache(const CacheConfig &config);

    Cache(const Cache &) = delete;
    Cache &operator=(const Cache &) = delete;

    /**
     * Apply one memory reference.
     *
     * The reference hits iff every line it touches is resident; missing
     * lines are fetched per the write/fetch policies.  With
     * FetchPolicy::PrefetchAlways the successor of the last touched
     * line is verified resident and prefetched if not.
     *
     * @return true when the reference hit.
     */
    bool
    access(const MemoryRef &ref)
    {
        return scan_ ? accessWith<true>(ref) : accessWith<false>(ref);
    }

    /**
     * Invalidate the whole cache, as on a task switch in a machine
     * without address-space tags.  Dirty lines are pushed to memory
     * and counted in the purge-push statistics.
     */
    void purge();

    /** @return true when the line containing @p addr is resident. */
    bool contains(Addr addr) const;

    /** @return true when the line containing @p addr is resident and
     *  dirty. */
    bool isDirty(Addr addr) const;

    /** @return number of currently valid lines. */
    std::uint64_t validLineCount() const { return validLines_; }

    const CacheConfig &config() const { return config_; }
    const CacheStats &stats() const { return stats_; }

    /** Zero the statistics, keeping cache contents (warm-up support). */
    void resetStats() { stats_ = CacheStats{}; }

    /** Attach an observer (not owned; nullptr detaches). */
    void setObserver(CacheObserver *observer) { observer_ = observer; }

    /**
     * Attach an introspection probe (not owned; nullptr detaches).
     * See probe.hh for the event vocabulary and the cost model.
     * First attachment allocates the per-line event metadata, which
     * lives outside CacheLine so probe-off runs keep the compact layout.
     */
    void setProbe(CacheProbe *probe)
    {
        probe_ = probe;
        if (probe != nullptr && probeMeta_.size() != lines_.size())
            probeMeta_.assign(lines_.size(), ProbeMeta{});
    }

    /** @return the attached probe, or nullptr (chaining support). */
    CacheProbe *probe() const { return probe_; }

    /**
     * @return the admission policy, or nullptr when none is
     * configured (exposes the admitted/rejected counters).
     */
    const AdmissionPolicy *admission() const { return admission_.get(); }

    /** @return number of access() calls so far (the event clock). */
    std::uint64_t accessClock() const { return clock_; }

    /** @return a snapshot of the cache's dynamic state. */
    CacheState exportState() const;

    /**
     * Replace the cache's dynamic state with @p state (an exact
     * restore: tags, dirty bits, recency order, way identity, rng
     * state, clock and statistics).  fatal() when the snapshot's
     * geometry does not match this cache's configuration.  panic() when
     * the recency lists are malformed, and, before any line is
     * replaced, when the cache runs anything but lru, fifo or random
     * without an admission filter.
     */
    void importState(const CacheState &state);

  private:
    /** No way: an index miss, or a fill the admission rejected. */
    static constexpr std::uint32_t kInvalid = AddrIndex::kEmpty;

    /**
     * Per-line bookkeeping only events consume, kept in a parallel
     * array (indexed like lines_) and maintained only while a probe
     * is attached, so the probe-off hot path keeps CacheLine small.
     */
    struct ProbeMeta
    {
        std::uint64_t fillClock = 0; ///< access() clock at fill
        std::uint64_t hitCount = 0;  ///< hits since fill
    };

    std::uint64_t setOf(Addr line_addr) const;

    /**
     * @return the way of the set starting at way @p base that holds
     * @p line_addr, or kInvalid: a scan of the set in way order.
     */
    std::uint32_t scanSet(std::uint32_t base, Addr line_addr) const;

    /** @return the way holding @p line_addr, or kInvalid (no hint). */
    std::uint32_t wayOf(Addr line_addr) const;

    /**
     * @return the way holding @p line_addr, or kInvalid.  @tparam kScan
     * selects the lookup: the set's hinted way, then a scan that moves
     * the hint to the way it finds; or one probe of the line index.
     */
    template <bool kScan>
    std::uint32_t findWay(Addr line_addr);

    /** Evict (and account) the line in way @p idx if valid. */
    template <bool kScan>
    void evict(std::uint32_t idx, bool is_purge);

    /**
     * Fetch @p line_addr into its set. @p prefetched selects the
     * traffic counter.  @return the filled way, or kInvalid when the
     * admission policy rejected the fill (nothing was evicted or
     * installed).
     */
    template <bool kScan>
    std::uint32_t install(Addr line_addr, bool prefetched);

    /**
     * Reference one line.  @return true on hit.  On a write the
     * write policy is applied; @p size is the access width (used for
     * write-through traffic).
     *
     * @tparam kProbed compiled-in probe dispatch: the false
     * instantiation carries no probe branches at all, keeping the
     * uninstrumented hot path identical to a probe-free build.
     * @tparam kScan the lookup findWay() uses.
     */
    template <bool kProbed, bool kScan>
    bool touchLine(Addr line_addr, AccessKind kind, std::uint32_t size);

    /**
     * access() with the lookup fixed (@tparam kScan as in findWay()):
     * the caller picks it once per reference, so each lookup's line
     * loop is compiled on its own.
     */
    template <bool kScan>
    bool accessWith(const MemoryRef &ref);

    /** The instrumented line loop, kept out of line so its bulk does
     *  not eat access()'s inlining budget (which would deopt the
     *  probe-off hot path). */
    template <bool kScan>
    [[gnu::noinline]] bool accessLinesProbed(Addr first, Addr last,
                                             AccessKind kind,
                                             std::uint32_t size);

    /** Apply prefetch-always for the successor of @p line_addr. */
    template <bool kScan>
    void maybePrefetch(Addr line_addr);

    CacheConfig config_;
    CacheStats stats_;

    std::vector<CacheLine> lines_;  ///< sets * assoc entries, never resized
    std::vector<ProbeMeta> probeMeta_; ///< empty until a probe attaches
    std::unique_ptr<ReplacementPolicy> policy_;
    std::unique_ptr<AdmissionPolicy> admission_; ///< nullptr = admit all
    /** lineAddr -> way of every valid line; empty when scan_. */
    AddrIndex index_;
    /**
     * Per set, the way (counted from the set's first) last hit or
     * filled there; empty unless scan_.  A lookup hint, not state: it
     * may name an invalid or reused way, so it is always checked.
     */
    std::vector<std::uint8_t> hint_;

    bool scan_; ///< assoc_ <= kMaxScanWays: sets are scanned, no index
    std::uint64_t assoc_;
    std::uint64_t sets_;
    unsigned lineShift_;    ///< log2(lineBytes): setOf() without division
    std::uint64_t setMask_; ///< sets_ - 1
    std::uint64_t validLines_ = 0;
    std::uint64_t clock_ = 0; ///< access() count (event timestamps)
    Rng rng_;
    CacheObserver *observer_ = nullptr;
    CacheProbe *probe_ = nullptr;
};

} // namespace cachelab

#endif // CACHELAB_CACHE_CACHE_HH
