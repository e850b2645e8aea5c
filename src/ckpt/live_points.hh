/**
 * @file
 * Live-point checkpoint store: warmed cache state for whole
 * configuration *families*, captured in one trace pass.
 *
 * A sampled study sweeps many cache configurations over one trace with
 * one sampling plan.  Functional warming makes every configuration
 * replay the full trace, so the campaign costs O(configs x trace).
 * This module makes warming a *shared* artifact: a single producer
 * pass streams the trace once, and at each planned interval start
 * writes a compact image from which the functionally-warmed state of
 * every eligible configuration can be reconstructed exactly.  The
 * campaign cost becomes O(trace + configs x sample).
 *
 * The sharing trick is LRU stack inclusion (Mattson): at a fixed line
 * size and set count, an LRU cache of associativity A holds exactly
 * the top A lines of each set's recency stack, and that stack's order
 * does not depend on A.  So one image per (line size, set count)
 * group, bounded at the group's maximum associativity, serves every
 * smaller associativity — for fully associative caches (the paper's
 * Table 1 baseline) one image serves every *size*.  The stacks are
 * those of the shared LRU stack core (cache/lru_stack.hh), and
 * dirtiness is recovered per associativity by its dirty rule:
 *
 *   dirty in a copy-back cache of assoc A
 *       <=>  written  &&  maxDepth <= A
 *
 * where maxDepth is the deepest recency-stack depth observed at the
 * line's non-write accesses since its last write (0 when none).  A
 * line whose depth exceeded A after its last write was evicted from
 * the assoc-A cache and demand-refetched clean; one whose depth never
 * did stayed resident and dirty.  Write-through targets are always
 * clean.
 *
 * Eligibility: inclusion holds for LRU replacement, demand fetch and
 * fetch-on-write allocation (both write policies).  FIFO/Random
 * replacement, an admission filter, prefetch-always and no-allocate
 * all make residency depend on the configuration, so no shared image
 * can serve them; the store rejects those targets with a diagnostic
 * that points them to functional warming, which replays the trace
 * through each cache.
 *
 * Compatibility: a store is keyed by (trace identity, sampling-plan
 * parameters, purge schedule).  The key hash gates restoration up
 * front with a clear diagnostic; the full-trace content hash is
 * verified by the consuming drivers as they stream, so a same-length
 * impostor trace is also caught.
 */

#ifndef CACHELAB_CKPT_LIVE_POINTS_HH
#define CACHELAB_CKPT_LIVE_POINTS_HH

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cache/cache.hh"
#include "cache/config.hh"
#include "cache/lru_stack.hh"
#include "sample/sample_config.hh"
#include "trace/memory_ref.hh"
#include "trace/source.hh"

namespace cachelab::ckpt
{

/**
 * Everything a live-point store's validity depends on.  Two runs with
 * equal keys have identical sampling plans and identical warming
 * state at every interval start, for every eligible configuration.
 */
struct LivePointKey
{
    std::string traceName;
    std::uint64_t traceRefs = 0;

    // The plan-affecting SampleConfig parameters (warming policy and
    // stopping rule deliberately excluded: they do not change the
    // interval placement or the warmed state at interval starts).
    std::uint64_t unitRefs = 0;
    double fraction = 0.0;
    IntervalSelection selection = IntervalSelection::Systematic;
    std::uint64_t seed = 0;

    std::uint64_t purgeInterval = 0;

    bool split = false;
    std::uint64_t ifetchRefs = 0; ///< I-channel length (split only)
    std::uint64_t dataRefs = 0;   ///< D-channel length (split only)
};

/** @return the FNV-1a compatibility hash of @p key. */
std::uint64_t livePointKeyHash(const LivePointKey &key);

/** Key for a unified-organization store. */
LivePointKey unifiedLivePointKey(const std::string &trace_name,
                                 std::uint64_t trace_refs,
                                 const SampleConfig &sample,
                                 std::uint64_t purge_interval);

/** Key for a split-organization store (per-side stream lengths). */
LivePointKey splitLivePointKey(const std::string &trace_name,
                               std::uint64_t trace_refs,
                               std::uint64_t ifetch_refs,
                               std::uint64_t data_refs,
                               const SampleConfig &sample);

/**
 * fatal() unless @p config is a configuration live-points can serve:
 * LRU replacement, demand fetch, fetch-on-write allocation.
 */
void requireLivePointEligible(const CacheConfig &config);

/**
 * Chain @p refs into the trace content hash @p hash.  Each reference's
 * address, size and kind fold into one 64-bit word, and the word
 * enters the chain through one multiply.  The hash is computed on
 * values, not bytes, so it does not depend on how a stream is cut into
 * batches or on the host's byte order.  Start a chain at
 * kContentHashSeed.
 */
std::uint64_t hashRefs(std::uint64_t hash, std::span<const MemoryRef> refs);

/** Initial value of a trace content hash chain (hashRefs()). */
inline constexpr std::uint64_t kContentHashSeed = 0x6a09e667f3bcc908ULL;

/** One resident line of a live-point image: a line of the core. */
using LivePointEntry = LruLine;

/** The shared warm state at one interval start. */
struct LivePointImage
{
    std::uint64_t begin = 0;      ///< interval start (channel-relative)
    std::uint64_t sincePurge = 0; ///< purge-schedule carry at begin

    /** Per-set runs into entries: set s is [offsets[s], offsets[s+1]). */
    std::vector<std::uint64_t> setOffsets;

    /** Recency stacks, MRU first within each set, depth <= maxAssoc. */
    std::vector<LivePointEntry> entries;
};

/**
 * All live-point images of one (role, line size, set count) group:
 * the restoration unit.  Restores are const and thread-safe, so many
 * sweep workers can fan out of one group concurrently.
 */
class LivePointGroup
{
  public:
    const std::string &role() const { return role_; }
    std::uint32_t lineBytes() const { return lineBytes_; }
    std::uint64_t setCount() const { return setCount_; }
    std::uint32_t maxAssoc() const { return maxAssoc_; }

    /** @return the image for plan interval @p interval_idx. */
    const LivePointImage &image(std::size_t interval_idx) const;

    /**
     * Load @p cache with the exact functionally-warmed state at plan
     * interval @p interval_idx's start, and set @p since_purge to the
     * purge-schedule carry a functional replay would have reached.
     * fatal() when the cache's geometry or policies are outside what
     * this group can serve (line size / set count mismatch,
     * associativity above maxAssoc(), or an ineligible policy).
     */
    void restoreInto(Cache &cache, std::size_t interval_idx,
                     std::uint64_t &since_purge) const;

  private:
    friend class LivePointStore;

    std::string role_;
    std::uint32_t lineBytes_ = 0;
    std::uint64_t setCount_ = 0;
    std::uint32_t maxAssoc_ = 0;
    std::vector<LivePointImage> images_;
};

/** What to capture: the configuration family and the plan. */
struct LivePointWriteSpec
{
    /** Trace identity; empty adopts the source's name(). */
    std::string traceName;

    /** Plan parameters (unitRefs, fraction, selection, seed). */
    SampleConfig sample;

    /** Task-switch purge schedule (unified only; split asserts 0). */
    std::uint64_t purgeInterval = 0;

    /** false: one "unified" channel; true: "icache" + "dcache"
     *  channels over the per-kind sub-streams. */
    bool split = false;

    /** Policy/line-size template; must be live-point eligible. */
    CacheConfig base;

    /** Capacities the store must serve; one group is written per
     *  distinct set count, bounded at the largest associativity. */
    std::vector<std::uint64_t> sizes;

    /**
     * Parallelism across channels (0 = shared-pool width, 1 = serial).
     * A channel's groups run in one pass on one thread, so only a
     * split store, with its two channels, fans out, on at most two
     * threads.
     */
    unsigned jobs = 1;

    /** Provenance string recorded in store.json (e.g. the argv). */
    std::string createdBy;
};

/** What writeLivePoints() produced. */
struct LivePointWriteSummary
{
    std::uint64_t keyHash = 0;
    std::uint64_t contentHash = 0;
    std::uint64_t traceRefs = 0;
    std::uint64_t intervals = 0; ///< images written, all groups
    std::uint64_t groups = 0;
    std::uint64_t bytesWritten = 0;
};

/**
 * Stream @p source once and write a live-point store to directory
 * @p dir (created if needed): store.json plus one binary group file
 * per (role, line size, set count).  The producer honours the purge
 * schedule and captures an image at every planned interval start, so
 * restoration reproduces functional warming bit for bit.
 */
LivePointWriteSummary writeLivePoints(TraceSource &source,
                                      const std::string &dir,
                                      const LivePointWriteSpec &spec);

/**
 * A loaded live-point store.  Check compatibility first, then hand
 * group() references to the sampled drivers.
 */
class LivePointStore
{
  public:
    /**
     * Parse @p dir/store.json and load every group file.  fatal()
     * unless every image sits on the plan its key selects: one image
     * per planned interval, each beginning where its interval does and
     * carrying the purge-schedule count the writer reaches there.
     */
    static LivePointStore load(const std::string &dir);

    /**
     * fatal() unless @p key matches the key this store was written
     * under — the diagnostic names both compatibility hashes and
     * every differing field.
     */
    void checkCompatible(const LivePointKey &key) const;

    /**
     * @return the group serving caches of @p role with @p line_bytes
     * lines, @p set_count sets and associativity up to @p min_assoc;
     * fatal() when the store has no such group.
     */
    const LivePointGroup &group(std::string_view role,
                                std::uint32_t line_bytes,
                                std::uint64_t set_count,
                                std::uint64_t min_assoc) const;

    const LivePointKey &key() const { return key_; }
    std::uint64_t keyHash() const { return keyHash_; }

    /** Full-trace content hash (hashRefs()) recorded by the producer. */
    std::uint64_t contentHash() const { return contentHash_; }

    /** Directory this store was loaded from. */
    const std::string &directory() const { return dir_; }

  private:
    LivePointStore() = default;

    std::string dir_;
    LivePointKey key_;
    std::uint64_t keyHash_ = 0;
    std::uint64_t contentHash_ = 0;
    std::vector<LivePointGroup> groups_;
};

} // namespace cachelab::ckpt

#endif // CACHELAB_CKPT_LIVE_POINTS_HH
