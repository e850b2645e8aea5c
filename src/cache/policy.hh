/**
 * @file
 * Pluggable replacement/admission policy API.
 *
 * The cache model used to hard-wire a closed three-value replacement
 * enum into its hot path; this module replaces it with an open,
 * per-set policy surface:
 *
 *  - PolicySpec — the *identity* of a policy: a lowercase name plus
 *    numeric parameters, parsed from and rendered to the shared
 *    `name:key=value,key=value` syntax every consumer uses (the
 *    `--replacement` flag, serve-spec JSON, manifests, CSV labels).
 *  - ReplacementPolicy — the per-set *behaviour*: victim choice plus
 *    onFill/onHit/onEvict bookkeeping.
 *  - AdmissionPolicy — an optional filter consulted before a missing
 *    line is installed (the TinyLFU-style frequency sketch lives
 *    here).  The "millions of users" KV/CDN regime is
 *    admission-dominated, so this is a first-class axis, not a
 *    replacement-policy parameter.
 *
 * The classic trio (lru, fifo, random) is implemented on the same
 * interface via the intrusive per-set recency list the cache always
 * used, and is bitwise identical to the pre-API behaviour: same
 * statistics, same probe event streams, same exported state.  The
 * modern zoo (slru, lfu, lfuda, 2q, arc) keeps per-way metadata and
 * per-set ghost lists instead and selects victims with an O(assoc)
 * scan — fine for a simulator and easy to validate against
 * independent reference models (tests/policy_test).
 */

#ifndef CACHELAB_CACHE_POLICY_HH
#define CACHELAB_CACHE_POLICY_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/memory_ref.hh"

namespace cachelab
{

class Rng;

/**
 * Identity of a policy: canonical lowercase name plus numeric
 * parameters.  The default-constructed spec names LRU (the paper's
 * baseline); an empty name means "no policy" and is only meaningful
 * for the admission slot.
 */
struct PolicySpec
{
    std::string name = "lru";
    std::vector<std::pair<std::string, double>> params;

    bool operator==(const PolicySpec &) const = default;

    /** @return true when no policy is configured (admission off). */
    bool empty() const { return name.empty(); }

    /** @return the value of @p key, or @p fallback when absent. */
    double param(std::string_view key, double fallback) const;

    /**
     * Canonical rendering: `name` or `name:k=v,k=v` with the params
     * in their parse-normalized order.  parsePolicy(toString()) is
     * the identity.
     */
    std::string toString() const;

    /**
     * Display rendering for tables and describe() strings: the
     * legacy spellings ("LRU", "FIFO", "random") for the classic
     * trio so existing output stays stable, toString() otherwise.
     */
    std::string display() const;
};

/** @return spec for a bare policy name (no parameters). */
PolicySpec policySpec(std::string_view name);

/** Valid replacement-policy names, for error messages and docs. */
const std::vector<std::string> &replacementPolicyNames();

/** Valid admission-policy names. */
const std::vector<std::string> &admissionPolicyNames();

/**
 * Parse `name[:key=value[,key=value]...]` into @p out and validate it
 * as a replacement policy (known name, known parameter keys, values
 * in range).  @return std::nullopt on success, else a one-line
 * diagnostic that includes the valid-name list.  Never fatal()s: the
 * serve path surfaces the string, CLI tools wrap it in fatal().
 */
std::optional<std::string> parseReplacementPolicy(std::string_view text,
                                                  PolicySpec &out);

/** parseReplacementPolicy()'s admission twin ("", "none" = off). */
std::optional<std::string> parseAdmissionPolicy(std::string_view text,
                                                PolicySpec &out);

/**
 * Validate an already-parsed spec (e.g. decoded from JSON) under the
 * same rules as parseReplacementPolicy.
 */
std::optional<std::string> checkReplacementPolicy(const PolicySpec &spec);

/** checkReplacementPolicy()'s admission twin. */
std::optional<std::string> checkAdmissionPolicy(const PolicySpec &spec);

/** One cache line's metadata: an entry of the line array Cache owns. */
struct CacheLine
{
    Addr lineAddr = 0; ///< line-aligned address (tag + index)
    bool valid = false;
    bool dirty = false;
};

/**
 * What a policy may read of its cache: a view of the cache's line
 * array.  Ways are numbered globally: set s owns [s * assoc,
 * (s + 1) * assoc).  The view holds a plain pointer, so a query is one
 * load; Cache sizes its line array once at construction and never
 * moves it (Cache is neither copyable nor movable).
 */
class PolicyHost
{
  public:
    PolicyHost() = default;
    explicit PolicyHost(const CacheLine *lines) : lines_(lines) {}

    /** @return true when @p way currently holds a valid line. */
    bool wayValid(std::uint32_t way) const { return lines_[way].valid; }

    /** @return the line address resident in @p way (valid ways only). */
    Addr wayLineAddr(std::uint32_t way) const
    {
        return lines_[way].lineAddr;
    }

  private:
    const CacheLine *lines_ = nullptr;
};

/**
 * Replacement behaviour for every set of one cache.
 *
 * Lifecycle: the cache constructs the policy from its PolicySpec,
 * calls bind() once with the geometry, then streams onFill/onHit/
 * onEvict/victimWay as references are applied.  reset() restores the
 * just-bound state (task-switch purge); the rng passed to bind() is
 * owned and checkpointed by the cache and must be the policy's only
 * source of randomness.
 *
 * State model: exportRecency() must emit, per set, a permutation of
 * the set's ways (MRU first for the recency-list trio).  For lru, fifo
 * and random that permutation is the policy's whole state, and
 * importRecency() restores it exactly; the live-point restore builds
 * LRU states from a permutation alone.  The scan policies' state is
 * more than a permutation: they export the identity (so a cache's
 * state still lists its lines) and panic() on importRecency().
 */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    /** Bind geometry and services; called exactly once, before use. */
    virtual void bind(std::uint64_t sets, std::uint32_t assoc,
                      PolicyHost host, Rng *rng) = 0;

    /**
     * Choose the way of @p set the next fill will occupy — an invalid
     * way when the policy wants to use free space, else the victim.
     * @p incoming is the line address about to be installed (ARC's
     * ghost logic needs it; most policies ignore it).  Must not
     * assume the fill completes: an admission filter may still
     * reject it, in which case no onEvict/onFill follows.
     */
    virtual std::uint32_t victimWay(std::uint64_t set, Addr incoming) = 0;

    /** @p line_addr was installed into @p way of @p set. */
    virtual void onFill(std::uint64_t set, std::uint32_t way,
                        Addr line_addr) = 0;

    /** The resident line @p line_addr in @p way of @p set hit. */
    virtual void onHit(std::uint64_t set, std::uint32_t way,
                       Addr line_addr) = 0;

    /**
     * The valid line @p line_addr was evicted from @p way (replacement
     * when @p is_purge is false, whole-cache purge otherwise).
     */
    virtual void onEvict(std::uint64_t set, std::uint32_t way,
                         Addr line_addr, bool is_purge)
    {
        (void)set;
        (void)way;
        (void)line_addr;
        (void)is_purge;
    }

    /** Restore the just-bound state (after a purge). */
    virtual void reset() = 0;

    /**
     * Append, per set in order, a permutation of that set's ways.
     * importRecency() receives the same layout back.
     */
    virtual void exportRecency(std::vector<std::uint32_t> &out) const = 0;

    /**
     * Restore from an exportRecency() image (sets * assoc entries);
     * panic() when the policy's state is more than the permutation.
     */
    virtual void importRecency(std::span<const std::uint32_t> recency) = 0;
};

/**
 * Optional admission filter: decides whether a missing line is worth
 * caching at all.  When it rejects, the reference still counts as a
 * miss and its memory traffic still flows, but nothing is evicted or
 * installed — the hot working set is protected from one-hit wonders,
 * which is what dominates CDN/memcached-style workloads.
 */
class AdmissionPolicy
{
  public:
    virtual ~AdmissionPolicy() = default;

    /** Every reference to @p line_addr (hits and misses). */
    virtual void onAccess(Addr line_addr) = 0;

    /**
     * Should @p line_addr be installed, evicting @p victim_addr
     * (meaningful only when @p victim_valid)?  A free way is always
     * worth filling, so implementations should admit when
     * @p victim_valid is false.
     */
    virtual bool admit(Addr line_addr, Addr victim_addr,
                       bool victim_valid) = 0;

    /** Forget everything (purge). */
    virtual void reset() = 0;

    /**
     * The filter's whole state as words: the hook through which tests
     * compare it, counter for counter, to an offline model.  Nothing
     * restores it; a cache with a filter is warmed functionally.
     */
    virtual std::vector<std::uint64_t> exportWords() const = 0;

    std::uint64_t admitted() const { return admitted_; }
    std::uint64_t rejected() const { return rejected_; }

  protected:
    std::uint64_t admitted_ = 0;
    std::uint64_t rejected_ = 0;
};

/**
 * Instantiate the replacement policy @p spec names.  fatal() on an
 * unknown name or bad parameters (validate with
 * checkReplacementPolicy() first on untrusted input).
 */
std::unique_ptr<ReplacementPolicy> makeReplacementPolicy(
    const PolicySpec &spec);

/** Instantiate an admission policy; nullptr when @p spec is empty. */
std::unique_ptr<AdmissionPolicy> makeAdmissionPolicy(
    const PolicySpec &spec);

} // namespace cachelab

#endif // CACHELAB_CACHE_POLICY_HH
