/**
 * @file
 * Declarative experiment specs: the request language of the campaign
 * server.
 *
 * A spec is one JSON object describing a complete experiment — an
 * input (trace file, corpus profile, or parameterized KV workload), a
 * base cache configuration, a size axis, and the run schedule (purge
 * interval, warm-up).  The same spec drives `cachelab_serve` requests
 * and standalone `cachelab_sim --spec` runs, so a tenant can check any
 * server answer against a from-scratch run bit for bit.
 *
 * Shape (all cache/run fields optional, defaults in parentheses):
 *
 *   {
 *     "id": "tenant-a",                      // echoed in results
 *     "input": {
 *       "kind": "profile",                   // "file" | "profile" | "kv"
 *       "name": "ZGREP",                     // profile name | file path
 *       "refs": 50000                        // cap; 0 = profile default
 *     },
 *     "cache": {
 *       "line_bytes": 16,
 *       "associativity": 0,                  // 0 = fully associative
 *       "replacement": "slru:probation=0.2", // policy string ...
 *       // ... or the structured form {"name": "slru",
 *       //                             "params": {"probation": 0.2}};
 *       // any cache/policy name (lru, fifo, random, slru, lfu,
 *       // lfuda, 2q, arc); bare "lru" remains the default
 *       "admission": "tinylfu",              // optional filter; same
 *                                            // two forms; "none" = off
 *       "write_policy": "copy-back",         // | "write-through"
 *       "write_miss": "fetch-on-write",      // | "no-allocate"
 *       "fetch": "demand",                   // | "prefetch-always"
 *       "random_seed": 1
 *     },
 *     "sizes": [1024, 4096]                  // or {"lo": 256, "hi": 8192}
 *     "purge_interval": 0,
 *     "warmup_refs": 0,
 *     "timing": {                            // optional; enables AMAT
 *       "hit_cycles": 1, "memory_cycles": 100, "width_bytes": 8
 *     }
 *   }
 *
 * A "kv" input carries the KvWorkloadParams knobs instead of a name:
 * refs, key_count, object_bytes, ref_bytes, zipf_theta, read_ratio,
 * scan_fraction, mean_scan_objects, drift_refs, seed.
 *
 * Everything here is NON-FATAL by design: the server must survive any
 * malformed tenant input, so parsing and validation return diagnostics
 * instead of calling fatal().  Tools that want to die on a bad spec
 * (cachelab_sim) wrap the returned error in their own fatal().
 */

#ifndef CACHELAB_SERVE_SPEC_HH
#define CACHELAB_SERVE_SPEC_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/config.hh"
#include "sim/timing.hh"
#include "trace/source.hh"
#include "util/json_reader.hh"
#include "workload/kv_model.hh"

namespace cachelab::serve
{

/** Where an experiment's references come from. */
struct InputSpec
{
    enum class Kind
    {
        File,    ///< trace file on the server's filesystem
        Profile, ///< named corpus profile (workload/profiles)
        Kv,      ///< parameterized KV/CDN workload (workload/kv_model)
    };

    Kind kind = Kind::Profile;
    std::string name;        ///< profile name or file path
    std::uint64_t refs = 0;  ///< length cap; 0 = natural length
    KvWorkloadParams kv;     ///< Kind::Kv parameters

    /** Display name for manifests ("ZGREP", "kv:...", a path). */
    std::string displayName() const;

    /**
     * Canonical identity of the reference stream this input produces.
     * Equal keys mean equal streams: the resource cache shares loaded
     * traces across requests by this key, and the batcher coalesces
     * requests whose keys match into one engine pass.
     */
    std::string cacheKey() const;

    /**
     * @return the stream's length when it is knowable without reading
     * the input (profiles and KV workloads; 0 for files), used to
     * pre-check the warm-up rule without touching the trace.
     */
    std::uint64_t knownRefs() const;

    /** Open the input as a fresh positioned-at-start source. */
    std::unique_ptr<TraceSource> open(std::string *error) const;
};

/** One declarative experiment: input x configs x schedule. */
struct ExperimentSpec
{
    std::string id;          ///< tenant-chosen label, echoed back
    InputSpec input;
    CacheConfig base;        ///< sizeBytes ignored; sizes below rule
    std::vector<std::uint64_t> sizes;
    std::uint64_t purgeInterval = 0;
    std::uint64_t warmupRefs = 0;
    TimingConfig timing;     ///< AMAT model; default = not configured

    /** The batcher's compatibility key (the input identity). */
    std::string batchKey() const { return input.cacheKey(); }
};

/**
 * Parse and validate @p doc into @p out.
 *
 * @return std::nullopt on success, else a one-line diagnostic naming
 * the offending field.  Never fatal()s, whatever the input.
 */
std::optional<std::string> parseExperimentSpec(const JsonValue &doc,
                                               ExperimentSpec &out);

/** parseExperimentSpec() from raw JSON text (parse + validate). */
std::optional<std::string> parseExperimentSpec(std::string_view text,
                                               ExperimentSpec &out);

} // namespace cachelab::serve

#endif // CACHELAB_SERVE_SPEC_HH
