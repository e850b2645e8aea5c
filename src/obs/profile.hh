/**
 * @file
 * Phase profiling: RAII monotonic-clock timers aggregated per
 * (phase × thread).
 *
 * A ProfileScope marks one dynamic extent of a named phase
 * ("simulate", "sweep.point", "sample.warm", ...).  Scopes are cheap
 * when profiling is disabled (one relaxed atomic load in the
 * constructor, nothing in the destructor) and coarse-grained by
 * design: the simulator opens one scope per run / sweep point /
 * sampling interval, never per memory reference, so the hot loop is
 * untouched.
 *
 * Aggregation is per (phase, thread): each recording thread gets its
 * own accumulator row, keyed by its ThreadPool worker slot when on a
 * pool thread so the report can show how evenly a sweep's points
 * spread over the pool.  profileReport() merges rows per phase;
 * renderProfileTable() turns that into the `--profile` table.
 *
 * When hardware counters are enabled (obs/perf_counters, `--perf`),
 * each scope additionally samples its thread's counter group at entry
 * and exit, so every phase row carries IPC and MPKI next to its wall
 * time, and outermost scopes feed the process-wide perf totals.  With
 * perf disabled the scope does exactly what it did before — one
 * relaxed load extra.
 */

#ifndef CACHELAB_OBS_PROFILE_HH
#define CACHELAB_OBS_PROFILE_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/perf_counters.hh"

namespace cachelab
{

class JsonWriter;

namespace obs
{

/** Turn phase profiling on or off (off by default). */
void setProfilingEnabled(bool enabled);

/** @return true when ProfileScope records. */
bool profilingEnabled();

/** Drop every accumulated phase (tests / between sweep points). */
void resetProfiles();

/** Times one phase extent; records on destruction when enabled. */
class ProfileScope
{
  public:
    explicit ProfileScope(std::string_view phase);
    ~ProfileScope();

    ProfileScope(const ProfileScope &) = delete;
    ProfileScope &operator=(const ProfileScope &) = delete;

  private:
    std::string_view phase_; ///< callers pass literals; not stored past dtor
    std::chrono::steady_clock::time_point start_;
    bool active_;
    bool perfActive_;      ///< perfEnabled() at construction
    PerfSample perfStart_; ///< this thread's counters at entry
};

/** Merged accounting of one phase across all recording threads. */
struct PhaseProfile
{
    std::string phase;
    std::uint64_t calls = 0;
    std::uint64_t totalNs = 0; ///< summed across threads (CPU-ish time)
    std::uint64_t minNs = 0;
    std::uint64_t maxNs = 0;
    std::uint64_t maxThreadNs = 0; ///< busiest thread's total (wall bound)
    unsigned threads = 0;          ///< distinct recording threads
    PerfTotals perf;               ///< counter deltas (empty unless --perf)
};

/** @return per-phase rows, busiest (largest totalNs) first. */
std::vector<PhaseProfile> profileReport();

/** Render the --profile table (phase, calls, total, mean, min/max). */
std::string renderProfileTable(const std::vector<PhaseProfile> &report);

/** Emit the report as a JSON array for the run manifest. */
void writeProfileJson(JsonWriter &w,
                      const std::vector<PhaseProfile> &report);

} // namespace obs
} // namespace cachelab

#endif // CACHELAB_OBS_PROFILE_HH
