/**
 * @file
 * Trace-to-trace transformations.
 *
 * These model the experimental setups of the paper: truncation to a
 * fixed reference budget ("computer time is a limited resource",
 * section 3.2) and round-robin multiprogramming interleave ("the
 * traces were run through the simulator in a round robin manner,
 * switching ... every 20,000 memory references", section 3.3).
 */

#ifndef CACHELAB_TRACE_TRANSFORMS_HH
#define CACHELAB_TRACE_TRANSFORMS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "trace/trace.hh"

namespace cachelab
{

/** @return the first @p max_refs references of @p trace. */
Trace truncate(const Trace &trace, std::uint64_t max_refs);

/**
 * Round-robin interleave of several traces.
 *
 * Switches to the next trace every @p quantum references; each trace
 * resumes where it left off, and traces that run out are dropped from
 * the rotation.  The output ends when all inputs are exhausted (or
 * after @p max_refs total references when nonzero).
 *
 * Note this produces the reference *sequence*; the simulator decides
 * whether a switch boundary also purges the cache (see RunConfig).
 */
Trace interleaveRoundRobin(const std::vector<Trace> &traces,
                           std::uint64_t quantum, std::string name,
                           std::uint64_t max_refs = 0);

/**
 * Offset every address in @p trace by @p delta bytes (used to give
 * multiprogrammed address spaces disjoint ranges).
 */
Trace offsetAddresses(const Trace &trace, Addr delta);

/** @return a copy containing only references satisfying @p keep. */
Trace filter(const Trace &trace,
             const std::function<bool(const MemoryRef &)> &keep,
             std::string name);

} // namespace cachelab

#endif // CACHELAB_TRACE_TRANSFORMS_HH
