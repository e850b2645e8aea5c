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
#include <memory>
#include <vector>

#include "trace/source.hh"
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
 * Streaming round-robin interleave: the pull-based counterpart of
 * interleaveRoundRobin(), producing the identical reference sequence
 * without materializing the inputs.  Children that run out are dropped
 * from the rotation with the turn passing to their successor, exactly
 * like the materialized transform; a mid-quantum position is carried
 * across nextBatch() boundaries.
 *
 * reset() rewinds every child (children must support reset()).
 * knownLength() is the sum of the children's lengths when all are
 * known (capped by @p max_refs), unknown otherwise.
 */
class InterleaveSource : public TraceSource
{
  public:
    /** @param max_refs stop after this many total references (0 = all). */
    InterleaveSource(std::vector<std::unique_ptr<TraceSource>> children,
                     std::uint64_t quantum, std::string name,
                     std::uint64_t max_refs = 0);

    const std::string &name() const override { return name_; }
    std::size_t nextBatch(std::span<MemoryRef> out) override;
    void reset() override;
    std::uint64_t knownLength() const override;

  private:
    struct Child
    {
        std::unique_ptr<TraceSource> source;
        std::vector<MemoryRef> buf; ///< lookahead refill buffer
        std::size_t pos = 0;        ///< next unread index into buf
    };

    /** Refill @p child's buffer; @return false when it is dry. */
    bool refill(Child &child);

    std::string name_;
    std::vector<Child> children_;
    std::vector<std::size_t> rotation_; ///< indices of live children
    std::uint64_t quantum_;
    std::uint64_t maxRefs_;
    std::size_t turn_ = 0;
    std::uint64_t issuedThisQuantum_ = 0;
    std::uint64_t emitted_ = 0;
};

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
