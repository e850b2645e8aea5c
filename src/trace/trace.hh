/**
 * @file
 * In-memory address trace container.
 */

#ifndef CACHELAB_TRACE_TRACE_HH
#define CACHELAB_TRACE_TRACE_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "trace/memory_ref.hh"
#include "trace/source.hh"

namespace cachelab
{

/**
 * A named sequence of memory references.
 *
 * Traces may be generated synthetically (src/workload), read from a
 * file (src/trace/io), or derived from other traces (transforms).
 *
 * A Trace is also a (trivial) TraceSource over its own vector, so any
 * streaming consumer accepts a materialized trace directly; the
 * source cursor is independent of the container API (reset() rewinds
 * it, mutation does not).
 */
class Trace : public TraceSource
{
  public:
    Trace() = default;

    /** @param name identifies the trace in reports (e.g. "VSPICE"). */
    explicit Trace(std::string name) : name_(std::move(name)) {}

    Trace(std::string name, std::vector<MemoryRef> refs)
        : name_(std::move(name)), refs_(std::move(refs))
    {}

    const std::string &name() const override { return name_; }

    /** Append one reference. */
    void append(const MemoryRef &ref) { refs_.push_back(ref); }

    /** Append a reference built from fields. */
    void
    append(Addr addr, std::uint32_t size, AccessKind kind)
    {
        refs_.push_back(MemoryRef{addr, size, kind});
    }

    /** Pre-allocate capacity for @p n references. */
    void reserve(std::size_t n) { refs_.reserve(n); }

    /** Drop all references (capacity kept) and rewind the cursor. */
    void
    clear()
    {
        refs_.clear();
        cursor_ = 0;
    }

    std::size_t size() const { return refs_.size(); }
    bool empty() const { return refs_.empty(); }

    const MemoryRef &operator[](std::size_t i) const { return refs_[i]; }

    /** @return a read-only view of all references. */
    std::span<const MemoryRef> refs() const { return refs_; }

    auto begin() const { return refs_.begin(); }
    auto end() const { return refs_.end(); }

    /** @return count of references of @p kind. */
    std::uint64_t countKind(AccessKind kind) const;

    /** @return fraction of references of @p kind (0 when empty). */
    double fractionKind(AccessKind kind) const;

    // TraceSource: stream the vector from an internal cursor.
    std::size_t nextBatch(std::span<MemoryRef> out) override;
    void reset() override { cursor_ = 0; }
    std::uint64_t knownLength() const override { return refs_.size(); }
    std::uint64_t skip(std::uint64_t n) override;

  private:
    std::string name_;
    std::vector<MemoryRef> refs_;
    std::size_t cursor_ = 0; ///< TraceSource read position
};

} // namespace cachelab

#endif // CACHELAB_TRACE_TRACE_HH
