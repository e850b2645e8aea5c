/**
 * @file
 * Pull-based streaming access to a reference stream: the TraceSource
 * API.
 *
 * Smith's study is trace-driven end to end, and real traces (millions
 * to billions of references) need not fit in memory.  A TraceSource
 * delivers a reference stream in caller-sized batches so every
 * consumer — runTrace(), the sweep engines, the sampled drivers, the
 * analyzer, the interleave transform — runs in O(batch) resident
 * memory regardless of stream length.
 *
 * Contract (see DESIGN.md §4e):
 *
 *  - nextBatch(out) writes up to out.size() references into @p out and
 *    returns how many were written.  Zero means the stream is
 *    exhausted; a short non-zero read does NOT imply end-of-stream
 *    (sources may batch along internal boundaries), so consumers loop
 *    until a zero return.
 *  - reset() rewinds to the first reference.  Every packaged source
 *    supports it (files move a cursor, generators re-seed
 *    deterministically), which is what lets multi-pass engines
 *    (SweepEngine::Verify, the split sampled sweep's counting pass)
 *    run over a stream.
 *  - knownLength() is a hint: the exact total reference count when the
 *    source knows it cheaply (file headers, generator parameters), or
 *    kUnknownLength.  Sampling plans require a known length.
 *  - skip(n) advances the cursor without delivering references.
 *    Random-access sources (in-memory, CLT1 files) override it with O(1)
 *    cursor moves; the default decodes and discards.
 *
 * A Trace *is* a TraceSource (a trivial one over its vector), so any
 * materialized trace can be handed to a streaming consumer directly.
 */

#ifndef CACHELAB_TRACE_SOURCE_HH
#define CACHELAB_TRACE_SOURCE_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "trace/memory_ref.hh"

namespace cachelab
{

class Trace;

/** Abstract pull-based reference stream. */
class TraceSource
{
  public:
    /** Sentinel knownLength(): the total count is not known. */
    static constexpr std::uint64_t kUnknownLength = ~std::uint64_t{0};

    /** Default batch capacity used by drivers (refs per pull). */
    static constexpr std::uint64_t kDefaultBatchRefs = 1u << 16;

    virtual ~TraceSource() = default;

    /** @return name identifying the stream in reports. */
    virtual const std::string &name() const = 0;

    /**
     * Fill up to out.size() references; @return the count written.
     * Zero means exhausted; short non-zero reads are allowed.
     */
    virtual std::size_t nextBatch(std::span<MemoryRef> out) = 0;

    /** Rewind to the first reference (multi-pass support). */
    virtual void reset() = 0;

    /** @return exact total reference count, or kUnknownLength. */
    virtual std::uint64_t knownLength() const { return kUnknownLength; }

    /** @return true when knownLength() is exact. */
    bool lengthKnown() const { return knownLength() != kUnknownLength; }

    /**
     * Advance past @p n references without delivering them.
     * @return how many were actually skipped (< n only at stream end).
     * The default decodes into a scratch buffer; random-access
     * sources override with a cursor move.
     */
    virtual std::uint64_t skip(std::uint64_t n);

    /**
     * Drain the remaining stream through @p fn in batches of
     * @p batch_refs references.  @return total refs delivered.
     */
    template <typename Fn>
    std::uint64_t
    forEachBatch(Fn &&fn, std::uint64_t batch_refs = kDefaultBatchRefs)
    {
        std::vector<MemoryRef> buf(static_cast<std::size_t>(
            batch_refs ? batch_refs : kDefaultBatchRefs));
        std::uint64_t total = 0;
        while (const std::size_t got = nextBatch(buf)) {
            fn(std::span<const MemoryRef>(buf.data(), got));
            total += got;
        }
        return total;
    }

    /** Drain the remaining stream into a Trace named after name(). */
    Trace materialize();
};

/**
 * Non-owning source over a span of references (the batch engine
 * behind Trace's own TraceSource face).  The span must outlive the
 * source.
 */
class MemorySource : public TraceSource
{
  public:
    MemorySource(std::span<const MemoryRef> refs, std::string name)
        : refs_(refs), name_(std::move(name))
    {}

    const std::string &name() const override { return name_; }
    std::size_t nextBatch(std::span<MemoryRef> out) override;
    void reset() override { cursor_ = 0; }
    std::uint64_t knownLength() const override { return refs_.size(); }
    std::uint64_t skip(std::uint64_t n) override;

  private:
    std::span<const MemoryRef> refs_;
    std::string name_;
    std::size_t cursor_ = 0;
};

/** Owning cap: the first @p max_refs references of an inner source. */
class LimitSource : public TraceSource
{
  public:
    LimitSource(std::unique_ptr<TraceSource> inner, std::uint64_t max_refs);

    const std::string &name() const override { return inner_->name(); }
    std::size_t nextBatch(std::span<MemoryRef> out) override;
    void reset() override;
    std::uint64_t knownLength() const override;
    std::uint64_t skip(std::uint64_t n) override;

  private:
    std::unique_ptr<TraceSource> inner_;
    std::uint64_t maxRefs_;
    std::uint64_t emitted_ = 0;
};

/**
 * Owning address-offset view: every reference of the inner stream
 * shifted by @p delta bytes (the streaming face of offsetAddresses(),
 * used to give multiprogrammed address spaces disjoint ranges).
 */
class OffsetSource : public TraceSource
{
  public:
    OffsetSource(std::unique_ptr<TraceSource> inner, Addr delta)
        : inner_(std::move(inner)), delta_(delta)
    {}

    const std::string &name() const override { return inner_->name(); }
    std::size_t nextBatch(std::span<MemoryRef> out) override;
    void reset() override { inner_->reset(); }
    std::uint64_t knownLength() const override
    {
        return inner_->knownLength();
    }
    std::uint64_t skip(std::uint64_t n) override { return inner_->skip(n); }

  private:
    std::unique_ptr<TraceSource> inner_;
    Addr delta_;
};

} // namespace cachelab

#endif // CACHELAB_TRACE_SOURCE_HH
