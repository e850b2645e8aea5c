/**
 * @file
 * Implementation of the core trace sources.
 */

#include "trace/source.hh"

#include <algorithm>
#include <cstring>

#include "trace/trace.hh"
#include "util/logging.hh"

namespace cachelab
{

std::uint64_t
TraceSource::skip(std::uint64_t n)
{
    // Generic skip: decode into a scratch buffer and discard.  Sources
    // with random access override this with a cursor move.
    std::vector<MemoryRef> scratch(static_cast<std::size_t>(
        std::min<std::uint64_t>(n, kDefaultBatchRefs)));
    std::uint64_t skipped = 0;
    while (skipped < n) {
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(n - skipped, scratch.size()));
        const std::size_t got =
            nextBatch(std::span<MemoryRef>(scratch.data(), want));
        if (got == 0)
            break;
        skipped += got;
    }
    return skipped;
}

Trace
TraceSource::materialize()
{
    Trace out(name());
    if (lengthKnown())
        out.reserve(static_cast<std::size_t>(knownLength()));
    forEachBatch([&](std::span<const MemoryRef> batch) {
        for (const MemoryRef &ref : batch)
            out.append(ref);
    });
    return out;
}

std::size_t
MemorySource::nextBatch(std::span<MemoryRef> out)
{
    const std::size_t n =
        std::min(out.size(), refs_.size() - cursor_);
    if (n != 0)
        std::memcpy(out.data(), refs_.data() + cursor_,
                    n * sizeof(MemoryRef));
    cursor_ += n;
    return n;
}

std::uint64_t
MemorySource::skip(std::uint64_t n)
{
    const std::size_t step = static_cast<std::size_t>(
        std::min<std::uint64_t>(n, refs_.size() - cursor_));
    cursor_ += step;
    return step;
}

LimitSource::LimitSource(std::unique_ptr<TraceSource> inner,
                         std::uint64_t max_refs)
    : inner_(std::move(inner)), maxRefs_(max_refs)
{
    CACHELAB_ASSERT(inner_ != nullptr, "LimitSource needs a source");
}

std::size_t
LimitSource::nextBatch(std::span<MemoryRef> out)
{
    if (emitted_ >= maxRefs_)
        return 0;
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(out.size(), maxRefs_ - emitted_));
    const std::size_t got = inner_->nextBatch(out.first(want));
    emitted_ += got;
    return got;
}

void
LimitSource::reset()
{
    inner_->reset();
    emitted_ = 0;
}

std::uint64_t
LimitSource::knownLength() const
{
    const std::uint64_t inner = inner_->knownLength();
    if (inner == kUnknownLength)
        return kUnknownLength;
    return std::min(inner, maxRefs_);
}

std::uint64_t
LimitSource::skip(std::uint64_t n)
{
    const std::uint64_t want = std::min(n, maxRefs_ - emitted_);
    const std::uint64_t got = inner_->skip(want);
    emitted_ += got;
    return got;
}

} // namespace cachelab
