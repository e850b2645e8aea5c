/**
 * @file
 * Implementation of trace transformations.
 */

#include "trace/transforms.hh"

#include <algorithm>

#include "util/logging.hh"

namespace cachelab
{

Trace
truncate(const Trace &trace, std::uint64_t max_refs)
{
    const std::size_t n =
        std::min<std::size_t>(trace.size(), static_cast<std::size_t>(max_refs));
    std::vector<MemoryRef> refs(trace.begin(), trace.begin() + n);
    return Trace(trace.name(), std::move(refs));
}

Trace
interleaveRoundRobin(const std::vector<Trace> &traces, std::uint64_t quantum,
                     std::string name, std::uint64_t max_refs)
{
    CACHELAB_ASSERT(quantum > 0, "interleave quantum must be positive");
    Trace out(std::move(name));

    struct Cursor
    {
        const Trace *trace;
        std::size_t pos = 0;
    };
    std::vector<Cursor> cursors;
    cursors.reserve(traces.size());
    std::size_t total = 0;
    for (const Trace &t : traces) {
        if (!t.empty())
            cursors.push_back({&t});
        total += t.size();
    }
    out.reserve(max_refs ? std::min<std::size_t>(total, max_refs) : total);

    std::size_t turn = 0; // index into cursors, always < cursors.size()
    while (!cursors.empty()) {
        Cursor &cur = cursors[turn];
        std::uint64_t issued = 0;
        while (issued < quantum && cur.pos < cur.trace->size()) {
            out.append((*cur.trace)[cur.pos++]);
            ++issued;
            if (max_refs && out.size() >= max_refs)
                return out;
        }
        if (cur.pos >= cur.trace->size()) {
            // Drop the trace; its successor slides into this index and
            // takes the next quantum (wrapping when the last slot went).
            cursors.erase(cursors.begin() +
                          static_cast<std::ptrdiff_t>(turn));
            if (turn >= cursors.size())
                turn = 0;
        } else {
            turn = (turn + 1) % cursors.size();
        }
    }
    return out;
}

InterleaveSource::InterleaveSource(
    std::vector<std::unique_ptr<TraceSource>> children,
    std::uint64_t quantum, std::string name, std::uint64_t max_refs)
    : name_(std::move(name)), quantum_(quantum), maxRefs_(max_refs)
{
    CACHELAB_ASSERT(quantum_ > 0, "interleave quantum must be positive");
    children_.reserve(children.size());
    for (auto &src : children) {
        CACHELAB_ASSERT(src != nullptr, "InterleaveSource needs sources");
        children_.push_back(Child{std::move(src), {}, 0});
    }
    rotation_.resize(children_.size());
    for (std::size_t i = 0; i < rotation_.size(); ++i)
        rotation_[i] = i;
}

bool
InterleaveSource::refill(Child &child)
{
    if (child.pos < child.buf.size())
        return true;
    child.buf.resize(kDefaultBatchRefs);
    const std::size_t got = child.source->nextBatch(child.buf);
    child.buf.resize(got);
    child.pos = 0;
    return got != 0;
}

std::size_t
InterleaveSource::nextBatch(std::span<MemoryRef> out)
{
    std::size_t n = 0;
    while (n < out.size() && !rotation_.empty() &&
           (maxRefs_ == 0 || emitted_ < maxRefs_)) {
        Child &cur = children_[rotation_[turn_]];
        bool dry = false;
        while (issuedThisQuantum_ < quantum_ && n < out.size() &&
               (maxRefs_ == 0 || emitted_ < maxRefs_)) {
            if (!refill(cur)) {
                dry = true;
                break;
            }
            out[n++] = cur.buf[cur.pos++];
            ++issuedThisQuantum_;
            ++emitted_;
        }
        if (dry) {
            // Drop the child; its successor slides into this rotation
            // index and takes the next quantum, matching the
            // materialized transform.  (A child that exhausts exactly
            // on its quantum boundary is only discovered dry one
            // rotation later, but a dry visit emits nothing and passes
            // the turn to the same successor, so the sequence is
            // unchanged.)
            rotation_.erase(rotation_.begin() +
                            static_cast<std::ptrdiff_t>(turn_));
            if (turn_ >= rotation_.size())
                turn_ = 0;
            issuedThisQuantum_ = 0;
        } else if (issuedThisQuantum_ == quantum_) {
            turn_ = (turn_ + 1) % rotation_.size();
            issuedThisQuantum_ = 0;
        }
        // Otherwise `out` filled mid-quantum; state carries over.
    }
    return n;
}

void
InterleaveSource::reset()
{
    for (Child &child : children_) {
        child.source->reset();
        child.buf.clear();
        child.pos = 0;
    }
    rotation_.resize(children_.size());
    for (std::size_t i = 0; i < rotation_.size(); ++i)
        rotation_[i] = i;
    turn_ = 0;
    issuedThisQuantum_ = 0;
    emitted_ = 0;
}

std::uint64_t
InterleaveSource::knownLength() const
{
    std::uint64_t total = 0;
    for (const Child &child : children_) {
        const std::uint64_t len = child.source->knownLength();
        if (len == kUnknownLength)
            return kUnknownLength;
        total += len;
    }
    return maxRefs_ ? std::min(total, maxRefs_) : total;
}

Trace
offsetAddresses(const Trace &trace, Addr delta)
{
    Trace out(trace.name());
    out.reserve(trace.size());
    for (const MemoryRef &ref : trace)
        out.append(ref.addr + delta, ref.size, ref.kind);
    return out;
}

Trace
filter(const Trace &trace,
       const std::function<bool(const MemoryRef &)> &keep, std::string name)
{
    Trace out(std::move(name));
    for (const MemoryRef &ref : trace)
        if (keep(ref))
            out.append(ref);
    return out;
}

} // namespace cachelab
