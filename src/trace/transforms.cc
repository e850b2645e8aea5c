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
