/**
 * @file
 * Trace file input/output.
 *
 * Three formats are supported, unified behind the TraceFormat enum:
 *
 *  1. TraceFormat::Din — the classic Dinero text format that the
 *     original 1980s tooling used: one reference per line, `<label>
 *     <hex-addr> [size]`, where label 0 = read, 1 = write, 2 =
 *     instruction fetch.  Lines starting with '#' are comments.  The
 *     optional third field (access size in bytes, decimal) is an
 *     extension; absent sizes default to 4 bytes.  Our writer emits a
 *     `# refs: N` comment so streaming readers can report a length.
 *
 *  2. TraceFormat::Binary — a compact packed format (magic "CLT1")
 *     for fast round-tripping of generated workloads.
 *
 *  3. TraceFormat::Compressed — magic "CLT2": per-kind delta encoding
 *     of addresses with zigzag + LEB128 varints, and run-length
 *     encoded sizes.  Local traces compress to a fraction of the
 *     packed format (typically 3-6x smaller).
 *
 * One decoder reads every format: a TraceSource over a trace's bytes
 * that decodes on demand with explicit bounds, in O(batch) memory.
 *
 *  - Materialized: writeTrace()/saveTrace() encode a whole Trace;
 *    readTrace() decodes one from bytes the caller holds, and
 *    openTraceSource(path)->materialize() reads one from a file.
 *  - Streaming: openTraceSource() maps a regular file read-only and
 *    decodes it batch by batch, dropping the pages behind its cursor;
 *    saveTrace(TraceSource&, ...) writes a stream without ever
 *    materializing it.
 */

#ifndef CACHELAB_TRACE_IO_HH
#define CACHELAB_TRACE_IO_HH

#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

#include "trace/source.hh"
#include "trace/trace.hh"

namespace cachelab
{

/** On-disk trace encodings. */
enum class TraceFormat : std::uint8_t
{
    Din,        ///< classic Dinero text, one reference per line
    Binary,     ///< packed records, magic "CLT1"
    Compressed, ///< delta/varint records, magic "CLT2"
};

/** @return display name ("din"/"binary"/"compressed"). */
std::string_view toString(TraceFormat format);

/** @return the format implied by @p path's extension
 *  (".din" = Din, ".ctr" = Compressed, anything else = Binary). */
TraceFormat formatForPath(const std::string &path);

/** Write @p trace to @p os in @p format. */
void writeTrace(const Trace &trace, std::ostream &os, TraceFormat format);

/**
 * Decode one trace from @p bytes in @p format.
 *
 * @param name name for the trace when the format does not embed one
 *        (Din); Binary/Compressed carry their own and ignore it.
 * @throws via fatal() on malformed input.
 */
Trace readTrace(std::string_view bytes, TraceFormat format,
                std::string name);

/** Write @p trace to @p path in @p format. */
void saveTrace(const Trace &trace, const std::string &path,
               TraceFormat format);

/**
 * Stream @p source to @p path in @p format without materializing it.
 * Binary and Compressed headers carry a reference count, so the
 * source must have a known length (fatal otherwise).
 */
void saveTrace(TraceSource &source, const std::string &path,
               TraceFormat format);

/**
 * Open @p path as a streaming TraceSource in O(batch) memory.  The
 * file must be a regular file; it is mapped read-only and decoded in
 * place, and the pages behind the cursor are dropped after each batch
 * (the mapping still counts against `ulimit -v`).  A header count the
 * file cannot hold is fatal at open.
 *
 * knownLength() is exact for Binary/Compressed (header count) and for
 * Din files carrying the writer's `# refs: N` comment; otherwise
 * unknown.  reset() moves the cursor back; skip() is O(1) for Binary
 * and decodes and discards for Din and Compressed.
 */
std::unique_ptr<TraceSource> openTraceSource(const std::string &path);

/** openTraceSource() with the format forced instead of inferred. */
std::unique_ptr<TraceSource> openTraceSource(const std::string &path,
                                             TraceFormat format);

} // namespace cachelab

#endif // CACHELAB_TRACE_IO_HH
