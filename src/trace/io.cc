/**
 * @file
 * Implementation of trace readers, writers, and the decoding source.
 *
 * Each format has exactly one record encoder and one record decoder.
 * Every write runs one per-format loop over a TraceSource, and every
 * read runs EncodedSource, which decodes a trace's bytes (a file
 * mapping, or bytes the caller holds) with explicit bounds, so the
 * materialized and streaming paths cannot drift.
 */

#include "trace/io.hh"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <ostream>
#include <sstream>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/logging.hh"

namespace cachelab
{

namespace
{

constexpr std::array<char, 4> kMagic = {'C', 'L', 'T', '1'};
constexpr std::array<char, 4> kMagicCompressed = {'C', 'L', 'T', '2'};

/** Packed CLT1 record: addr(8) + size(4) + kind(1), written field by
 *  field with no padding. */
constexpr std::size_t kBinaryRecordBytes = 13;

/** The shortest CLT2 record: a tag byte and a one-byte varint. */
constexpr std::size_t kMinCompressedRecordBytes = 2;

/** The shortest din record line, `0 0` and its newline.  The last line
 *  may lack the newline, so N records need at least 4N - 1 bytes. */
constexpr std::size_t kMinDinLineBytes = 4;

/** LEB128 unsigned varint. */
void
writeVarint(std::ostream &os, std::uint64_t v)
{
    while (v >= 0x80) {
        os.put(static_cast<char>((v & 0x7f) | 0x80));
        v >>= 7;
    }
    os.put(static_cast<char>(v));
}

std::uint64_t
decodeVarint(const char *&p, const char *end)
{
    std::uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
        if (shift > 63)
            fatal("compressed trace: varint overflow");
        if (p == end)
            fatal("compressed trace: unexpected end of stream");
        const auto c = static_cast<unsigned char>(*p++);
        v |= static_cast<std::uint64_t>(c & 0x7f) << shift;
        if ((c & 0x80) == 0)
            return v;
    }
}

/** Zigzag-encode a signed delta into an unsigned varint payload. */
constexpr std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
        static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
        -static_cast<std::int64_t>(v & 1);
}

/** din access labels per the Dinero convention. */
constexpr int
dinLabel(AccessKind kind)
{
    switch (kind) {
      case AccessKind::Read:
        return 0;
      case AccessKind::Write:
        return 1;
      case AccessKind::IFetch:
        return 2;
    }
    return -1;
}

AccessKind
kindFromDinLabel(int label, std::uint64_t line_no)
{
    switch (label) {
      case 0:
        return AccessKind::Read;
      case 1:
        return AccessKind::Write;
      case 2:
        return AccessKind::IFetch;
      default:
        fatal("din line ", line_no, ": unknown access label ", label);
    }
}

template <typename T>
void
writeRaw(std::ostream &os, const T &value)
{
    os.write(reinterpret_cast<const char *>(&value), sizeof(T));
}

/** @return the line at @p p (p != end), without its newline, and move
 *  @p p past it. */
std::string_view
nextLine(const char *&p, const char *end)
{
    const auto *nl = static_cast<const char *>(
        std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
    const char *stop = nl != nullptr ? nl : end;
    const std::string_view line(p, static_cast<std::size_t>(stop - p));
    p = nl != nullptr ? nl + 1 : end;
    return line;
}

/**
 * Parse one din line into @p ref.  @return false for blank/comment
 * lines; fatal() on malformed records.
 */
bool
parseDinLine(const std::string &line, std::uint64_t line_no, MemoryRef &ref)
{
    if (line.empty() || line[0] == '#')
        return false;
    std::istringstream ls(line);
    int label = -1;
    std::string addr_hex;
    if (!(ls >> label >> addr_hex))
        fatal("din line ", line_no, ": expected '<label> <hex-addr>'");
    Addr addr = 0;
    try {
        std::size_t pos = 0;
        addr = std::stoull(addr_hex, &pos, 16);
        if (pos != addr_hex.size())
            fatal("din line ", line_no, ": bad address '", addr_hex, "'");
    } catch (const std::exception &) {
        fatal("din line ", line_no, ": bad address '", addr_hex, "'");
    }
    std::uint32_t size = 4;
    ls >> size;
    if (size == 0)
        fatal("din line ", line_no, ": zero access size");
    ref = {addr, size, kindFromDinLabel(label, line_no)};
    return true;
}

void
emitDinRecord(std::ostream &os, const MemoryRef &ref)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%d %llx %u\n", dinLabel(ref.kind),
                  static_cast<unsigned long long>(ref.addr), ref.size);
    os << buf;
}

void
emitBinaryRecord(std::ostream &os, const MemoryRef &ref)
{
    writeRaw(os, ref.addr);
    writeRaw(os, ref.size);
    writeRaw(os, static_cast<std::uint8_t>(ref.kind));
}

/** Decode one packed CLT1 record at @p p and move @p p past it. */
MemoryRef
decodeBinaryRecord(const char *&p, const char *end)
{
    if (static_cast<std::size_t>(end - p) < kBinaryRecordBytes)
        fatal("binary trace: unexpected end of stream");
    MemoryRef ref;
    std::memcpy(&ref.addr, p, sizeof(ref.addr));
    std::memcpy(&ref.size, p + 8, sizeof(ref.size));
    const auto kind_raw = static_cast<std::uint8_t>(p[12]);
    if (kind_raw > 2)
        fatal("binary trace: bad access kind ", unsigned{kind_raw});
    if (ref.size == 0)
        fatal("binary trace: zero access size");
    ref.kind = static_cast<AccessKind>(kind_raw);
    p += kBinaryRecordBytes;
    return ref;
}

/**
 * Per-kind delta state of the CLT2 codec.  Deltas are tracked per
 * access kind: the instruction stream and each data stream are
 * individually near-sequential, so per-kind deltas stay tiny even
 * though the merged stream jumps around.  Deltas are taken modulo
 * 2^64, so addresses any distance apart round-trip.
 */
struct Clt2State
{
    std::array<Addr, 3> lastAddr{};
    std::array<std::uint32_t, 3> lastSize{4, 4, 4};
};

void
emitCompressedRecord(std::ostream &os, Clt2State &state,
                     const MemoryRef &ref)
{
    const auto k = static_cast<std::size_t>(ref.kind);
    // Tag byte: kind in the low 2 bits, "size changed" in bit 2.
    const bool size_changed = ref.size != state.lastSize[k];
    const std::uint8_t tag = static_cast<std::uint8_t>(
        static_cast<unsigned>(ref.kind) | (size_changed ? 4u : 0u));
    os.put(static_cast<char>(tag));
    writeVarint(os, zigzag(static_cast<std::int64_t>(
                        ref.addr - state.lastAddr[k])));
    if (size_changed)
        writeVarint(os, ref.size);
    state.lastAddr[k] = ref.addr;
    state.lastSize[k] = ref.size;
}

/** Decode one CLT2 record at @p p and move @p p past it. */
MemoryRef
decodeCompressedRecord(const char *&p, const char *end, Clt2State &state)
{
    if (p == end)
        fatal("compressed trace: truncated record");
    const auto tag = static_cast<unsigned char>(*p++);
    const unsigned kind_raw = tag & 3u;
    if (kind_raw > 2)
        fatal("compressed trace: bad access kind ", kind_raw);
    const auto k = static_cast<std::size_t>(kind_raw);
    const Addr addr = state.lastAddr[k] +
        static_cast<Addr>(unzigzag(decodeVarint(p, end)));
    std::uint32_t size = state.lastSize[k];
    if ((tag & 4u) != 0)
        size = static_cast<std::uint32_t>(decodeVarint(p, end));
    if (size == 0)
        fatal("compressed trace: zero access size");
    state.lastAddr[k] = addr;
    state.lastSize[k] = size;
    return {addr, size, static_cast<AccessKind>(kind_raw)};
}

void
writeDinHeader(std::ostream &os, const std::string &name,
               std::uint64_t count, bool count_known)
{
    os << "# trace: " << name << '\n';
    if (count_known)
        os << "# refs: " << count << '\n';
}

void
writePackedHeader(std::ostream &os, const std::array<char, 4> &magic,
                  const std::string &name, std::uint64_t count)
{
    os.write(magic.data(), magic.size());
    const auto name_len = static_cast<std::uint32_t>(name.size());
    writeRaw(os, name_len);
    os.write(name.data(), name_len);
    writeRaw(os, count);
}

bool
hasExtension(const std::string &path, const char *ext)
{
    const std::size_t n = std::strlen(ext);
    return path.size() >= n && path.compare(path.size() - n, n, ext) == 0;
}

std::string
baseName(const std::string &path)
{
    const auto slash = path.find_last_of('/');
    std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    const auto dot = base.find_last_of('.');
    if (dot != std::string::npos)
        base.resize(dot);
    return base;
}

/** Encode what is left of @p source to @p os: one loop per format. */
void
encodeTrace(TraceSource &source, std::ostream &os, TraceFormat format)
{
    const bool known = source.lengthKnown();
    const std::uint64_t declared = known ? source.knownLength() : 0;
    Clt2State state;
    switch (format) {
      case TraceFormat::Din:
        writeDinHeader(os, source.name(), declared, known);
        break;
      case TraceFormat::Binary:
        writePackedHeader(os, kMagic, source.name(), declared);
        break;
      case TraceFormat::Compressed:
        writePackedHeader(os, kMagicCompressed, source.name(), declared);
        break;
    }

    const std::uint64_t written =
        source.forEachBatch([&](std::span<const MemoryRef> batch) {
            for (const MemoryRef &ref : batch) {
                switch (format) {
                  case TraceFormat::Din:
                    emitDinRecord(os, ref);
                    break;
                  case TraceFormat::Binary:
                    emitBinaryRecord(os, ref);
                    break;
                  case TraceFormat::Compressed:
                    emitCompressedRecord(os, state, ref);
                    break;
                }
            }
        });
    if (known && written != declared)
        fatal("saveTrace: source '", source.name(), "' declared ", declared,
              " refs but delivered ", written);
}

/** Unmaps a whole-file mapping. */
struct Unmap
{
    std::size_t bytes = 0;

    void
    operator()(const char *addr) const
    {
        ::munmap(const_cast<char *>(addr), bytes);
    }
};

/** A read-only file mapping; null for an empty file. */
using Mapping = std::unique_ptr<const char, Unmap>;

/**
 * The one trace decoder: a TraceSource over a trace's encoded bytes,
 * which are a file mapping it owns or bytes its caller holds.  Header
 * counts are checked against the bytes at construction, before
 * anything is sized by them.  Over a mapping, the whole pages behind
 * the cursor are dropped after each batch, so resident memory stays
 * O(batch) for every format; after a reset() they re-fault from the
 * page cache.
 */
class EncodedSource final : public TraceSource
{
  public:
    /**
     * @param name the stream's name when the format embeds none (din).
     * @param map the mapping that holds @p bytes, if the source owns it.
     */
    EncodedSource(std::string_view bytes, TraceFormat format,
                  std::string name, Mapping map = {})
        : map_(std::move(map)), begin_(bytes.data()),
          end_(bytes.data() + bytes.size()), format_(format),
          name_(std::move(name))
    {
        if (format_ == TraceFormat::Din)
            parseDinHint();
        else
            parsePackedHeader();
        reset();
    }

    const std::string &name() const override { return name_; }
    std::uint64_t knownLength() const override { return count_; }

    std::size_t nextBatch(std::span<MemoryRef> out) override;

    void
    reset() override
    {
        cursor_ = payload_;
        dropped_ = begin_;
        delivered_ = 0;
        lineNo_ = 0;
        state_ = {};
    }

    std::uint64_t
    skip(std::uint64_t n) override
    {
        if (format_ != TraceFormat::Binary)
            return TraceSource::skip(n);
        const std::uint64_t step = std::min(n, count_ - delivered_);
        cursor_ += step * kBinaryRecordBytes;
        delivered_ += step;
        return step;
    }

  private:
    void parsePackedHeader();
    void parseDinHint();
    void dropPagesBehindCursor();

    Mapping map_;
    const char *begin_;
    const char *end_;
    TraceFormat format_;
    std::string name_;
    const char *payload_ = nullptr;
    /** Header count; for din, the `# refs: N` hint or kUnknownLength. */
    std::uint64_t count_ = kUnknownLength;

    const char *cursor_ = nullptr;
    const char *dropped_ = nullptr; ///< pages before this are dropped
    std::uint64_t delivered_ = 0;
    std::uint64_t lineNo_ = 0; ///< din
    Clt2State state_;          ///< CLT2
};

void
EncodedSource::parsePackedHeader()
{
    const bool binary = format_ == TraceFormat::Binary;
    const char *what = binary ? "binary trace" : "compressed trace";
    const auto &magic = binary ? kMagic : kMagicCompressed;
    const auto bytes = static_cast<std::size_t>(end_ - begin_);
    std::uint32_t name_len = 0;
    std::size_t off = magic.size() + sizeof(name_len);
    if (bytes < off ||
        std::memcmp(begin_, magic.data(), magic.size()) != 0)
        fatal(what, ": bad magic");
    std::memcpy(&name_len, begin_ + magic.size(), sizeof(name_len));
    if (bytes - off < std::size_t{name_len} + sizeof(count_))
        fatal(what, ": truncated header");
    name_.assign(begin_ + off, name_len);
    off += name_len;
    std::memcpy(&count_, begin_ + off, sizeof(count_));
    off += sizeof(count_);
    payload_ = begin_ + off;
    const std::size_t least =
        binary ? kBinaryRecordBytes : kMinCompressedRecordBytes;
    if (count_ > (bytes - off) / least)
        fatal(what, ": header declares ", count_, " refs, more than its ",
              bytes - off, " payload bytes can hold");
}

void
EncodedSource::parseDinHint()
{
    // The writer's `# refs: N` line sits in the leading comment block.
    constexpr std::string_view kRefsTag = "# refs: ";
    payload_ = begin_;
    const char *p = begin_;
    for (std::uint64_t line_no = 1; p != end_; ++line_no) {
        const std::string_view line = nextLine(p, end_);
        if (line.empty() || line[0] != '#')
            return;
        if (!line.starts_with(kRefsTag))
            continue;
        try {
            count_ = std::stoull(std::string(line.substr(kRefsTag.size())));
        } catch (const std::exception &) {
            return; // a malformed hint leaves the length unknown
        }
        const auto bytes = static_cast<std::size_t>(end_ - begin_);
        if (count_ > (bytes + 1) / kMinDinLineBytes)
            fatal("din line ", line_no, ": refs hint ", count_,
                  " is more than ", bytes, " bytes can hold");
        return;
    }
}

std::size_t
EncodedSource::nextBatch(std::span<MemoryRef> out)
{
    const char *p = cursor_;
    std::size_t n = 0;
    switch (format_) {
      case TraceFormat::Din: {
        std::string line;
        MemoryRef ref;
        while (n < out.size() && p != end_) {
            line = nextLine(p, end_);
            if (parseDinLine(line, ++lineNo_, ref))
                out[n++] = ref;
        }
        if (n == 0 && count_ != kUnknownLength && delivered_ != count_)
            fatal("din trace '", name_, "': header declared ", count_,
                  " refs but the stream held ", delivered_);
        break;
      }
      case TraceFormat::Binary:
        n = static_cast<std::size_t>(
            std::min<std::uint64_t>(out.size(), count_ - delivered_));
        for (std::size_t i = 0; i < n; ++i)
            out[i] = decodeBinaryRecord(p, end_);
        break;
      case TraceFormat::Compressed:
        n = static_cast<std::size_t>(
            std::min<std::uint64_t>(out.size(), count_ - delivered_));
        for (std::size_t i = 0; i < n; ++i)
            out[i] = decodeCompressedRecord(p, end_, state_);
        break;
    }
    cursor_ = p;
    delivered_ += n;
    dropPagesBehindCursor();
    return n;
}

void
EncodedSource::dropPagesBehindCursor()
{
    if (!map_)
        return;
    static const auto page =
        static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const char *edge =
        begin_ + static_cast<std::size_t>(cursor_ - begin_) / page * page;
    if (edge <= dropped_)
        return;
    ::madvise(const_cast<char *>(dropped_),
              static_cast<std::size_t>(edge - dropped_), MADV_DONTNEED);
    dropped_ = edge;
}

} // namespace

std::string_view
toString(TraceFormat format)
{
    switch (format) {
      case TraceFormat::Din:
        return "din";
      case TraceFormat::Binary:
        return "binary";
      case TraceFormat::Compressed:
        return "compressed";
    }
    return "?";
}

TraceFormat
formatForPath(const std::string &path)
{
    if (hasExtension(path, ".din"))
        return TraceFormat::Din;
    if (hasExtension(path, ".ctr"))
        return TraceFormat::Compressed;
    return TraceFormat::Binary;
}

void
writeTrace(const Trace &trace, std::ostream &os, TraceFormat format)
{
    MemorySource view(trace.refs(), trace.name());
    encodeTrace(view, os, format);
}

Trace
readTrace(std::string_view bytes, TraceFormat format, std::string name)
{
    return EncodedSource(bytes, format, std::move(name)).materialize();
}

void
saveTrace(const Trace &trace, const std::string &path, TraceFormat format)
{
    MemorySource view(trace.refs(), trace.name());
    saveTrace(view, path, format);
}

void
saveTrace(TraceSource &source, const std::string &path, TraceFormat format)
{
    if (format != TraceFormat::Din && !source.lengthKnown())
        fatal("saveTrace: the ", toString(format), " header carries a "
              "reference count; stream it from a source with a known "
              "length or materialize first");
    std::ofstream os(path, std::ios::binary);
    if (!os)
        fatal("cannot open '", path, "' for writing");
    encodeTrace(source, os, format);
    if (!os)
        fatal("write to '", path, "' failed");
}

std::unique_ptr<TraceSource>
openTraceSource(const std::string &path, TraceFormat format)
{
    // O_NONBLOCK keeps open() from waiting on a FIFO's writer; the
    // regular-file check then rejects the FIFO.
    const int fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK);
    if (fd < 0)
        fatal("cannot open '", path, "' for reading");
    struct stat st{};
    const bool regular = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode);
    const auto bytes = regular ? static_cast<std::size_t>(st.st_size) : 0;
    void *addr = bytes == 0
        ? nullptr
        : ::mmap(nullptr, bytes, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (!regular)
        fatal("cannot map '", path, "': not a regular file");
    if (addr == MAP_FAILED)
        fatal("cannot mmap '", path, "'");
    if (addr != nullptr)
        ::madvise(addr, bytes, MADV_SEQUENTIAL);
    Mapping map(static_cast<const char *>(addr), Unmap{bytes});
    const std::string_view view(map.get(), bytes);
    return std::make_unique<EncodedSource>(view, format, baseName(path),
                                           std::move(map));
}

std::unique_ptr<TraceSource>
openTraceSource(const std::string &path)
{
    return openTraceSource(path, formatForPath(path));
}

} // namespace cachelab
