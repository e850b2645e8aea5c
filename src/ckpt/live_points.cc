/**
 * @file
 * Implementation of the live-point checkpoint store.
 *
 * The producer is one ChannelWriter per channel: per group, the shared
 * LRU stack core (cache/lru_stack.hh) with one set per cache set,
 * bounded at depth maxAssoc.  The core also keeps, per resident line,
 * the two fields its dirty rule needs, so one pass yields the warmed
 * state of every associativity at once, and set refinement lets the
 * pass stop scanning a line's finer groups once it is MRU in one.
 */

#include "ckpt/live_points.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "obs/metrics.hh"
#include "sample/sampler.hh"
#include "util/bits.hh"
#include "util/format.hh"
#include "util/hash.hh"
#include "util/json_reader.hh"
#include "util/json_writer.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/thread_pool.hh"

namespace cachelab::ckpt
{

namespace
{

constexpr std::uint32_t kStoreVersion = 2;
constexpr char kStoreSchema[] = "cachelab.ckpt_store";
constexpr char kGroupMagic[4] = {'L', 'V', 'P', 'T'};

std::uint64_t
parseHexU64(const std::string &s, const char *what)
{
    if (s.empty() || s.size() > 16 ||
        s.find_first_not_of("0123456789abcdefABCDEF") != std::string::npos)
        fatal("live points: malformed ", what, " '", s, "'");
    return std::stoull(s, nullptr, 16);
}

// ---- binary group-file primitives (host byte order; local artifact) ----

// An image is begin, sincePurge and its entry count, then per set a
// run length and the run's entries (line address, maxDepth, written).
constexpr std::uint64_t kImageHeadBytes = 24;
constexpr std::uint64_t kRunBytes = 4;
constexpr std::uint64_t kEntryBytes = 13;

/** Copy @p v's bytes to @p out. @return the byte after them. */
template <typename T>
char *
putPod(char *out, const T &v)
{
    std::memcpy(out, &v, sizeof(T));
    return out + sizeof(T);
}

/**
 * A bounded cursor over a group file read whole: every read checks the
 * bytes left first, so a short file is a diagnostic, not an overrun.
 */
class ByteReader
{
  public:
    ByteReader(const char *begin, const char *end) : at_(begin), end_(end) {}

    void
    read(void *data, std::size_t n)
    {
        if (static_cast<std::size_t>(end_ - at_) < n)
            fatal("live points: truncated group file");
        std::memcpy(data, at_, n);
        at_ += n;
    }

    template <typename T>
    T
    pod()
    {
        T v;
        read(&v, sizeof(T));
        return v;
    }

    std::uint64_t
    left() const
    {
        return static_cast<std::uint64_t>(end_ - at_);
    }

  private:
    const char *at_;
    const char *end_;
};

/**
 * Chain one reference into a content hash.  The address goes through
 * an odd multiplier (a bijection on 64 bits), size and kind fill the
 * low 40 bits, and each step after the XOR is a bijection of the
 * chain value, so changing any one field of one reference changes the
 * final hash.  Only one multiply sits on the dependent chain: the
 * writer and every store-backed sweep run this once per reference.
 */
std::uint64_t
hashRef(std::uint64_t hash, const MemoryRef &ref)
{
    const std::uint64_t word =
        ref.addr * 0xff51afd7ed558ccdULL ^
        (std::uint64_t{ref.size} << 8 | static_cast<std::uint64_t>(ref.kind));
    hash = (hash ^ word) * 0x9e3779b97f4a7c15ULL;
    return hash ^ (hash >> 29);
}

/** Geometry of one group file. */
struct GroupGeometry
{
    std::string role;
    std::uint32_t lineBytes = 0;
    std::uint64_t setCount = 0;
    std::uint32_t maxAssoc = 0;
};

std::string
groupFileName(const GroupGeometry &g)
{
    std::ostringstream os;
    os << g.role << "-l" << g.lineBytes << "-s" << g.setCount << ".lvpt";
    return os.str();
}

/**
 * Read one image of a group whose line size and set count are powers
 * of two.  Besides the counts, each entry is checked for what
 * Cache::importState() asserts of a restored line: it is line-aligned,
 * it maps to the set whose run holds it, and no set holds it twice.
 */
LivePointImage
readImage(ByteReader &in, std::uint32_t line_bytes, std::uint64_t set_count,
          std::uint32_t max_assoc)
{
    LivePointImage image;
    image.begin = in.pod<std::uint64_t>();
    image.sincePurge = in.pod<std::uint64_t>();
    const auto entry_count = in.pod<std::uint64_t>();
    // set_count x max_assoc, saturated so that no count can wrap it.
    constexpr std::uint64_t kMost = ~std::uint64_t{0};
    const std::uint64_t capacity =
        max_assoc != 0 && set_count > kMost / max_assoc
            ? kMost
            : set_count * max_assoc;
    if (entry_count > capacity)
        fatal("live points: image declares ", entry_count, " entries, "
              "more than its ", set_count, " sets x ", max_assoc,
              " lines hold");
    image.setOffsets.reserve(set_count + 1);
    image.setOffsets.push_back(0);
    image.entries.reserve(entry_count);
    const unsigned line_shift = floorLog2(line_bytes);
    std::vector<Addr> sorted; // one run's addresses, for the twice check
    for (std::uint64_t s = 0; s < set_count; ++s) {
        const auto run = in.pod<std::uint32_t>();
        if (run > max_assoc)
            fatal("live points: set ", s, " holds ", run,
                  " lines, above the group bound ", max_assoc);
        sorted.clear();
        for (std::uint32_t i = 0; i < run; ++i) {
            LivePointEntry e;
            e.lineAddr = in.pod<Addr>();
            e.maxDepth = in.pod<std::uint32_t>();
            e.written = in.pod<std::uint8_t>() != 0;
            if ((e.lineAddr & (line_bytes - 1)) != 0)
                fatal("live points: set ", s, " holds address ", e.lineAddr,
                      ", not aligned to its ", line_bytes, "-byte lines");
            const std::uint64_t home = (e.lineAddr >> line_shift) &
                (set_count - 1);
            if (home != s)
                fatal("live points: set ", s, " holds line ", e.lineAddr,
                      ", which maps to set ", home);
            image.entries.push_back(e);
            sorted.push_back(e.lineAddr);
        }
        std::sort(sorted.begin(), sorted.end());
        const auto twice = std::adjacent_find(sorted.begin(), sorted.end());
        if (twice != sorted.end())
            fatal("live points: set ", s, " holds line ", *twice, " twice");
        image.setOffsets.push_back(image.entries.size());
    }
    if (image.entries.size() != entry_count)
        fatal("live points: image declares ", entry_count,
              " entries but its set runs hold ", image.entries.size());
    return image;
}

/** One group's file: its header, then an image per planned interval. */
class GroupFile
{
  public:
    GroupFile(const std::string &dir, GroupGeometry geometry,
              std::uint64_t intervals, std::uint64_t key_hash)
        : geometry_(std::move(geometry)), fileName_(groupFileName(geometry_)),
          path_(dir + "/" + fileName_),
          os_(path_, std::ios::binary | std::ios::trunc)
    {
        if (!os_)
            fatal("live points: cannot open '", path_, "' for writing");
        char header[40];
        char *out = header;
        out = putPod(out, kGroupMagic);
        out = putPod(out, kStoreVersion);
        out = putPod(out, key_hash);
        out = putPod(out, geometry_.lineBytes);
        out = putPod(out, geometry_.setCount);
        out = putPod(out, geometry_.maxAssoc);
        out = putPod(out, intervals);
        CACHELAB_ASSERT(out == std::end(header), "live points: header is ",
                        out - header, " bytes");
        os_.write(header, sizeof(header));
    }

    const GroupGeometry &geometry() const { return geometry_; }
    const std::string &fileName() const { return fileName_; }
    std::uint64_t bytesWritten() const { return bytesWritten_; }

    /**
     * Append @p stack's lines, MRU first per set, as the image at
     * channel position @p begin with purge carry @p since_purge.
     */
    void
    writeImage(const LruStack &stack, std::uint64_t begin,
               std::uint64_t since_purge)
    {
        const std::uint64_t sets = geometry_.setCount;
        CACHELAB_ASSERT(stack.setCount() == sets, "live points: image of ",
                        stack.setCount(), " sets for a ", sets, "-set group");
        buf_.resize(kImageHeadBytes + kRunBytes * sets +
                    kEntryBytes * stack.size());
        char *out = putPod(buf_.data(), begin);
        out = putPod(out, since_purge);
        out = putPod<std::uint64_t>(out, stack.size());
        for (std::uint64_t s = 0; s < sets; ++s) {
            char *const run = out;
            out += kRunBytes;
            stack.forEachMru(s, [&out](const LruLine &line) {
                out = putPod(out, line.lineAddr);
                out = putPod(out, line.maxDepth);
                out = putPod<std::uint8_t>(out, line.written ? 1 : 0);
            });
            putPod(run, static_cast<std::uint32_t>(
                            (out - run - kRunBytes) / kEntryBytes));
        }
        CACHELAB_ASSERT(out == buf_.data() + buf_.size(),
                        "live points: image of ", fileName_, " overran");
        os_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    }

    void
    finish()
    {
        bytesWritten_ = static_cast<std::uint64_t>(os_.tellp());
        os_.flush();
        if (!os_)
            fatal("live points: write to '", path_, "' failed");
        os_.close();
    }

  private:
    GroupGeometry geometry_;
    std::string fileName_;
    std::string path_;
    std::ofstream os_;
    std::vector<char> buf_; ///< one image, serialized
    std::uint64_t bytesWritten_ = 0;
};

/** The distinct (setCount -> maxAssoc) groups spec.sizes induce. */
std::vector<GroupGeometry>
planGroups(const std::string &role, const CacheConfig &base,
           const std::vector<std::uint64_t> &sizes)
{
    std::vector<GroupGeometry> groups;
    for (std::uint64_t size : sizes) {
        CacheConfig config = base;
        config.sizeBytes = size;
        config.validate();
        const std::uint64_t sets = config.setCount();
        const auto assoc =
            static_cast<std::uint32_t>(config.effectiveAssociativity());
        auto it = std::find_if(groups.begin(), groups.end(),
                               [&](const GroupGeometry &g) {
                                   return g.setCount == sets;
                               });
        if (it == groups.end())
            groups.push_back({role, base.lineBytes, sets, assoc});
        else
            it->maxAssoc = std::max(it->maxAssoc, assoc);
    }
    return groups;
}

/**
 * One channel's producer: a recency stack per group, bounded at the
 * group's largest associativity and fed the channel's reference
 * stream, capturing an image of every group at every planned interval
 * start.
 *
 * A channel's groups share the line size, and their set counts are
 * powers of two with the set index (line >> shift) & (sets - 1).  So
 * each set of a finer group sees a subset of the line touches of one
 * set of any coarser group; every group purges at the same positions,
 * and a depth bound drops only LRU lines.  A line at the MRU slot of
 * its coarser set, which holds exactly the last line that set touched,
 * is therefore at the MRU slot of its finer sets too (set refinement,
 * Hill & Smith 1989).  A line is touched in the groups from the
 * fewest sets to the most, and once a group finds it at depth 1,
 * every finer group only applies the depth-1 dirty rule in place.
 */
class ChannelWriter
{
  public:
    ChannelWriter(const std::string &dir, std::string role,
                  std::uint64_t refs, const LivePointWriteSpec &spec,
                  std::uint64_t key_hash)
        : role_(std::move(role)), refs_(refs),
          plan_(selectIntervals(refs, spec.sample)),
          purgeInterval_(spec.purgeInterval),
          lineBytes_(spec.base.lineBytes),
          lineShift_(floorLog2(spec.base.lineBytes))
    {
        CACHELAB_ASSERT(isPowerOfTwo(lineBytes_),
                        "live points: line size must be a power of two");
        std::vector<GroupGeometry> geometries =
            planGroups(role_, spec.base, spec.sizes);
        groups_.reserve(geometries.size());
        for (GroupGeometry &geometry : geometries) {
            CACHELAB_ASSERT(geometry.maxAssoc > 0 &&
                                isPowerOfTwo(geometry.setCount),
                            "live points: a group needs positive depth and "
                            "a power-of-two set count");
            const std::uint64_t sets = geometry.setCount;
            const std::uint32_t depth = geometry.maxAssoc;
            groups_.push_back({GroupFile(dir, std::move(geometry),
                                         plan_.size(), key_hash),
                               LruStack(sets, depth), sets - 1});
        }
        for (Group &group : groups_)
            touchOrder_.push_back(&group);
        std::sort(touchOrder_.begin(), touchOrder_.end(),
                  [](const Group *a, const Group *b) {
                      return a->setMask < b->setMask;
                  });
        done_ = plan_.empty();
    }

    const std::string &role() const { return role_; }
    std::uint64_t refs() const { return refs_; }
    std::uint64_t intervals() const { return plan_.size(); }

    /** The group files, in planGroups() order. */
    template <typename Fn>
    void
    forEachFile(Fn &&fn) const
    {
        for (const Group &group : groups_)
            fn(group.file);
    }

    void
    feed(std::span<const MemoryRef> refs)
    {
        if (done_) {
            // Every image is written; the rest of the stream no longer
            // affects this channel.
            pos_ += refs.size();
            return;
        }
        for (std::size_t i = 0; i < refs.size(); ++i) {
            if (pos_ == plan_[planIdx_].begin) {
                // Capture *before* the purge-due check: the consumer's
                // engine restores at interval start and its first
                // measured reference re-runs that check, so a carry of
                // exactly purgeInterval must survive into the image.
                for (Group &group : groups_)
                    group.file.writeImage(group.stack, pos_, sincePurge_);
                done_ = ++planIdx_ == plan_.size();
                if (done_) {
                    pos_ += refs.size() - i;
                    return;
                }
            }
            if (purgeInterval_ != 0 && sincePurge_ == purgeInterval_) {
                for (Group &group : groups_)
                    group.stack.clear();
                sincePurge_ = 0;
            }
            access(refs[i]);
            ++sincePurge_;
            ++pos_;
        }
    }

    void
    finish()
    {
        CACHELAB_ASSERT(pos_ == refs_, "live points: channel ", role_,
                        " consumed ", pos_, " of ", refs_, " refs");
        if (planIdx_ != plan_.size())
            fatal("live points: group ", groups_.front().file.fileName(),
                  " captured ", planIdx_, " of ", plan_.size(),
                  " planned intervals — plan extends past the trace");
        for (Group &group : groups_)
            group.file.finish();
    }

  private:
    struct Group
    {
        GroupFile file;
        LruStack stack;
        std::uint64_t setMask;
    };

    /** Apply one reference: every line it spans, like Cache::access. */
    void
    access(const MemoryRef &ref)
    {
        CACHELAB_ASSERT(ref.size > 0, "zero-sized reference");
        const Addr first = alignDown(ref.addr, lineBytes_);
        const Addr last = alignDown(ref.addr + ref.size - 1, lineBytes_);
        const bool is_write = ref.kind == AccessKind::Write;
        for (Addr line = first;; line += lineBytes_) {
            touch(line, is_write);
            if (line == last)
                break;
        }
    }

    /** Touch @p line in every group, coarse to fine. */
    void
    touch(Addr line, bool is_write)
    {
        // The cache's set index, (line / lineBytes) % sets, without the
        // two divisions.
        const Addr index = line >> lineShift_;
        Group *const *group = touchOrder_.data();
        Group *const *const end = group + touchOrder_.size();
        for (; group != end; ++group) {
            if ((*group)->stack.touch(index & (*group)->setMask, line,
                                      is_write) == 1) {
                while (++group != end)
                    (*group)->stack.retouchMru(index & (*group)->setMask,
                                               is_write);
                return;
            }
        }
    }

    std::string role_;
    std::uint64_t refs_;
    std::vector<SampleInterval> plan_;
    std::uint64_t purgeInterval_;
    std::uint32_t lineBytes_;
    unsigned lineShift_;
    std::vector<Group> groups_;       ///< planGroups() order
    std::vector<Group *> touchOrder_; ///< by set count, fewest first
    std::uint64_t pos_ = 0;
    std::uint64_t sincePurge_ = 0;
    std::size_t planIdx_ = 0;
    bool done_ = false;
};

std::string
selectionName(IntervalSelection selection)
{
    return toString(selection);
}

IntervalSelection
parseSelection(const std::string &name)
{
    if (name == "systematic")
        return IntervalSelection::Systematic;
    if (name == "random")
        return IntervalSelection::Random;
    fatal("live points: unknown interval selection '", name, "'");
}

/**
 * The purge-schedule carry ChannelWriter::feed() reaches at channel
 * position @p begin: the count since the last purge, which runs up to
 * @p purge_interval before the next reference purges.
 */
std::uint64_t
carryAt(std::uint64_t begin, std::uint64_t purge_interval)
{
    if (purge_interval == 0 || begin == 0)
        return begin;
    return (begin - 1) % purge_interval + 1;
}

} // namespace

std::uint64_t
livePointKeyHash(const LivePointKey &key)
{
    std::uint64_t h = kFnvOffset;
    h = fnv1a(h, key.traceName.data(), key.traceName.size());
    h = fnv1aU64(h, key.traceRefs);
    h = fnv1aU64(h, key.unitRefs);
    h = fnv1aU64(h, std::bit_cast<std::uint64_t>(key.fraction));
    h = fnv1aU64(h, static_cast<std::uint64_t>(key.selection));
    h = fnv1aU64(h, key.seed);
    h = fnv1aU64(h, key.purgeInterval);
    h = fnv1aU64(h, key.split ? 1 : 0);
    h = fnv1aU64(h, key.ifetchRefs);
    h = fnv1aU64(h, key.dataRefs);
    return h;
}

LivePointKey
unifiedLivePointKey(const std::string &trace_name, std::uint64_t trace_refs,
                    const SampleConfig &sample, std::uint64_t purge_interval)
{
    LivePointKey key;
    key.traceName = trace_name;
    key.traceRefs = trace_refs;
    key.unitRefs = sample.unitRefs;
    key.fraction = sample.fraction;
    key.selection = sample.selection;
    key.seed = sample.seed;
    key.purgeInterval = purge_interval;
    return key;
}

LivePointKey
splitLivePointKey(const std::string &trace_name, std::uint64_t trace_refs,
                  std::uint64_t ifetch_refs, std::uint64_t data_refs,
                  const SampleConfig &sample)
{
    LivePointKey key;
    key.traceName = trace_name;
    key.traceRefs = trace_refs;
    key.unitRefs = sample.unitRefs;
    key.fraction = sample.fraction;
    key.selection = sample.selection;
    key.seed = sample.seed;
    key.split = true;
    key.ifetchRefs = ifetch_refs;
    key.dataRefs = data_refs;
    return key;
}

void
requireLivePointEligible(const CacheConfig &config)
{
    if (config.replacement.toString() != "lru" || !config.admission.empty())
        fatal("live points serve only LRU replacement (stack inclusion "
              "does not hold for ", config.describe(),
              ") — use functional warming instead");
    if (config.fetchPolicy != FetchPolicy::Demand)
        fatal("live points serve only demand fetch (prefetching makes "
              "residency configuration-dependent) — use functional "
              "warming instead");
    if (config.writeMiss != WriteMissPolicy::FetchOnWrite)
        fatal("live points serve only fetch-on-write allocation "
              "(no-allocate makes residency depend on the write stream "
              "shape) — use functional warming instead");
}

std::uint64_t
hashRefs(std::uint64_t hash, std::span<const MemoryRef> refs)
{
    for (const MemoryRef &ref : refs)
        hash = hashRef(hash, ref);
    return hash;
}

const LivePointImage &
LivePointGroup::image(std::size_t interval_idx) const
{
    if (interval_idx >= images_.size())
        fatal("live points: interval ", interval_idx,
              " out of range (store holds ", images_.size(), ")");
    return images_[interval_idx];
}

void
LivePointGroup::restoreInto(Cache &cache, std::size_t interval_idx,
                            std::uint64_t &since_purge) const
{
    const CacheConfig &config = cache.config();
    requireLivePointEligible(config);
    if (config.lineBytes != lineBytes_ || config.setCount() != setCount_)
        fatal("live points: group ", role_, " holds ", lineBytes_,
              "B lines x ", setCount_, " sets; cache ", config.describe(),
              " needs ", config.lineBytes, "B x ", config.setCount());
    const std::uint64_t assoc = config.effectiveAssociativity();
    if (assoc > maxAssoc_)
        fatal("live points: group ", role_, " is bounded at associativity ",
              maxAssoc_, "; cache ", config.describe(), " needs ", assoc);

    const LivePointImage &img = image(interval_idx);
    const bool copy_back = config.writePolicy == WritePolicy::CopyBack;

    CacheState state;
    state.sizeBytes = config.sizeBytes;
    state.lineBytes = config.lineBytes;
    state.sets = setCount_;
    state.assoc = assoc;
    state.lines.resize(setCount_ * assoc);
    state.recency.reserve(setCount_ * assoc);
    for (std::uint64_t s = 0; s < setCount_; ++s) {
        const std::uint64_t lo = img.setOffsets[s];
        const std::uint64_t hi = img.setOffsets[s + 1];
        // Stack inclusion: the assoc-A cache holds exactly the top A
        // stack entries.  Way j takes the j-th most recent line (way
        // identity is behaviorally invisible under LRU).
        const std::uint64_t resident = std::min(hi - lo, assoc);
        for (std::uint64_t j = 0; j < resident; ++j) {
            const LivePointEntry &e = img.entries[lo + j];
            CacheState::Line &line = state.lines[s * assoc + j];
            line.lineAddr = e.lineAddr;
            line.valid = true;
            line.dirty = copy_back && LruStack::dirtyFrom(e) <= assoc;
            state.recency.push_back(static_cast<std::uint32_t>(s * assoc + j));
        }
        // Invalid ways drain from way assoc-1 down to way `resident`,
        // matching the order a purged cache fills ways in.
        for (std::uint64_t j = assoc; j > resident; --j)
            state.recency.push_back(
                static_cast<std::uint32_t>(s * assoc + j - 1));
    }
    state.rngState = Rng(config.randomSeed).state();
    state.clock = img.begin;
    cache.importState(state);
    since_purge = img.sincePurge;
    obs::Registry::global().counter("ckpt.restores").add();
}

LivePointWriteSummary
writeLivePoints(TraceSource &source, const std::string &dir,
                const LivePointWriteSpec &spec)
{
    spec.sample.validate();
    requireLivePointEligible(spec.base);
    if (spec.split && spec.purgeInterval != 0)
        fatal("live points: the task-switch purge schedule applies to "
              "unified caches only");
    if (spec.sizes.empty())
        fatal("live points: no sizes to serve");

    const std::string trace_name =
        spec.traceName.empty() ? source.name() : spec.traceName;

    // Channel lengths: use the header hint when possible; split stores
    // (and length-less sources) need a counting pass.
    std::uint64_t total = source.knownLength();
    std::uint64_t ifetch_refs = 0;
    std::uint64_t data_refs = 0;
    if (spec.split || total == TraceSource::kUnknownLength) {
        total = source.forEachBatch([&](std::span<const MemoryRef> refs) {
            for (const MemoryRef &ref : refs)
                (ref.kind == AccessKind::IFetch ? ifetch_refs : data_refs)++;
        });
        source.reset();
    }
    if (total == 0)
        fatal("live points: trace '", trace_name, "' is empty");
    if (spec.split && (ifetch_refs == 0 || data_refs == 0))
        fatal("live points: split store needs both channels non-empty "
              "(ifetch ", ifetch_refs, ", data ", data_refs, ")");

    const LivePointKey key =
        spec.split
            ? splitLivePointKey(trace_name, total, ifetch_refs, data_refs,
                                spec.sample)
            : unifiedLivePointKey(trace_name, total, spec.sample,
                                  spec.purgeInterval);
    const std::uint64_t key_hash = livePointKeyHash(key);

    std::filesystem::create_directories(dir);

    std::vector<ChannelWriter> channels;
    channels.reserve(2);
    if (spec.split) {
        channels.emplace_back(dir, "icache", ifetch_refs, spec, key_hash);
        channels.emplace_back(dir, "dcache", data_refs, spec, key_hash);
    } else {
        channels.emplace_back(dir, "unified", total, spec, key_hash);
    }

    // Only a split store has two channels to fan out, and a wider pool
    // would start workers that never get a task.
    std::unique_ptr<ThreadPool> pool;
    if (spec.jobs != 1 && channels.size() > 1)
        pool = std::make_unique<ThreadPool>(std::min<unsigned>(
            spec.jobs != 0 ? spec.jobs : ThreadPool::defaultJobs(),
            static_cast<unsigned>(channels.size())));

    std::vector<MemoryRef> buf(TraceSource::kDefaultBatchRefs);
    std::vector<MemoryRef> ibuf;
    std::vector<MemoryRef> dbuf;
    std::uint64_t content_hash = kContentHashSeed;
    std::uint64_t streamed = 0;
    while (const std::size_t got = source.nextBatch(buf)) {
        const std::span<const MemoryRef> refs(buf.data(), got);
        content_hash = hashRefs(content_hash, refs);
        streamed += got;
        std::span<const MemoryRef> channel_refs[2] = {refs, {}};
        if (spec.split) {
            ibuf.clear();
            dbuf.clear();
            for (const MemoryRef &ref : refs)
                (ref.kind == AccessKind::IFetch ? ibuf : dbuf)
                    .push_back(ref);
            channel_refs[0] = ibuf;
            channel_refs[1] = dbuf;
        }
        const auto feed = [&](std::size_t c) {
            channels[c].feed(channel_refs[c]);
        };
        if (pool)
            pool->parallelFor(channels.size(), feed);
        else
            for (std::size_t c = 0; c < channels.size(); ++c)
                feed(c);
    }
    if (streamed != total)
        fatal("live points: trace '", trace_name, "' delivered ", streamed,
              " refs on the capture pass but ", total, " when counted");

    LivePointWriteSummary summary;
    summary.keyHash = key_hash;
    summary.contentHash = content_hash;
    summary.traceRefs = total;
    for (ChannelWriter &channel : channels) {
        channel.finish();
        channel.forEachFile([&](const GroupFile &file) {
            summary.intervals += channel.intervals();
            summary.bytesWritten += file.bytesWritten();
            ++summary.groups;
        });
    }

    // store.json last: a store with a manifest is a complete store.
    const std::string store_path = dir + "/store.json";
    {
        std::ofstream os(store_path, std::ios::trunc);
        if (!os)
            fatal("live points: cannot open '", store_path,
                  "' for writing");
        JsonWriter w(os);
        w.beginObject();
        w.member("schema", kStoreSchema);
        w.member("version", kStoreVersion);
        w.member("key_hash", formatHex64(key_hash));
        w.member("content_hash", formatHex64(content_hash));
        w.key("trace").beginObject();
        w.member("name", trace_name);
        w.member("refs", total);
        w.endObject();
        w.key("sample").beginObject();
        w.member("unit_refs", key.unitRefs);
        w.member("fraction", key.fraction);
        w.member("selection", selectionName(key.selection));
        w.member("seed", key.seed);
        w.endObject();
        w.member("purge_interval", key.purgeInterval);
        w.member("split", key.split);
        w.key("channels").beginArray();
        for (const ChannelWriter &channel : channels) {
            w.beginObject();
            w.member("role", channel.role());
            w.member("refs", channel.refs());
            w.member("intervals", channel.intervals());
            w.key("groups").beginArray();
            channel.forEachFile([&w](const GroupFile &file) {
                const GroupGeometry &g = file.geometry();
                w.beginObject();
                w.member("line_bytes", g.lineBytes);
                w.member("set_count", g.setCount);
                w.member("max_assoc", g.maxAssoc);
                w.member("file", file.fileName());
                w.endObject();
            });
            w.endArray();
            w.endObject();
        }
        w.endArray();
        w.member("created_by", spec.createdBy);
        w.endObject();
        os << "\n";
        os.flush();
        if (!os)
            fatal("live points: write to '", store_path, "' failed");
        summary.bytesWritten +=
            static_cast<std::uint64_t>(std::filesystem::file_size(store_path));
    }

    auto &registry = obs::Registry::global();
    registry.counter("ckpt.stores_written").add();
    registry.counter("ckpt.intervals_written").add(summary.intervals);
    registry.counter("ckpt.bytes_written").add(summary.bytesWritten);
    return summary;
}

LivePointStore
LivePointStore::load(const std::string &dir)
{
    const std::string store_path = dir + "/store.json";
    std::ifstream is(store_path);
    if (!is)
        fatal("live points: cannot open '", store_path,
              "' — not a checkpoint store directory?");
    std::ostringstream text;
    text << is.rdbuf();

    std::string error;
    const std::optional<JsonValue> doc = parseJson(text.str(), &error);
    if (!doc)
        fatal("live points: '", store_path, "' is not valid JSON: ", error);
    if (doc->at("schema").asString() != kStoreSchema)
        fatal("live points: '", store_path, "' has schema '",
              doc->at("schema").asString(), "', expected '", kStoreSchema,
              "'");
    if (doc->at("version").asUint() != kStoreVersion)
        fatal("live points: '", store_path, "' is version ",
              doc->at("version").asUint(), ", this build reads version ",
              kStoreVersion);

    LivePointStore store;
    store.dir_ = dir;
    store.key_.traceName = doc->at("trace").at("name").asString();
    store.key_.traceRefs = doc->at("trace").at("refs").asUint();
    const JsonValue &sample = doc->at("sample");
    store.key_.unitRefs = sample.at("unit_refs").asUint();
    store.key_.fraction = sample.at("fraction").asDouble();
    store.key_.selection = parseSelection(sample.at("selection").asString());
    store.key_.seed = sample.at("seed").asUint();
    store.key_.purgeInterval = doc->at("purge_interval").asUint();
    store.key_.split = doc->at("split").asBool();
    store.contentHash_ =
        parseHexU64(doc->at("content_hash").asString(), "content_hash");

    for (const JsonValue &channel : doc->at("channels").items()) {
        const std::string &role = channel.at("role").asString();
        if (store.key_.split) {
            if (role == "icache")
                store.key_.ifetchRefs = channel.at("refs").asUint();
            else if (role == "dcache")
                store.key_.dataRefs = channel.at("refs").asUint();
            else
                fatal("live points: unknown split channel role '", role,
                      "' in '", store_path, "'");
        }
    }

    store.keyHash_ = livePointKeyHash(store.key_);
    const std::uint64_t recorded_hash =
        parseHexU64(doc->at("key_hash").asString(), "key_hash");
    if (recorded_hash != store.keyHash_)
        fatal("live points: '", store_path, "' records key hash ",
              formatHex64(recorded_hash), " but its fields hash to ",
              formatHex64(store.keyHash_), " — store corrupt or written by an "
              "incompatible build");

    // The sampled engine trusts an image's begin and purge carry (it
    // purges only when the carry reaches the interval exactly), so each
    // image must sit on the plan the key selects, carrying what the
    // writer's schedule reaches there.  The plan is rebuilt from key
    // fields, which the key hash has just verified.
    SampleConfig plan_sample;
    plan_sample.unitRefs = store.key_.unitRefs;
    plan_sample.fraction = store.key_.fraction;
    plan_sample.selection = store.key_.selection;
    plan_sample.seed = store.key_.seed;

    for (const JsonValue &channel : doc->at("channels").items()) {
        const std::string &role = channel.at("role").asString();
        const std::uint64_t intervals = channel.at("intervals").asUint();
        std::uint64_t channel_refs = store.key_.traceRefs;
        if (store.key_.split)
            channel_refs = role == "icache" ? store.key_.ifetchRefs
                                            : store.key_.dataRefs;
        const std::vector<SampleInterval> plan =
            selectIntervals(channel_refs, plan_sample);
        for (const JsonValue &group : channel.at("groups").items()) {
            LivePointGroup g;
            g.role_ = role;
            g.lineBytes_ =
                static_cast<std::uint32_t>(group.at("line_bytes").asUint());
            g.setCount_ = group.at("set_count").asUint();
            g.maxAssoc_ =
                static_cast<std::uint32_t>(group.at("max_assoc").asUint());

            const std::string path =
                dir + "/" + group.at("file").asString();
            std::ifstream gis(path, std::ios::binary);
            if (!gis)
                fatal("live points: cannot open group file '", path, "'");
            // One read of the whole file.  A size that cannot be had (a
            // directory) reads nothing, and one that shrinks under the
            // read ends where the read did: either is a short file.
            std::error_code size_error;
            const std::uintmax_t size =
                std::filesystem::file_size(path, size_error);
            std::vector<char> bytes(size_error ? 0 : size);
            gis.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
            ByteReader in(bytes.data(), bytes.data() + gis.gcount());
            char magic[4];
            in.read(magic, 4);
            if (std::memcmp(magic, kGroupMagic, 4) != 0)
                fatal("live points: '", path, "' is not a live-point "
                      "group file");
            const auto version = in.pod<std::uint32_t>();
            if (version != kStoreVersion)
                fatal("live points: '", path, "' is version ", version,
                      ", this build reads version ", kStoreVersion);
            const auto file_key = in.pod<std::uint64_t>();
            if (file_key != store.keyHash_)
                fatal("live points: '", path, "' belongs to key ",
                      formatHex64(file_key), ", store.json describes ",
                      formatHex64(store.keyHash_));
            const auto line_bytes = in.pod<std::uint32_t>();
            const auto set_count = in.pod<std::uint64_t>();
            const auto max_assoc = in.pod<std::uint32_t>();
            const auto interval_count = in.pod<std::uint64_t>();
            if (line_bytes != g.lineBytes_ || set_count != g.setCount_ ||
                max_assoc != g.maxAssoc_ || interval_count != intervals)
                fatal("live points: '", path, "' header (", line_bytes,
                      "B x ", set_count, " sets, assoc ", max_assoc, ", ",
                      interval_count, " intervals) disagrees with "
                      "store.json (", g.lineBytes_, "B x ", g.setCount_,
                      " sets, assoc ", g.maxAssoc_, ", ", intervals,
                      " intervals)");
            if (!isPowerOfTwo(line_bytes) || !isPowerOfTwo(set_count))
                fatal("live points: '", path, "' header (", line_bytes,
                      "B x ", set_count, " sets) is not a power-of-two "
                      "geometry");
            // An image is at least begin, sincePurge and its entry count
            // (24 bytes) plus a 4-byte run per set.  Check both counts
            // against the bytes left before allocating by them.
            const std::uint64_t left = in.left();
            if (interval_count != 0) {
                if (left < kImageHeadBytes ||
                    set_count > (left - kImageHeadBytes) / kRunBytes)
                    fatal("live points: '", path, "' declares ", set_count,
                          " sets, more than its ", left,
                          " image bytes hold");
                if (interval_count >
                    left / (kImageHeadBytes + kRunBytes * set_count))
                    fatal("live points: '", path, "' declares ",
                          interval_count, " intervals, more than its ",
                          left, " image bytes hold");
            }
            if (interval_count != plan.size())
                fatal("live points: '", path, "' holds ", interval_count,
                      " intervals, but the plan its key selects has ",
                      plan.size());
            g.images_.reserve(interval_count);
            for (std::uint64_t i = 0; i < interval_count; ++i) {
                LivePointImage image =
                    readImage(in, g.lineBytes_, g.setCount_, g.maxAssoc_);
                if (image.begin != plan[i].begin)
                    fatal("live points: '", path, "' image ", i,
                          " begins at ", image.begin, ", but planned "
                          "interval ", i, " begins at ", plan[i].begin);
                const std::uint64_t carry =
                    carryAt(image.begin, store.key_.purgeInterval);
                if (image.sincePurge != carry)
                    fatal("live points: '", path, "' image ", i,
                          " carries ", image.sincePurge, " references "
                          "since the last purge, but the schedule reaches ",
                          carry, " at ", image.begin);
                g.images_.push_back(std::move(image));
            }
            store.groups_.push_back(std::move(g));
        }
    }

    obs::Registry::global().counter("ckpt.stores_loaded").add();
    return store;
}

void
LivePointStore::checkCompatible(const LivePointKey &key) const
{
    const std::uint64_t want = livePointKeyHash(key);
    if (want == keyHash_)
        return;
    std::ostringstream diff;
    const auto field = [&diff](const char *name, const auto &store_value,
                               const auto &run_value) {
        if (store_value == run_value)
            return;
        diff << "\n  " << name << ": store has " << store_value
             << ", this run needs " << run_value;
    };
    field("trace", key_.traceName, key.traceName);
    field("trace refs", key_.traceRefs, key.traceRefs);
    field("unit refs", key_.unitRefs, key.unitRefs);
    field("fraction", key_.fraction, key.fraction);
    field("selection", toString(key_.selection), toString(key.selection));
    field("seed", key_.seed, key.seed);
    field("purge interval", key_.purgeInterval, key.purgeInterval);
    field("split", key_.split, key.split);
    field("ifetch refs", key_.ifetchRefs, key.ifetchRefs);
    field("data refs", key_.dataRefs, key.dataRefs);
    fatal("live points: store '", dir_, "' (key ", formatHex64(keyHash_),
          ") is incompatible with this run (key ", formatHex64(want), "):",
          diff.str(), "\n  re-run with --ckpt-write to produce a matching "
          "store");
}

const LivePointGroup &
LivePointStore::group(std::string_view role, std::uint32_t line_bytes,
                      std::uint64_t set_count, std::uint64_t min_assoc) const
{
    for (const LivePointGroup &g : groups_) {
        if (g.role() == role && g.lineBytes() == line_bytes &&
            g.setCount() == set_count && g.maxAssoc() >= min_assoc)
            return g;
    }
    std::ostringstream have;
    for (const LivePointGroup &g : groups_)
        have << "\n  " << g.role() << ": " << g.lineBytes() << "B lines x "
             << g.setCount() << " sets, assoc <= " << g.maxAssoc();
    fatal("live points: store '", dir_, "' has no ", role, " group for ",
          line_bytes, "B lines x ", set_count, " sets at associativity ",
          min_assoc, "; it holds:", have.str());
}

} // namespace cachelab::ckpt
