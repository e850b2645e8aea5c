/**
 * @file
 * Implementation of the live-point checkpoint store.
 *
 * The producer-side workhorse is InclusionTracker: the shared LRU
 * stack core (cache/lru_stack.hh) with one set per cache set, bounded
 * at depth maxAssoc.  The core also keeps, per resident line, the two
 * fields its dirty rule needs, so one pass yields the warmed state of
 * every associativity at once.
 */

#include "ckpt/live_points.hh"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "obs/metrics.hh"
#include "sample/sampler.hh"
#include "util/bits.hh"
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
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t
fnv1a(std::uint64_t hash, const void *data, std::size_t n)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        hash ^= bytes[i];
        hash *= kFnvPrime;
    }
    return hash;
}

std::uint64_t
fnv1aU64(std::uint64_t hash, std::uint64_t v)
{
    return fnv1a(hash, &v, sizeof(v));
}

std::string
hexU64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

std::uint64_t
parseHexU64(const std::string &s, const char *what)
{
    if (s.empty() || s.size() > 16 ||
        s.find_first_not_of("0123456789abcdefABCDEF") != std::string::npos)
        fatal("live points: malformed ", what, " '", s, "'");
    return std::stoull(s, nullptr, 16);
}

// ---- binary group-file primitives (host byte order; local artifact) ----

void
writeBytes(std::ostream &os, const void *data, std::size_t n)
{
    os.write(static_cast<const char *>(data),
             static_cast<std::streamsize>(n));
}

void
readBytes(std::istream &is, void *data, std::size_t n)
{
    is.read(static_cast<char *>(data), static_cast<std::streamsize>(n));
    if (!is)
        fatal("live points: truncated group file");
}

template <typename T>
void
writePod(std::ostream &os, const T &v)
{
    writeBytes(os, &v, sizeof(T));
}

template <typename T>
T
readPod(std::istream &is)
{
    T v;
    readBytes(is, &v, sizeof(T));
    return v;
}

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

/** One group's recency stacks, fed every line a reference spans. */
class InclusionTracker
{
  public:
    InclusionTracker(std::uint32_t line_bytes, std::uint64_t set_count,
                     std::uint32_t max_assoc)
        : lineBytes_(line_bytes), lineShift_(floorLog2(line_bytes)),
          setMask_(set_count - 1), stack_(set_count, max_assoc)
    {
        CACHELAB_ASSERT(max_assoc > 0, "tracker needs positive depth");
        CACHELAB_ASSERT(isPowerOfTwo(line_bytes) && isPowerOfTwo(set_count),
                        "tracker geometry must be powers of two");
    }

    /** Apply one reference (every spanned line, like Cache::access). */
    void
    access(const MemoryRef &ref)
    {
        CACHELAB_ASSERT(ref.size > 0, "zero-sized reference");
        const Addr first = alignDown(ref.addr, lineBytes_);
        const Addr last = alignDown(ref.addr + ref.size - 1, lineBytes_);
        const bool is_write = ref.kind == AccessKind::Write;
        for (Addr line = first;; line += lineBytes_) {
            // The cache's set index, (line / lineBytes) % sets, without
            // the two divisions: the writer runs it once per group.
            stack_.touch((line >> lineShift_) & setMask_, line, is_write);
            if (line == last)
                break;
        }
    }

    /** Forget everything (the task-switch purge). */
    void purge() { stack_.clear(); }

    /** Snapshot the current stacks as a live-point image. */
    LivePointImage
    capture(std::uint64_t begin, std::uint64_t since_purge) const
    {
        LivePointImage image;
        image.begin = begin;
        image.sincePurge = since_purge;
        image.setOffsets.reserve(stack_.setCount() + 1);
        image.setOffsets.push_back(0);
        image.entries.reserve(stack_.size());
        for (std::uint64_t s = 0; s < stack_.setCount(); ++s) {
            stack_.forEachMru(s, [&](const LruLine &line) {
                image.entries.push_back(line);
            });
            image.setOffsets.push_back(image.entries.size());
        }
        return image;
    }

  private:
    std::uint32_t lineBytes_;
    unsigned lineShift_;
    std::uint64_t setMask_;
    LruStack stack_;
};

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

void
writeImage(std::ostream &os, const LivePointImage &image,
           std::uint64_t set_count)
{
    CACHELAB_ASSERT(image.setOffsets.size() == set_count + 1,
                    "live points: image covers ",
                    image.setOffsets.size() - 1, " of ", set_count, " sets");
    writePod<std::uint64_t>(os, image.begin);
    writePod<std::uint64_t>(os, image.sincePurge);
    writePod<std::uint64_t>(os, image.entries.size());
    for (std::uint64_t s = 0; s < set_count; ++s) {
        const std::uint64_t lo = image.setOffsets[s];
        const std::uint64_t hi = image.setOffsets[s + 1];
        writePod<std::uint32_t>(os, static_cast<std::uint32_t>(hi - lo));
        for (std::uint64_t i = lo; i < hi; ++i) {
            const LivePointEntry &e = image.entries[i];
            writePod<Addr>(os, e.lineAddr);
            writePod<std::uint32_t>(os, e.maxDepth);
            writePod<std::uint8_t>(os, e.written ? 1 : 0);
        }
    }
}

/**
 * Read one image of a group whose line size and set count are powers
 * of two.  Besides the counts, each entry is checked for what
 * Cache::importState() asserts of a restored line: it is line-aligned,
 * it maps to the set whose run holds it, and no set holds it twice.
 */
LivePointImage
readImage(std::istream &is, std::uint32_t line_bytes, std::uint64_t set_count,
          std::uint32_t max_assoc)
{
    LivePointImage image;
    image.begin = readPod<std::uint64_t>(is);
    image.sincePurge = readPod<std::uint64_t>(is);
    const auto entry_count = readPod<std::uint64_t>(is);
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
        const auto run = readPod<std::uint32_t>(is);
        if (run > max_assoc)
            fatal("live points: set ", s, " holds ", run,
                  " lines, above the group bound ", max_assoc);
        sorted.clear();
        for (std::uint32_t i = 0; i < run; ++i) {
            LivePointEntry e;
            e.lineAddr = readPod<Addr>(is);
            e.maxDepth = readPod<std::uint32_t>(is);
            e.written = readPod<std::uint8_t>(is) != 0;
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

/**
 * One group's producer: an InclusionTracker fed the channel's
 * reference stream, capturing an image into the group file at every
 * planned interval start.
 */
class GroupWriter
{
  public:
    GroupWriter(const std::string &dir, GroupGeometry geometry,
                const std::vector<SampleInterval> *plan,
                std::uint64_t purge_interval, std::uint64_t key_hash)
        : geometry_(std::move(geometry)), plan_(plan),
          purgeInterval_(purge_interval), fileName_(groupFileName(geometry_)),
          path_(dir + "/" + fileName_),
          tracker_(geometry_.lineBytes, geometry_.setCount,
                   geometry_.maxAssoc),
          os_(path_, std::ios::binary | std::ios::trunc)
    {
        if (!os_)
            fatal("live points: cannot open '", path_, "' for writing");
        writeBytes(os_, kGroupMagic, 4);
        writePod<std::uint32_t>(os_, kStoreVersion);
        writePod<std::uint64_t>(os_, key_hash);
        writePod<std::uint32_t>(os_, geometry_.lineBytes);
        writePod<std::uint64_t>(os_, geometry_.setCount);
        writePod<std::uint32_t>(os_, geometry_.maxAssoc);
        writePod<std::uint64_t>(os_, plan_->size());
    }

    const GroupGeometry &geometry() const { return geometry_; }
    const std::string &fileName() const { return fileName_; }
    std::uint64_t bytesWritten() const { return bytesWritten_; }
    std::uint64_t intervalsWritten() const { return planIdx_; }

    void
    feed(std::span<const MemoryRef> refs)
    {
        for (const MemoryRef &ref : refs) {
            if (planIdx_ < plan_->size() &&
                pos_ == (*plan_)[planIdx_].begin) {
                // Capture *before* the purge-due check: the consumer's
                // engine restores at interval start and its first
                // measured reference re-runs that check, so a carry of
                // exactly purgeInterval must survive into the image.
                writeImage(os_, tracker_.capture(pos_, sincePurge_),
                           geometry_.setCount);
                ++planIdx_;
                if (planIdx_ == plan_->size()) {
                    // Every image is written; the rest of the stream
                    // no longer affects this group.
                    done_ = true;
                }
            }
            if (done_) {
                ++pos_;
                continue;
            }
            if (purgeInterval_ != 0 && sincePurge_ == purgeInterval_) {
                tracker_.purge();
                sincePurge_ = 0;
            }
            tracker_.access(ref);
            ++sincePurge_;
            ++pos_;
        }
    }

    void
    finish(std::uint64_t channel_refs)
    {
        CACHELAB_ASSERT(pos_ == channel_refs, "live points: group ",
                        fileName_, " consumed ", pos_, " of ",
                        channel_refs, " refs");
        if (planIdx_ != plan_->size())
            fatal("live points: group ", fileName_, " captured ", planIdx_,
                  " of ", plan_->size(), " planned intervals — plan "
                  "extends past the trace");
        bytesWritten_ = static_cast<std::uint64_t>(os_.tellp());
        os_.flush();
        if (!os_)
            fatal("live points: write to '", path_, "' failed");
        os_.close();
    }

  private:
    GroupGeometry geometry_;
    const std::vector<SampleInterval> *plan_;
    std::uint64_t purgeInterval_;
    std::string fileName_;
    std::string path_;
    InclusionTracker tracker_;
    std::ofstream os_;
    std::uint64_t pos_ = 0;
    std::uint64_t sincePurge_ = 0;
    std::size_t planIdx_ = 0;
    bool done_ = false;
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
 * The purge-schedule carry GroupWriter::feed() reaches at channel
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

    struct Channel
    {
        std::string role;
        std::uint64_t refs = 0;
        std::vector<SampleInterval> plan;
        std::vector<std::unique_ptr<GroupWriter>> writers;
    };
    std::vector<Channel> channels;
    if (spec.split) {
        channels.push_back({"icache", ifetch_refs, {}, {}});
        channels.push_back({"dcache", data_refs, {}, {}});
    } else {
        channels.push_back({"unified", total, {}, {}});
    }
    for (Channel &channel : channels) {
        channel.plan = selectIntervals(channel.refs, spec.sample);
        for (GroupGeometry &geometry :
             planGroups(channel.role, spec.base, spec.sizes))
            channel.writers.push_back(std::make_unique<GroupWriter>(
                dir, std::move(geometry), &channel.plan,
                spec.purgeInterval, key_hash));
    }

    // Flatten (writer, channel) for the fan-out; each batch is fed to
    // every writer, sliced to its channel's sub-stream.
    struct FeedSlot
    {
        GroupWriter *writer;
        std::size_t channel;
    };
    std::vector<FeedSlot> slots;
    for (std::size_t c = 0; c < channels.size(); ++c)
        for (const auto &writer : channels[c].writers)
            slots.push_back({writer.get(), c});

    std::unique_ptr<ThreadPool> pool;
    if (spec.jobs != 1 && slots.size() > 1)
        pool = std::make_unique<ThreadPool>(spec.jobs);

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
        const auto feed = [&](std::size_t i) {
            slots[i].writer->feed(channel_refs[slots[i].channel]);
        };
        if (pool)
            pool->parallelFor(slots.size(), feed);
        else
            for (std::size_t i = 0; i < slots.size(); ++i)
                feed(i);
    }
    if (streamed != total)
        fatal("live points: trace '", trace_name, "' delivered ", streamed,
              " refs on the capture pass but ", total, " when counted");

    LivePointWriteSummary summary;
    summary.keyHash = key_hash;
    summary.contentHash = content_hash;
    summary.traceRefs = total;
    for (Channel &channel : channels) {
        for (auto &writer : channel.writers) {
            writer->finish(channel.refs);
            summary.intervals += writer->intervalsWritten();
            summary.bytesWritten += writer->bytesWritten();
            ++summary.groups;
        }
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
        w.member("key_hash", hexU64(key_hash));
        w.member("content_hash", hexU64(content_hash));
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
        for (const Channel &channel : channels) {
            w.beginObject();
            w.member("role", channel.role);
            w.member("refs", channel.refs);
            w.member("intervals",
                     static_cast<std::uint64_t>(channel.plan.size()));
            w.key("groups").beginArray();
            for (const auto &writer : channel.writers) {
                const GroupGeometry &g = writer->geometry();
                w.beginObject();
                w.member("line_bytes", g.lineBytes);
                w.member("set_count", g.setCount);
                w.member("max_assoc", g.maxAssoc);
                w.member("file", writer->fileName());
                w.endObject();
            }
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
              hexU64(recorded_hash), " but its fields hash to ",
              hexU64(store.keyHash_), " — store corrupt or written by an "
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
            char magic[4];
            readBytes(gis, magic, 4);
            if (std::memcmp(magic, kGroupMagic, 4) != 0)
                fatal("live points: '", path, "' is not a live-point "
                      "group file");
            const auto version = readPod<std::uint32_t>(gis);
            if (version != kStoreVersion)
                fatal("live points: '", path, "' is version ", version,
                      ", this build reads version ", kStoreVersion);
            const auto file_key = readPod<std::uint64_t>(gis);
            if (file_key != store.keyHash_)
                fatal("live points: '", path, "' belongs to key ",
                      hexU64(file_key), ", store.json describes ",
                      hexU64(store.keyHash_));
            const auto line_bytes = readPod<std::uint32_t>(gis);
            const auto set_count = readPod<std::uint64_t>(gis);
            const auto max_assoc = readPod<std::uint32_t>(gis);
            const auto interval_count = readPod<std::uint64_t>(gis);
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
            const std::uint64_t left =
                std::filesystem::file_size(path) -
                static_cast<std::uint64_t>(gis.tellg());
            if (interval_count != 0) {
                if (left < 24 || set_count > (left - 24) / 4)
                    fatal("live points: '", path, "' declares ", set_count,
                          " sets, more than its ", left,
                          " image bytes hold");
                if (interval_count > left / (24 + 4 * set_count))
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
                    readImage(gis, g.lineBytes_, g.setCount_, g.maxAssoc_);
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
    fatal("live points: store '", dir_, "' (key ", hexU64(keyHash_),
          ") is incompatible with this run (key ", hexU64(want), "):",
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
