/**
 * @file
 * Tests for the pluggable replacement/admission policy API.
 *
 *  - parse/validate/render round trips for the shared policy-string
 *    syntax, including the serve-spec JSON forms (bare string and
 *    structured {"name", "params"} object);
 *  - every zoo policy checked reference-by-reference against an
 *    independent address-level model (the policies operate on way
 *    indices through PolicyHost; the models keep per-set maps and
 *    lists keyed by line address, so any wiring bug — set indexing,
 *    missed onEvict, install ordering — diverges immediately);
 *  - ARC against a ghost-list oracle transcribed from the Megiddo &
 *    Modha pseudocode (list-based, unlike the flag+stamp production
 *    implementation);
 *  - TinyLFU admission against an offline recomputed count-min
 *    sketch, compared counter-for-counter via exportWords();
 *  - state export: midstream export/import continues bitwise for the
 *    classic trio, and a purge returns every zoo policy to its
 *    just-bound state.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <deque>
#include <map>
#include <span>
#include <vector>

#include "cache/cache.hh"
#include "cache/policy.hh"
#include "serve/spec.hh"
#include "workload/kv_model.hh"

namespace cachelab
{
namespace
{

// ---------------------------------------------------------------- //
//  Policy-string parsing and rendering                             //
// ---------------------------------------------------------------- //

TEST(PolicySpecParse, CanonicalRoundTrips)
{
    for (const char *text :
         {"lru", "fifo", "random", "slru:probation=0.2", "lfu", "lfuda",
          "2q:kin=0.25,kout=0.5", "arc"}) {
        PolicySpec spec;
        ASSERT_FALSE(parseReplacementPolicy(text, spec).has_value())
            << text;
        EXPECT_EQ(spec.toString(), text);
        // parse(toString()) is the identity.
        PolicySpec again;
        ASSERT_FALSE(
            parseReplacementPolicy(spec.toString(), again).has_value());
        EXPECT_EQ(again, spec);
    }
}

TEST(PolicySpecParse, NamesAreCaseInsensitive)
{
    PolicySpec spec;
    ASSERT_FALSE(parseReplacementPolicy("LRU", spec).has_value());
    EXPECT_EQ(spec.name, "lru");
    ASSERT_FALSE(
        parseReplacementPolicy("SLRU:PROBATION=0.3", spec).has_value());
    EXPECT_EQ(spec.toString(), "slru:probation=0.3");
}

TEST(PolicySpecParse, UnknownNameListsValidNames)
{
    PolicySpec spec;
    const auto error = parseReplacementPolicy("clock", spec);
    ASSERT_TRUE(error.has_value());
    for (const std::string &name : replacementPolicyNames())
        EXPECT_NE(error->find(name), std::string::npos) << *error;
}

TEST(PolicySpecParse, RejectsBadParameters)
{
    PolicySpec spec;
    // Unknown key.
    EXPECT_TRUE(parseReplacementPolicy("slru:segments=3", spec));
    // Out-of-range value.
    EXPECT_TRUE(parseReplacementPolicy("slru:probation=1.5", spec));
    // Parameters on a parameterless policy.
    EXPECT_TRUE(parseReplacementPolicy("lru:ways=2", spec));
    // Malformed syntax.
    EXPECT_TRUE(parseReplacementPolicy("slru:probation", spec));
    EXPECT_TRUE(parseReplacementPolicy("", spec));
}

TEST(PolicySpecParse, AdmissionNoneVariantsAreOff)
{
    for (const char *text : {"", "none", "NONE"}) {
        PolicySpec spec = policySpec("tinylfu");
        ASSERT_FALSE(parseAdmissionPolicy(text, spec).has_value())
            << text;
        EXPECT_TRUE(spec.empty());
        EXPECT_EQ(makeAdmissionPolicy(spec), nullptr);
    }
    PolicySpec spec;
    ASSERT_FALSE(
        parseAdmissionPolicy("tinylfu:counters=1024,window=5000", spec)
            .has_value());
    EXPECT_EQ(spec.toString(), "tinylfu:counters=1024,window=5000");
    // A replacement name is not an admission policy.
    EXPECT_TRUE(parseAdmissionPolicy("arc", spec).has_value());
}

TEST(PolicySpecParse, DisplayKeepsLegacySpellings)
{
    EXPECT_EQ(policySpec("lru").display(), "LRU");
    EXPECT_EQ(policySpec("fifo").display(), "FIFO");
    EXPECT_EQ(policySpec("random").display(), "random");
    EXPECT_EQ(policySpec("arc").display(), "arc");
    PolicySpec slru;
    ASSERT_FALSE(parseReplacementPolicy("slru:probation=0.25", slru));
    EXPECT_EQ(slru.display(), "slru:probation=0.25");
}

TEST(PolicySpecParse, ConfigDescribeRendersPolicyAndAdmission)
{
    CacheConfig config;
    config.sizeBytes = 4096;
    config.lineBytes = 64;
    config.associativity = 4;
    ASSERT_FALSE(parseReplacementPolicy("slru:probation=0.25",
                                        config.replacement));
    ASSERT_FALSE(parseAdmissionPolicy("tinylfu:counters=1024",
                                      config.admission));
    const std::string d = config.describe();
    EXPECT_NE(d.find("slru:probation=0.25"), std::string::npos) << d;
    EXPECT_NE(d.find("tinylfu:counters=1024"), std::string::npos) << d;
}

// ---------------------------------------------------------------- //
//  Serve-spec JSON: bare string and structured policy objects      //
// ---------------------------------------------------------------- //

std::string
specJson(const std::string &cache_fields)
{
    return R"({"input": {"kind": "profile", "name": "VSPICE",
                "refs": 1000},
               "cache": {"line_bytes": 64, "associativity": 4)" +
        (cache_fields.empty() ? "" : ", " + cache_fields) +
        R"(}, "sizes": [4096]})";
}

TEST(ServeSpecPolicy, StringAndStructuredFormsAgree)
{
    serve::ExperimentSpec from_string;
    ASSERT_FALSE(parseExperimentSpec(
        specJson(R"("replacement": "slru:probation=0.3",
                    "admission": "tinylfu:counters=1024")"),
        from_string));

    serve::ExperimentSpec from_object;
    ASSERT_FALSE(parseExperimentSpec(
        specJson(R"("replacement": {"name": "slru",
                                    "params": {"probation": 0.3}},
                    "admission": {"name": "tinylfu",
                                  "params": {"counters": 1024}})"),
        from_object));

    EXPECT_EQ(from_string.base.replacement, from_object.base.replacement);
    EXPECT_EQ(from_string.base.admission, from_object.base.admission);
    EXPECT_EQ(from_object.base.replacement.toString(),
              "slru:probation=0.3");
}

TEST(ServeSpecPolicy, LegacyDefaultsPreserved)
{
    serve::ExperimentSpec spec;
    ASSERT_FALSE(parseExperimentSpec(specJson(""), spec));
    EXPECT_EQ(spec.base.replacement.toString(), "lru");
    EXPECT_TRUE(spec.base.admission.empty());

    // The pre-API schema accepted "" as "the default policy".
    ASSERT_FALSE(
        parseExperimentSpec(specJson(R"("replacement": "")"), spec));
    EXPECT_EQ(spec.base.replacement.toString(), "lru");

    ASSERT_FALSE(parseExperimentSpec(
        specJson(R"("admission": {"name": "none"})"), spec));
    EXPECT_TRUE(spec.base.admission.empty());
}

TEST(ServeSpecPolicy, BadPolicyIsNonFatalDiagnostic)
{
    serve::ExperimentSpec spec;
    const auto unknown = parseExperimentSpec(
        specJson(R"("replacement": "clock")"), spec);
    ASSERT_TRUE(unknown.has_value());
    EXPECT_NE(unknown->find("lru"), std::string::npos) << *unknown;

    EXPECT_TRUE(parseExperimentSpec(
        specJson(R"("replacement": {"params": {"probation": 0.3}})"),
        spec));
    EXPECT_TRUE(parseExperimentSpec(
        specJson(R"("replacement": {"name": "slru",
                                    "params": {"probation": "hot"}})"),
        spec));
    EXPECT_TRUE(parseExperimentSpec(
        specJson(R"("replacement": 7)"), spec));
}

TEST(ServeSpecPolicy, TimingSpecParsesAndValidates)
{
    serve::ExperimentSpec spec;
    ASSERT_FALSE(parseExperimentSpec(
        specJson(R"("replacement": "lru")") , spec));
    EXPECT_FALSE(spec.timing.enabled());

    std::string json = specJson(R"("replacement": "lru")");
    json.insert(json.rfind('}'),
                R"(, "timing": {"hit_cycles": 2, "memory_cycles": 120,
                               "width_bytes": 16})");
    serve::ExperimentSpec timed;
    ASSERT_FALSE(parseExperimentSpec(json, timed));
    EXPECT_TRUE(timed.timing.enabled());
    EXPECT_EQ(timed.timing.hitCycles, 2.0);
    EXPECT_EQ(timed.timing.memoryCycles, 120.0);
    EXPECT_EQ(timed.timing.widthBytes, 16.0);

    std::string bad = specJson(R"("replacement": "lru")");
    bad.insert(bad.rfind('}'), R"(, "timing": {"l3_cycles": 1})");
    serve::ExperimentSpec rejected;
    EXPECT_TRUE(parseExperimentSpec(bad, rejected));
}

// ---------------------------------------------------------------- //
//  Reference models                                                //
// ---------------------------------------------------------------- //

constexpr std::uint32_t kLineBytes = 64;

CacheConfig
zooConfig(const std::string &replacement, std::uint32_t assoc = 4,
          std::uint64_t size = 4096)
{
    CacheConfig c;
    c.sizeBytes = size;
    c.lineBytes = kLineBytes;
    c.associativity = assoc;
    PolicySpec spec;
    const auto error = parseReplacementPolicy(replacement, spec);
    EXPECT_FALSE(error.has_value()) << replacement;
    c.replacement = spec;
    return c;
}

/**
 * Deterministic mixed-locality address stream: a small hot set, a
 * larger warm region, and occasional sequential scan bursts — enough
 * texture to exercise promotion, aging, ghost lists and adaptation.
 */
std::vector<Addr>
mixedAddresses(std::size_t n, std::uint64_t seed)
{
    std::vector<Addr> out;
    out.reserve(n);
    std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + 1;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    while (out.size() < n) {
        const std::uint64_t r = next() % 100;
        if (r < 50) {
            out.push_back((next() % 32) * kLineBytes); // hot
        } else if (r < 85) {
            out.push_back((next() % 512) * kLineBytes); // warm
        } else {
            Addr base = (next() % 4096) * kLineBytes; // scan burst
            for (int i = 0; i < 16 && out.size() < n; ++i)
                out.push_back(base + Addr(i) * kLineBytes);
        }
    }
    return out;
}

/** Hit/miss oracle over line addresses, one instance per cache set. */
class SetModel
{
  public:
    virtual ~SetModel() = default;
    /** @return true when @p line_addr hits; updates model state. */
    virtual bool access(Addr line_addr) = 0;
};

/** Drives cache and model together and compares the hit streams. */
template <typename Model, typename... Args>
void
compareAgainstModel(const CacheConfig &config,
                    const std::vector<Addr> &addrs, Args &&...args)
{
    Cache cache(config);
    const std::uint64_t sets = config.setCount();
    std::vector<Model> model;
    for (std::uint64_t s = 0; s < sets; ++s)
        model.emplace_back(config.effectiveAssociativity(), args...);

    for (std::size_t i = 0; i < addrs.size(); ++i) {
        const Addr line = addrs[i] / kLineBytes * kLineBytes;
        const std::uint64_t set = (line / kLineBytes) % sets;
        const bool expect_hit = model[set].access(line);
        const bool hit = cache.access({addrs[i], 4, AccessKind::Read});
        ASSERT_EQ(hit, expect_hit)
            << "ref " << i << " line 0x" << std::hex << line;
    }
}

/** LRU: MRU-first list, evict the back. */
class LruModel final : public SetModel
{
  public:
    explicit LruModel(std::uint32_t assoc) : assoc_(assoc) {}

    bool
    access(Addr line) override
    {
        const auto it = std::find(order_.begin(), order_.end(), line);
        if (it != order_.end()) {
            order_.erase(it);
            order_.push_front(line);
            return true;
        }
        order_.push_front(line);
        if (order_.size() > assoc_)
            order_.pop_back();
        return false;
    }

  private:
    std::uint32_t assoc_;
    std::deque<Addr> order_;
};

/** FIFO: fill-order queue; hits do not reorder. */
class FifoModel final : public SetModel
{
  public:
    explicit FifoModel(std::uint32_t assoc) : assoc_(assoc) {}

    bool
    access(Addr line) override
    {
        if (std::find(order_.begin(), order_.end(), line) != order_.end())
            return true;
        order_.push_front(line);
        if (order_.size() > assoc_)
            order_.pop_back();
        return false;
    }

  private:
    std::uint32_t assoc_;
    std::deque<Addr> order_;
};

/** SLRU: probationary/protected segments under one touch clock. */
class SlruModel final : public SetModel
{
  public:
    SlruModel(std::uint32_t assoc, double probation)
        : assoc_(assoc),
          cap_(std::min<std::uint32_t>(
              assoc - 1, static_cast<std::uint32_t>(
                             std::floor((1.0 - probation) * assoc))))
    {}

    bool
    access(Addr line) override
    {
        const auto it = lines_.find(line);
        if (it != lines_.end()) {
            it->second.touch = ++clock_;
            if (!it->second.is_protected) {
                it->second.is_protected = true;
                if (protectedCount() > cap_)
                    coldest(true)->second.is_protected = false;
            }
            return true;
        }
        if (lines_.size() == assoc_)
            lines_.erase(coldest(false));
        lines_[line] = {false, ++clock_};
        return false;
    }

  private:
    struct Entry
    {
        bool is_protected = false;
        std::uint64_t touch = 0;
    };

    std::uint32_t
    protectedCount() const
    {
        std::uint32_t n = 0;
        for (const auto &[addr, e] : lines_)
            n += e.is_protected ? 1 : 0;
        return n;
    }

    std::map<Addr, Entry>::iterator
    coldest(bool is_protected)
    {
        auto best = lines_.end();
        for (auto it = lines_.begin(); it != lines_.end(); ++it) {
            if (it->second.is_protected != is_protected)
                continue;
            if (best == lines_.end() ||
                it->second.touch < best->second.touch)
                best = it;
        }
        return best;
    }

    std::uint32_t assoc_;
    std::uint32_t cap_;
    std::uint64_t clock_ = 0;
    std::map<Addr, Entry> lines_;
};

/** LFU: evict min (hits-since-fill, last-touch). */
class LfuModel final : public SetModel
{
  public:
    explicit LfuModel(std::uint32_t assoc) : assoc_(assoc) {}

    bool
    access(Addr line) override
    {
        const auto it = lines_.find(line);
        if (it != lines_.end()) {
            ++it->second.freq;
            it->second.touch = ++clock_;
            return true;
        }
        if (lines_.size() == assoc_) {
            auto victim = lines_.begin();
            for (auto c = lines_.begin(); c != lines_.end(); ++c)
                if (std::pair(c->second.freq, c->second.touch) <
                    std::pair(victim->second.freq, victim->second.touch))
                    victim = c;
            lines_.erase(victim);
        }
        lines_[line] = {1, ++clock_};
        return false;
    }

  private:
    struct Entry
    {
        std::uint64_t freq = 0;
        std::uint64_t touch = 0;
    };

    std::uint32_t assoc_;
    std::uint64_t clock_ = 0;
    std::map<Addr, Entry> lines_;
};

/** LFUDA: LFU keys offset by a per-set age raised on eviction. */
class LfudaModel final : public SetModel
{
  public:
    explicit LfudaModel(std::uint32_t assoc) : assoc_(assoc) {}

    bool
    access(Addr line) override
    {
        const auto it = lines_.find(line);
        if (it != lines_.end()) {
            ++it->second.key;
            it->second.touch = ++clock_;
            return true;
        }
        if (lines_.size() == assoc_) {
            auto victim = lines_.begin();
            for (auto c = lines_.begin(); c != lines_.end(); ++c)
                if (std::pair(c->second.key, c->second.touch) <
                    std::pair(victim->second.key, victim->second.touch))
                    victim = c;
            age_ = victim->second.key;
            lines_.erase(victim);
        }
        lines_[line] = {age_ + 1, ++clock_};
        return false;
    }

  private:
    struct Entry
    {
        std::uint64_t key = 0;
        std::uint64_t touch = 0;
    };

    std::uint32_t assoc_;
    std::uint64_t age_ = 0;
    std::uint64_t clock_ = 0;
    std::map<Addr, Entry> lines_;
};

/** 2Q: A1in FIFO probation, A1out ghost queue, LRU main space. */
class TwoQModel final : public SetModel
{
  public:
    TwoQModel(std::uint32_t assoc, double kin, double kout)
        : assoc_(assoc),
          kin_(std::max<std::uint32_t>(
              1, static_cast<std::uint32_t>(std::llround(kin * assoc)))),
          kout_(std::max<std::uint32_t>(
              1, static_cast<std::uint32_t>(std::llround(kout * assoc))))
    {}

    bool
    access(Addr line) override
    {
        const auto it = lines_.find(line);
        if (it != lines_.end()) {
            // A1in hits are correlated references: no state change.
            if (!it->second.in_a1)
                it->second.touch = ++clock_;
            return true;
        }
        if (lines_.size() == assoc_)
            evict();
        const auto ghost = std::find(a1out_.begin(), a1out_.end(), line);
        Entry entry;
        if (ghost != a1out_.end()) {
            a1out_.erase(ghost);
            entry.in_a1 = false;
        } else {
            entry.in_a1 = true;
            entry.fill = clock_ + 1;
        }
        entry.touch = ++clock_;
        lines_[line] = entry;
        return false;
    }

  private:
    struct Entry
    {
        bool in_a1 = true;
        std::uint64_t fill = 0;
        std::uint64_t touch = 0;
    };

    void
    evict()
    {
        auto oldest_a1 = lines_.end();
        auto coldest_am = lines_.end();
        std::uint32_t a1_count = 0;
        for (auto it = lines_.begin(); it != lines_.end(); ++it) {
            if (it->second.in_a1) {
                ++a1_count;
                if (oldest_a1 == lines_.end() ||
                    it->second.fill < oldest_a1->second.fill)
                    oldest_a1 = it;
            } else if (coldest_am == lines_.end() ||
                       it->second.touch < coldest_am->second.touch) {
                coldest_am = it;
            }
        }
        auto victim = (a1_count >= kin_ && oldest_a1 != lines_.end())
            ? oldest_a1
            : (coldest_am != lines_.end() ? coldest_am : oldest_a1);
        if (victim->second.in_a1) {
            a1out_.push_back(victim->first);
            if (a1out_.size() > kout_)
                a1out_.pop_front();
        }
        lines_.erase(victim);
    }

    std::uint32_t assoc_;
    std::uint32_t kin_;
    std::uint32_t kout_;
    std::uint64_t clock_ = 0;
    std::map<Addr, Entry> lines_;
    std::deque<Addr> a1out_;
};

/**
 * ARC ghost-list oracle, transcribed from the Megiddo & Modha
 * pseudocode: four MRU-first lists T1/T2/B1/B2 and the adaptive
 * target p.  Structurally unlike the production policy (which keeps
 * per-way flags and touch stamps and defers its commit past the
 * admission hook), so agreement over a long stream is meaningful.
 */
class ArcModel final : public SetModel
{
  public:
    explicit ArcModel(std::uint32_t assoc) : c_(assoc) {}

    bool
    access(Addr x) override
    {
        if (erase(t1_, x)) {
            t2_.push_front(x);
            return true;
        }
        if (erase(t2_, x)) {
            t2_.push_front(x);
            return true;
        }
        if (contains(b1_, x)) {
            p_ = std::min<double>(
                c_, p_ + std::max<double>(1.0, double(b2_.size()) /
                                                   double(b1_.size())));
            replace(/*x_in_b2=*/false);
            erase(b1_, x);
            t2_.push_front(x);
            return false;
        }
        if (contains(b2_, x)) {
            p_ = std::max<double>(
                0.0, p_ - std::max<double>(1.0, double(b1_.size()) /
                                                    double(b2_.size())));
            replace(/*x_in_b2=*/true);
            erase(b2_, x);
            t2_.push_front(x);
            return false;
        }
        // Case IV: the address is new to the whole directory.
        const std::size_t l1 = t1_.size() + b1_.size();
        if (l1 == c_) {
            if (t1_.size() < c_) {
                b1_.pop_back();
                replace(false);
            } else {
                t1_.pop_back(); // B1 empty, T1 full: discard, no ghost
            }
        } else if (l1 < c_ &&
                   l1 + t2_.size() + b2_.size() >= c_) {
            if (l1 + t2_.size() + b2_.size() == 2 * std::size_t{c_})
                b2_.pop_back();
            replace(false);
        }
        t1_.push_front(x);
        return false;
    }

  private:
    static bool
    contains(const std::deque<Addr> &list, Addr x)
    {
        return std::find(list.begin(), list.end(), x) != list.end();
    }

    static bool
    erase(std::deque<Addr> &list, Addr x)
    {
        const auto it = std::find(list.begin(), list.end(), x);
        if (it == list.end())
            return false;
        list.erase(it);
        return true;
    }

    void
    replace(bool x_in_b2)
    {
        if (t1_.size() + t2_.size() < c_)
            return; // the cache set still has free ways
        bool from_t1 = !t1_.empty() &&
            (double(t1_.size()) > p_ ||
             (x_in_b2 && double(t1_.size()) >= p_));
        if (from_t1 && t1_.empty())
            from_t1 = false;
        if (!from_t1 && t2_.empty())
            from_t1 = true;
        if (from_t1) {
            b1_.push_front(t1_.back());
            t1_.pop_back();
        } else {
            b2_.push_front(t2_.back());
            t2_.pop_back();
        }
    }

    std::uint32_t c_;
    double p_ = 0.0;
    std::deque<Addr> t1_, t2_, b1_, b2_;
};

TEST(PolicyZoo, LruMatchesReferenceModel)
{
    compareAgainstModel<LruModel>(zooConfig("lru"),
                                  mixedAddresses(30000, 1));
}

TEST(PolicyZoo, FifoMatchesReferenceModel)
{
    compareAgainstModel<FifoModel>(zooConfig("fifo"),
                                   mixedAddresses(30000, 2));
}

TEST(PolicyZoo, SlruMatchesReferenceModel)
{
    compareAgainstModel<SlruModel>(zooConfig("slru"),
                                   mixedAddresses(30000, 3), 0.2);
    compareAgainstModel<SlruModel>(zooConfig("slru:probation=0.5", 8),
                                   mixedAddresses(30000, 4), 0.5);
}

TEST(PolicyZoo, LfuMatchesReferenceModel)
{
    compareAgainstModel<LfuModel>(zooConfig("lfu"),
                                  mixedAddresses(30000, 5));
}

TEST(PolicyZoo, LfudaMatchesReferenceModel)
{
    compareAgainstModel<LfudaModel>(zooConfig("lfuda"),
                                    mixedAddresses(30000, 6));
}

TEST(PolicyZoo, TwoQMatchesReferenceModel)
{
    compareAgainstModel<TwoQModel>(zooConfig("2q"),
                                   mixedAddresses(30000, 7), 0.25, 0.5);
    compareAgainstModel<TwoQModel>(zooConfig("2q:kin=0.5,kout=1", 8),
                                   mixedAddresses(30000, 8), 0.5, 1.0);
}

TEST(PolicyZoo, ArcMatchesGhostListOracle)
{
    compareAgainstModel<ArcModel>(zooConfig("arc"),
                                  mixedAddresses(40000, 9));
    // Fully associative: one big set stresses the adaptation width.
    compareAgainstModel<ArcModel>(zooConfig("arc", 16, 1024),
                                  mixedAddresses(40000, 10));
}

/** Fold every CacheStats field, in declaration order, into one word. */
std::uint64_t
statsHash(const CacheStats &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto fold = [&h](std::uint64_t v) {
        h = (h ^ v) * 0x100000001b3ULL;
        h ^= h >> 29;
    };
    for (std::uint64_t v : s.accesses)
        fold(v);
    for (std::uint64_t v : s.misses)
        fold(v);
    for (std::uint64_t v :
         {s.demandFetches, s.prefetchFetches, s.bytesFromMemory,
          s.bytesToMemory, s.replacementPushes, s.dirtyReplacementPushes,
          s.purgePushes, s.dirtyPurgePushes, s.writeThroughs, s.purges})
        fold(v);
    return h;
}

// The model tests above use reads only and no admission, so they never
// take the victim-scan-then-reject path.  This pins every policy, alone
// and behind TinyLFU, on the kv_served input (Zipf reuse, scans and 30%
// writes): copy-back, a purge every 10k references, set-associative and
// fully associative.  The constants were computed before the policies
// read the line array directly and TinyLFU reused the line's slots.
// Without admission lru, slru and arc give the same statistics on this
// prefix, and behind TinyLFU lru and slru still agree fully
// associative; every other pair of cases differs.
TEST(PolicyZoo, KvStatsArePinned)
{
    KvWorkloadParams kv; // GeneratedBytes.KvServedTraceIsPinned's input
    kv.refCount = 250000;
    kv.keyCount = 1u << 21;
    kv.objectBytes = 64;
    kv.refBytes = 8;
    kv.zipfTheta = 0.9;
    kv.readRatio = 0.7;
    kv.scanFraction = 0.02;
    kv.meanScanObjects = 32.0;
    kv.driftRefs = 5000;
    kv.seed = 1;
    const Trace trace = generateKvWorkload(kv, "kv");
    const std::span<const MemoryRef> refs = trace.refs().first(50000);

    struct Pin
    {
        const char *policy;
        const char *admission;
        std::uint32_t assoc; ///< 0: fully associative
        std::uint64_t size;
        std::uint64_t hash;
    };
    const Pin pins[] = {
        {"lru", "", 8, 8192, 0xbcc7dade20288475ULL},
        {"lru", "", 0, 4096, 0x3d91bd3414a406c1ULL},
        {"lru", "tinylfu:counters=64", 8, 8192, 0x389a95be4ffd0b1eULL},
        {"lru", "tinylfu:counters=64", 0, 4096, 0x9538356ac2d4de05ULL},
        {"fifo", "", 8, 8192, 0x948e2954a6bf1516ULL},
        {"fifo", "", 0, 4096, 0xc0ae3b0c46d6ea52ULL},
        {"fifo", "tinylfu:counters=64", 8, 8192, 0x696131ca18026a9dULL},
        {"fifo", "tinylfu:counters=64", 0, 4096, 0xf7d3fe5084ba7438ULL},
        {"random", "", 8, 8192, 0xa8b5072c0007a11bULL},
        {"random", "", 0, 4096, 0xa1f8adf138720012ULL},
        {"random", "tinylfu:counters=64", 8, 8192, 0x9292cecaddcb9ffaULL},
        {"random", "tinylfu:counters=64", 0, 4096, 0xef9387128257e313ULL},
        {"slru", "", 8, 8192, 0xbcc7dade20288475ULL},
        {"slru", "", 0, 4096, 0x3d91bd3414a406c1ULL},
        {"slru", "tinylfu:counters=64", 8, 8192, 0xa9512fdb1e723305ULL},
        {"slru", "tinylfu:counters=64", 0, 4096, 0x9538356ac2d4de05ULL},
        {"lfu", "", 8, 8192, 0xc53c368b442bee01ULL},
        {"lfu", "", 0, 4096, 0x3ab11b76b2b7b7ffULL},
        {"lfu", "tinylfu:counters=64", 8, 8192, 0x0bdd325cb32715cbULL},
        {"lfu", "tinylfu:counters=64", 0, 4096, 0xeb13f8c0daa66a56ULL},
        {"lfuda", "", 8, 8192, 0x7017a749dbb1b022ULL},
        {"lfuda", "", 0, 4096, 0xd3cd72cc0e5ce1a7ULL},
        {"lfuda", "tinylfu:counters=64", 8, 8192, 0x9f29643821446b0eULL},
        {"lfuda", "tinylfu:counters=64", 0, 4096, 0xffc6978611791a32ULL},
        {"2q", "", 8, 8192, 0x61a7f70285327a8cULL},
        {"2q", "", 0, 4096, 0x630878bff8ec239dULL},
        {"2q", "tinylfu:counters=64", 8, 8192, 0x09b253556953b570ULL},
        {"2q", "tinylfu:counters=64", 0, 4096, 0xe3760c5d2ba312e1ULL},
        {"arc", "", 8, 8192, 0xbcc7dade20288475ULL},
        {"arc", "", 0, 4096, 0x3d91bd3414a406c1ULL},
        {"arc", "tinylfu:counters=64", 8, 8192, 0x0bd8988d47ecb065ULL},
        {"arc", "tinylfu:counters=64", 0, 4096, 0x837a3115e3190e1dULL},
    };
    for (const Pin &pin : pins) {
        CacheConfig config = zooConfig(pin.policy, pin.assoc, pin.size);
        ASSERT_FALSE(parseAdmissionPolicy(pin.admission, config.admission));
        Cache cache(config);
        for (std::size_t i = 0; i < refs.size(); ++i) {
            if (i != 0 && i % 10000 == 0)
                cache.purge();
            cache.access(refs[i]);
        }
        EXPECT_EQ(statsHash(cache.stats()), pin.hash)
            << pin.policy << " + \"" << pin.admission << "\", "
            << config.describe() << ": 0x" << std::hex
            << statsHash(cache.stats());
    }
}

// ---------------------------------------------------------------- //
//  TinyLFU admission vs an offline recomputed sketch               //
// ---------------------------------------------------------------- //

/** Offline reimplementation of the TinyLFU count-min sketch. */
class SketchModel
{
  public:
    SketchModel(std::uint64_t counters, std::uint64_t window)
        : width_(std::bit_ceil(counters)),
          window_(window ? window : 10 * width_),
          cells_(4 * width_, 0)
    {}

    void
    onAccess(Addr line)
    {
        for (std::size_t row = 0; row < 4; ++row) {
            std::uint8_t &cell = cells_[slot(row, line)];
            if (cell < 255)
                ++cell;
        }
        if (++samples_ >= window_) {
            for (std::uint8_t &cell : cells_)
                cell = static_cast<std::uint8_t>(cell >> 1);
            samples_ /= 2;
        }
    }

    bool
    admit(Addr line, Addr victim, bool victim_valid)
    {
        if (victim_valid && estimate(line) <= estimate(victim)) {
            ++rejected_;
            return false;
        }
        ++admitted_;
        return true;
    }

    std::uint32_t
    estimate(Addr line) const
    {
        std::uint32_t low = 255;
        for (std::size_t row = 0; row < 4; ++row)
            low = std::min<std::uint32_t>(low, cells_[slot(row, line)]);
        return low;
    }

    /** Pack state exactly as TinyLfuAdmission::exportWords does. */
    std::vector<std::uint64_t>
    packedWords() const
    {
        std::vector<std::uint64_t> out{samples_, admitted_, rejected_};
        for (std::size_t i = 0; i < cells_.size(); i += 8) {
            std::uint64_t word = 0;
            for (std::size_t b = 0; b < 8; ++b)
                word |= std::uint64_t{cells_[i + b]} << (8 * b);
            out.push_back(word);
        }
        return out;
    }

  private:
    static std::uint64_t
    mix64(std::uint64_t x)
    {
        x += 0x9e3779b97f4a7c15ULL;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return x ^ (x >> 31);
    }

    std::size_t
    slot(std::size_t row, Addr line) const
    {
        const std::uint64_t h =
            mix64(line + 0x517cc1b727220a95ULL * (row + 1));
        return row * width_ + (h & (width_ - 1));
    }

    std::uint64_t width_;
    std::uint64_t window_;
    std::uint64_t samples_ = 0;
    std::uint64_t admitted_ = 0;
    std::uint64_t rejected_ = 0;
    std::vector<std::uint8_t> cells_;
};

TEST(TinyLfu, MatchesOfflineSketch)
{
    PolicySpec spec;
    ASSERT_FALSE(
        parseAdmissionPolicy("tinylfu:counters=256,window=1000", spec));
    const std::unique_ptr<AdmissionPolicy> filter =
        makeAdmissionPolicy(spec);
    ASSERT_NE(filter, nullptr);
    SketchModel model(256, 1000);

    const std::vector<Addr> addrs = mixedAddresses(20000, 11);
    for (std::size_t i = 0; i < addrs.size(); ++i) {
        const Addr line = addrs[i] / kLineBytes * kLineBytes;
        filter->onAccess(line);
        model.onAccess(line);
        if (i % 3 == 0) {
            const Addr victim =
                addrs[(i * 7 + 13) % addrs.size()] / kLineBytes *
                kLineBytes;
            const bool valid = i % 6 != 0;
            ASSERT_EQ(filter->admit(line, victim, valid),
                      model.admit(line, victim, valid))
                << "ref " << i;
        }
    }
    // Counter-for-counter equality of the whole sketch state.
    EXPECT_EQ(filter->exportWords(), model.packedWords());
    EXPECT_GT(filter->admitted(), 0u);
    EXPECT_GT(filter->rejected(), 0u);
}

TEST(TinyLfu, AlwaysAdmitsIntoFreeWays)
{
    PolicySpec spec;
    ASSERT_FALSE(parseAdmissionPolicy("tinylfu", spec));
    const auto filter = makeAdmissionPolicy(spec);
    // A hot victim would win on frequency, but an invalid way is
    // always worth filling.
    for (int i = 0; i < 100; ++i)
        filter->onAccess(0x1000);
    EXPECT_TRUE(filter->admit(0x2000, 0x1000, /*victim_valid=*/false));
    EXPECT_FALSE(filter->admit(0x2000, 0x1000, /*victim_valid=*/true));
}

TEST(TinyLfu, RejectedInstallLeavesContentsUntouched)
{
    CacheConfig config = zooConfig("lru", 2, 256); // 2 sets x 2 ways
    ASSERT_FALSE(parseAdmissionPolicy("tinylfu:counters=16,window=100000",
                                      config.admission));
    Cache cache(config);

    // Make lines 0x000 and 0x100 (set 0) hot enough to defend.
    for (int i = 0; i < 50; ++i) {
        cache.access({0x000, 4, AccessKind::Read});
        cache.access({0x100, 4, AccessKind::Read});
    }
    const CacheStats before = cache.stats();
    // A cold line cannot displace either: misses count, traffic flows,
    // contents stay.
    EXPECT_FALSE(cache.access({0x200, 4, AccessKind::Read}));
    EXPECT_FALSE(cache.contains(0x200));
    EXPECT_TRUE(cache.contains(0x000));
    EXPECT_TRUE(cache.contains(0x100));
    const CacheStats after = cache.stats();
    EXPECT_EQ(after.totalMisses(), before.totalMisses() + 1);
    EXPECT_EQ(after.bytesFromMemory,
              before.bytesFromMemory + config.lineBytes);
    EXPECT_EQ(after.replacementPushes, before.replacementPushes);
}

TEST(TinyLfu, AdmitOfALineNotJustCountedMatchesOfflineSketch)
{
    // The cache asks admit() about the line it just counted, except for
    // a prefetch, whose line was never counted.  The filter keeps the
    // counted line's slots; for any other line it must hash.
    PolicySpec spec;
    ASSERT_FALSE(
        parseAdmissionPolicy("tinylfu:counters=256,window=1000", spec));
    const std::unique_ptr<AdmissionPolicy> filter =
        makeAdmissionPolicy(spec);
    SketchModel model(256, 1000);

    const std::vector<Addr> addrs = mixedAddresses(20000, 17);
    for (std::size_t i = 0; i < addrs.size(); ++i) {
        const Addr line = addrs[i] / kLineBytes * kLineBytes;
        filter->onAccess(line);
        model.onAccess(line);
        const Addr other =
            addrs[(i * 5 + 3) % addrs.size()] / kLineBytes * kLineBytes;
        ASSERT_EQ(filter->admit(other, line, true),
                  model.admit(other, line, true))
            << "ref " << i;
    }
    EXPECT_EQ(filter->exportWords(), model.packedWords());
    EXPECT_GT(filter->admitted(), 0u);
    EXPECT_GT(filter->rejected(), 0u);
}

// ---------------------------------------------------------------- //
//  State export and mid-stream restore                             //
// ---------------------------------------------------------------- //

bool
statsBitwiseEqual(const CacheStats &a, const CacheStats &b)
{
    return std::memcmp(&a, &b, sizeof(CacheStats)) == 0;
}

TEST(PolicyCheckpoint, MidstreamRestoreContinuesBitwiseForZoo)
{
    // Exact state covers the policies whose whole state is the recency
    // permutation; the scan policies and admission refuse an import
    // (CacheState.ImportRejectsScanPoliciesAndAdmission).
    const std::vector<Addr> addrs = mixedAddresses(20000, 12);
    for (const char *policy : {"lru", "fifo", "random"}) {
        const CacheConfig config = zooConfig(policy);

        Cache reference(config);
        for (Addr a : addrs)
            reference.access({a, 4, AccessKind::Read});

        Cache first(config);
        for (std::size_t i = 0; i < addrs.size() / 2; ++i)
            first.access({addrs[i], 4, AccessKind::Read});

        Cache second(config);
        second.importState(first.exportState());
        for (std::size_t i = addrs.size() / 2; i < addrs.size(); ++i)
            second.access({addrs[i], 4, AccessKind::Read});

        EXPECT_TRUE(statsBitwiseEqual(second.stats(), reference.stats()))
            << policy;
        const CacheState want = reference.exportState();
        const CacheState got = second.exportState();
        EXPECT_EQ(got.lines, want.lines) << policy;
        EXPECT_EQ(got.recency, want.recency) << policy;
    }
}

TEST(PolicyCheckpoint, PurgeResetsPolicyState)
{
    for (const char *policy : {"slru", "lfu", "lfuda", "2q", "arc"}) {
        CacheConfig config = zooConfig(policy);
        ASSERT_FALSE(parseAdmissionPolicy("tinylfu:counters=64",
                                          config.admission));
        Cache warmed(config);
        for (Addr a : mixedAddresses(3000, 15))
            warmed.access({a, 4, AccessKind::Read});
        warmed.purge();

        // After a purge the policy state must equal the just-bound
        // state (modulo statistics): replay on a fresh cache agrees.
        Cache fresh(config);
        const std::vector<Addr> tail = mixedAddresses(3000, 16);
        for (Addr a : tail) {
            const bool warm_hit = warmed.access({a, 4, AccessKind::Read});
            const bool fresh_hit = fresh.access({a, 4, AccessKind::Read});
            ASSERT_EQ(warm_hit, fresh_hit) << policy;
        }
    }
}

} // namespace
} // namespace cachelab
