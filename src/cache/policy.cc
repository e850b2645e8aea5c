/**
 * @file
 * Implementation of the pluggable replacement/admission policy API:
 * spec parsing, the classic recency-list trio, the modern scan-based
 * zoo (slru, lfu, lfuda, 2q, arc), and the TinyLFU admission sketch.
 */

#include "cache/policy.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>

#include "util/logging.hh"
#include "util/random.hh"

namespace cachelab
{

namespace
{

constexpr std::uint32_t kNoWay = std::numeric_limits<std::uint32_t>::max();

std::string
toLower(std::string_view s)
{
    std::string out(s);
    for (char &c : out)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return out;
}

/** Render a parameter value without noise: integers plain, else %g. */
std::string
formatParamValue(double v)
{
    if (v == std::floor(v) && std::abs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
        return buf;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &name : names) {
        if (!out.empty())
            out += ", ";
        out += name;
    }
    return out;
}

/** One legal parameter of a policy, with its closed value range. */
struct ParamRule
{
    std::string_view key;
    double min;
    double max;
    bool integral = false;
};

struct PolicyRule
{
    std::string_view name;
    std::vector<ParamRule> params;
};

const std::vector<PolicyRule> &
replacementRules()
{
    static const std::vector<PolicyRule> rules{
        {"lru", {}},
        {"fifo", {}},
        {"random", {}},
        {"slru", {{"probation", 0.0, 1.0}}},
        {"lfu", {}},
        {"lfuda", {}},
        {"2q", {{"kin", 0.0, 1.0}, {"kout", 0.0, 8.0}}},
        {"arc", {}},
    };
    return rules;
}

const std::vector<PolicyRule> &
admissionRules()
{
    static const std::vector<PolicyRule> rules{
        {"none", {}},
        {"tinylfu",
         {{"counters", 15.0, 16777216.0, /*integral=*/true},
          {"window", 0.0, 1e12, /*integral=*/true}}},
    };
    return rules;
}

std::optional<std::string>
checkAgainst(const PolicySpec &spec, const std::vector<PolicyRule> &rules,
             std::string_view kind, const std::vector<std::string> &names)
{
    const PolicyRule *rule = nullptr;
    for (const PolicyRule &r : rules)
        if (r.name == spec.name)
            rule = &r;
    if (rule == nullptr)
        return "unknown " + std::string(kind) + " policy \"" + spec.name +
            "\" (valid: " + joinNames(names) + ")";

    for (const auto &[key, value] : spec.params) {
        const ParamRule *param = nullptr;
        for (const ParamRule &p : rule->params)
            if (p.key == key)
                param = &p;
        if (param == nullptr) {
            if (rule->params.empty())
                return "policy \"" + spec.name +
                    "\" takes no parameters (got \"" + key + "\")";
            std::string valid;
            for (const ParamRule &p : rule->params) {
                if (!valid.empty())
                    valid += ", ";
                valid += p.key;
            }
            return "unknown parameter \"" + key + "\" for policy \"" +
                spec.name + "\" (valid: " + valid + ")";
        }
        if (!(value > param->min) || !(value <= param->max))
            return "parameter \"" + key + "\" of policy \"" + spec.name +
                "\" must be in (" + formatParamValue(param->min) + ", " +
                formatParamValue(param->max) + "], got " +
                formatParamValue(value);
        if (param->integral && value != std::floor(value))
            return "parameter \"" + key + "\" of policy \"" + spec.name +
                "\" must be an integer, got " + formatParamValue(value);
    }

    // Reject duplicate keys: the last-one-wins ambiguity is always a
    // typo in an experiment spec.
    for (std::size_t i = 0; i < spec.params.size(); ++i)
        for (std::size_t j = i + 1; j < spec.params.size(); ++j)
            if (spec.params[i].first == spec.params[j].first)
                return "duplicate parameter \"" + spec.params[i].first +
                    "\" for policy \"" + spec.name + "\"";
    return std::nullopt;
}

std::optional<std::string>
parseSpecText(std::string_view text, PolicySpec &out)
{
    PolicySpec spec;
    spec.params.clear();
    const std::size_t colon = text.find(':');
    spec.name = toLower(text.substr(0, colon));
    if (colon != std::string_view::npos) {
        std::string_view rest = text.substr(colon + 1);
        while (!rest.empty()) {
            const std::size_t comma = rest.find(',');
            const std::string_view token = rest.substr(0, comma);
            rest = comma == std::string_view::npos
                ? std::string_view{}
                : rest.substr(comma + 1);
            const std::size_t eq = token.find('=');
            if (eq == std::string_view::npos || eq == 0)
                return "policy parameter \"" + std::string(token) +
                    "\" is not key=value";
            const std::string key = toLower(token.substr(0, eq));
            const std::string_view value = token.substr(eq + 1);
            double parsed = 0.0;
            const auto [ptr, ec] = std::from_chars(
                value.data(), value.data() + value.size(), parsed);
            if (ec != std::errc{} || ptr != value.data() + value.size())
                return "policy parameter \"" + key + "\" has non-numeric "
                    "value \"" + std::string(value) + "\"";
            spec.params.emplace_back(key, parsed);
        }
    }
    out = std::move(spec);
    return std::nullopt;
}

} // namespace

double
PolicySpec::param(std::string_view key, double fallback) const
{
    for (const auto &[k, v] : params)
        if (k == key)
            return v;
    return fallback;
}

std::string
PolicySpec::toString() const
{
    std::string out = name;
    for (std::size_t i = 0; i < params.size(); ++i) {
        out += i == 0 ? ":" : ",";
        out += params[i].first;
        out += "=";
        out += formatParamValue(params[i].second);
    }
    return out;
}

std::string
PolicySpec::display() const
{
    if (params.empty()) {
        if (name == "lru")
            return "LRU";
        if (name == "fifo")
            return "FIFO";
        if (name == "random")
            return "random";
    }
    return toString();
}

PolicySpec
policySpec(std::string_view name)
{
    PolicySpec spec;
    spec.name = toLower(name);
    return spec;
}

const std::vector<std::string> &
replacementPolicyNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const PolicyRule &rule : replacementRules())
            out.emplace_back(rule.name);
        return out;
    }();
    return names;
}

const std::vector<std::string> &
admissionPolicyNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const PolicyRule &rule : admissionRules())
            out.emplace_back(rule.name);
        return out;
    }();
    return names;
}

std::optional<std::string>
checkReplacementPolicy(const PolicySpec &spec)
{
    return checkAgainst(spec, replacementRules(), "replacement",
                        replacementPolicyNames());
}

std::optional<std::string>
checkAdmissionPolicy(const PolicySpec &spec)
{
    if (spec.empty())
        return spec.params.empty()
            ? std::nullopt
            : std::optional<std::string>(
                  "admission policy \"none\" takes no parameters");
    return checkAgainst(spec, admissionRules(), "admission",
                        admissionPolicyNames());
}

std::optional<std::string>
parseReplacementPolicy(std::string_view text, PolicySpec &out)
{
    PolicySpec spec;
    if (auto error = parseSpecText(text, spec))
        return error;
    if (auto error = checkReplacementPolicy(spec))
        return error;
    out = std::move(spec);
    return std::nullopt;
}

std::optional<std::string>
parseAdmissionPolicy(std::string_view text, PolicySpec &out)
{
    PolicySpec spec;
    if (auto error = parseSpecText(text, spec))
        return error;
    if (spec.name == "none" || spec.name.empty())
        spec.name.clear();
    if (auto error = checkAdmissionPolicy(spec))
        return error;
    out = std::move(spec);
    return std::nullopt;
}

void
ReplacementPolicy::importWords(std::span<const std::uint64_t> words)
{
    if (!words.empty())
        fatal("policy state import: ", words.size(),
              " extra state words for a policy that keeps none");
}

// ------------------------------------------------------------------
// The classic trio: intrusive per-set recency lists, bit-identical to
// the pre-API cache behaviour.
// ------------------------------------------------------------------

namespace
{

/**
 * Intrusive per-set recency list — exactly the machinery the cache
 * core used before policies were pluggable, preserved verbatim so the
 * classic policies keep their exported recency order: ways init in way
 * order (so way 0 sits at the LRU tail), invalid ways are on the list
 * too, and export walks MRU to LRU.
 */
class RecencyList
{
  public:
    void
    init(std::uint64_t sets, std::uint32_t assoc)
    {
        sets_ = sets;
        assoc_ = assoc;
        const std::uint64_t n = sets * assoc;
        next_.assign(n, kNoWay);
        prev_.assign(n, kNoWay);
        head_.assign(sets, kNoWay);
        tail_.assign(sets, kNoWay);
        for (std::uint64_t set = 0; set < sets; ++set)
            for (std::uint64_t way = 0; way < assoc; ++way)
                pushMru(set,
                        static_cast<std::uint32_t>(set * assoc + way));
    }

    void
    touchMru(std::uint64_t set, std::uint32_t idx)
    {
        unlink(set, idx);
        pushMru(set, idx);
    }

    std::uint32_t
    tail(std::uint64_t set) const
    {
        const std::uint32_t lru = tail_[set];
        CACHELAB_ASSERT(lru != kNoWay, "empty recency list in set ", set);
        return lru;
    }

    void
    exportOrder(std::vector<std::uint32_t> &out) const
    {
        for (std::uint64_t set = 0; set < sets_; ++set)
            for (std::uint32_t idx = head_[set]; idx != kNoWay;
                 idx = next_[idx])
                out.push_back(idx);
    }

    void
    importOrder(std::span<const std::uint32_t> order)
    {
        CACHELAB_ASSERT(order.size() == next_.size(),
                        "recency import: ", order.size(), " entries for ",
                        next_.size(), " ways");
        std::fill(head_.begin(), head_.end(), kNoWay);
        std::fill(tail_.begin(), tail_.end(), kNoWay);
        std::fill(next_.begin(), next_.end(), kNoWay);
        std::fill(prev_.begin(), prev_.end(), kNoWay);
        for (std::uint64_t set = 0; set < sets_; ++set) {
            std::uint32_t prev = kNoWay;
            for (std::uint64_t pos = 0; pos < assoc_; ++pos) {
                const std::uint32_t idx = order[set * assoc_ + pos];
                CACHELAB_ASSERT(idx / assoc_ == set &&
                                    next_[idx] == kNoWay &&
                                    prev_[idx] == kNoWay &&
                                    head_[set] != idx,
                                "recency import: list of set ", set,
                                " is not a permutation of its ways");
                if (prev == kNoWay)
                    head_[set] = idx;
                else
                    next_[prev] = idx;
                prev_[idx] = prev;
                prev = idx;
            }
            tail_[set] = prev;
        }
    }

  private:
    static constexpr std::uint32_t kNoWay =
        std::numeric_limits<std::uint32_t>::max();

    void
    unlink(std::uint64_t set, std::uint32_t idx)
    {
        const std::uint32_t p = prev_[idx];
        const std::uint32_t n = next_[idx];
        if (p != kNoWay)
            next_[p] = n;
        else
            head_[set] = n;
        if (n != kNoWay)
            prev_[n] = p;
        else
            tail_[set] = p;
        prev_[idx] = kNoWay;
        next_[idx] = kNoWay;
    }

    void
    pushMru(std::uint64_t set, std::uint32_t idx)
    {
        prev_[idx] = kNoWay;
        next_[idx] = head_[set];
        if (head_[set] != kNoWay)
            prev_[head_[set]] = idx;
        head_[set] = idx;
        if (tail_[set] == kNoWay)
            tail_[set] = idx;
    }

    std::vector<std::uint32_t> next_;
    std::vector<std::uint32_t> prev_;
    std::vector<std::uint32_t> head_;
    std::vector<std::uint32_t> tail_;
    std::uint64_t sets_ = 0;
    std::uint32_t assoc_ = 0;
};

/** Shared skeleton of the recency-list policies. */
class ListPolicy : public ReplacementPolicy
{
  public:
    void
    bind(std::uint64_t sets, std::uint32_t assoc, PolicyHost host,
         Rng *rng) override
    {
        sets_ = sets;
        assoc_ = assoc;
        host_ = host;
        rng_ = rng;
        list_.init(sets, assoc);
    }

    void reset() override { list_.init(sets_, assoc_); }

    void
    onFill(std::uint64_t set, std::uint32_t way, Addr) override
    {
        list_.touchMru(set, way);
    }

    void
    exportRecency(std::vector<std::uint32_t> &out) const override
    {
        list_.exportOrder(out);
    }

    void
    importRecency(std::span<const std::uint32_t> recency) override
    {
        list_.importOrder(recency);
    }

  protected:
    RecencyList list_;
    PolicyHost host_;
    Rng *rng_ = nullptr;
    std::uint64_t sets_ = 0;
    std::uint32_t assoc_ = 0;
};

class LruPolicy final : public ListPolicy
{
  public:
    std::uint32_t
    victimWay(std::uint64_t set, Addr) override
    {
        // Invalid ways are never promoted, so they accumulate at the
        // LRU end and are consumed before any valid line is evicted.
        return list_.tail(set);
    }

    void
    onHit(std::uint64_t set, std::uint32_t way, Addr) override
    {
        list_.touchMru(set, way);
    }
};

class FifoPolicy final : public ListPolicy
{
  public:
    std::uint32_t
    victimWay(std::uint64_t set, Addr) override
    {
        return list_.tail(set);
    }

    void onHit(std::uint64_t, std::uint32_t, Addr) override {}
};

class RandomPolicy final : public ListPolicy
{
  public:
    std::uint32_t
    victimWay(std::uint64_t set, Addr) override
    {
        const std::uint32_t lru = list_.tail(set);
        if (!host_.wayValid(lru))
            return lru;
        return static_cast<std::uint32_t>(set * assoc_ +
                                          rng_->uniformInt(assoc_));
    }

    void
    onHit(std::uint64_t set, std::uint32_t way, Addr) override
    {
        list_.touchMru(set, way);
    }
};

// ------------------------------------------------------------------
// The modern zoo: per-way metadata plus O(assoc) victim scans.
// Validity is read from the cache's line array through the host view,
// so the policies carry no duplicate resident/absent state.
// ------------------------------------------------------------------

/** Pack a byte-per-way flag vector into 64-bit words. */
void
packFlags(const std::vector<std::uint8_t> &flags,
          std::vector<std::uint64_t> &out)
{
    for (std::size_t i = 0; i < flags.size(); i += 64) {
        std::uint64_t word = 0;
        for (std::size_t b = 0; b < 64 && i + b < flags.size(); ++b)
            if (flags[i + b])
                word |= std::uint64_t{1} << b;
        out.push_back(word);
    }
}

void
unpackFlags(std::span<const std::uint64_t> words,
            std::vector<std::uint8_t> &flags)
{
    for (std::size_t i = 0; i < flags.size(); ++i)
        flags[i] =
            (words[i / 64] >> (i % 64)) & 1 ? std::uint8_t{1} : 0;
}

/** Shared skeleton of the scan-based policies. */
class ScanPolicy : public ReplacementPolicy
{
  public:
    void
    bind(std::uint64_t sets, std::uint32_t assoc, PolicyHost host,
         Rng *rng) override
    {
        sets_ = sets;
        assoc_ = assoc;
        host_ = host;
        rng_ = rng;
        reset();
    }

    void
    reset() override
    {
        clock_ = 0;
        resetState();
    }

    void
    exportRecency(std::vector<std::uint32_t> &out) const override
    {
        // Scan policies keep their real state in exportWords(); the
        // recency image is the identity permutation for format
        // compatibility with the list-based encoders.
        for (std::uint64_t w = 0; w < sets_ * assoc_; ++w)
            out.push_back(static_cast<std::uint32_t>(w));
    }

    void
    importRecency(std::span<const std::uint32_t> recency) override
    {
        CACHELAB_ASSERT(recency.size() == sets_ * assoc_,
                        "recency import: ", recency.size(),
                        " entries for ", sets_ * assoc_, " ways");
    }

  protected:
    virtual void resetState() = 0;

    /** @return the first invalid way of @p set, or kNoWay. */
    std::uint32_t
    firstInvalidWay(std::uint64_t set) const
    {
        const auto base = static_cast<std::uint32_t>(set * assoc_);
        for (std::uint32_t w = base; w < base + assoc_; ++w)
            if (!host_.wayValid(w))
                return w;
        return kNoWay;
    }

    void
    expectWords(std::span<const std::uint64_t> words, std::size_t want,
                std::string_view policy) const
    {
        if (words.size() != want)
            fatal("policy state import: ", policy, " expects ", want,
                  " state words, snapshot has ", words.size());
    }

    PolicyHost host_;
    Rng *rng_ = nullptr;
    std::uint64_t sets_ = 0;
    std::uint32_t assoc_ = 0;
    std::uint64_t clock_ = 0;
};

/**
 * Segmented LRU.  Each set is split into a probationary and a
 * protected segment (param `probation` = probationary fraction,
 * default 0.2).  Fills land probationary; a hit promotes to
 * protected, demoting the coldest protected line when the segment
 * overflows; victims are the coldest probationary line.  Recency
 * within segments is tracked with a global touch clock, so a demoted
 * line keeps its (recent) stamp — the textbook second chance.
 */
class SlruPolicy final : public ScanPolicy
{
  public:
    explicit SlruPolicy(const PolicySpec &spec)
        : probation_(spec.param("probation", 0.2))
    {}

    std::uint32_t
    victimWay(std::uint64_t set, Addr) override
    {
        const std::uint32_t invalid = firstInvalidWay(set);
        if (invalid != kNoWay)
            return invalid;
        const std::uint32_t victim = coldest(set, /*is_protected=*/false);
        // The protected cap is below assoc, so a probationary way
        // always exists once the set is full.
        CACHELAB_ASSERT(victim != kNoWay,
                        "slru: no probationary way in set ", set);
        return victim;
    }

    void
    onFill(std::uint64_t set, std::uint32_t way, Addr) override
    {
        (void)set;
        protected_[way] = 0;
        lastTouch_[way] = ++clock_;
    }

    void
    onHit(std::uint64_t set, std::uint32_t way, Addr) override
    {
        lastTouch_[way] = ++clock_;
        if (protected_[way])
            return;
        protected_[way] = 1;
        if (protectedCount(set) > protectedCap_) {
            const std::uint32_t demote =
                coldest(set, /*is_protected=*/true);
            protected_[demote] = 0;
        }
    }

    std::vector<std::uint64_t>
    exportWords() const override
    {
        std::vector<std::uint64_t> out{clock_};
        out.insert(out.end(), lastTouch_.begin(), lastTouch_.end());
        packFlags(protected_, out);
        return out;
    }

    void
    importWords(std::span<const std::uint64_t> words) override
    {
        const std::size_t n = lastTouch_.size();
        expectWords(words, 1 + n + (n + 63) / 64, "slru");
        clock_ = words[0];
        std::copy_n(words.begin() + 1, n, lastTouch_.begin());
        unpackFlags(words.subspan(1 + n), protected_);
    }

  private:
    void
    resetState() override
    {
        lastTouch_.assign(sets_ * assoc_, 0);
        protected_.assign(sets_ * assoc_, 0);
        protectedCap_ = std::min<std::uint32_t>(
            assoc_ == 0 ? 0 : assoc_ - 1,
            static_cast<std::uint32_t>(
                std::floor((1.0 - probation_) * assoc_)));
    }

    /** Count of valid protected ways in @p set. */
    std::uint32_t
    protectedCount(std::uint64_t set) const
    {
        const auto base = static_cast<std::uint32_t>(set * assoc_);
        std::uint32_t count = 0;
        for (std::uint32_t w = base; w < base + assoc_; ++w)
            if (host_.wayValid(w) && protected_[w])
                ++count;
        return count;
    }

    /** Least-recently-touched valid way of the given segment. */
    std::uint32_t
    coldest(std::uint64_t set, bool is_protected) const
    {
        const auto base = static_cast<std::uint32_t>(set * assoc_);
        std::uint32_t best = kNoWay;
        for (std::uint32_t w = base; w < base + assoc_; ++w) {
            if (!host_.wayValid(w) ||
                static_cast<bool>(protected_[w]) != is_protected)
                continue;
            if (best == kNoWay || lastTouch_[w] < lastTouch_[best])
                best = w;
        }
        return best;
    }

    double probation_;
    std::uint32_t protectedCap_ = 0;
    std::vector<std::uint64_t> lastTouch_;
    std::vector<std::uint8_t> protected_;
};

/**
 * Least frequently used: evict the valid way with the fewest hits
 * since fill, breaking frequency ties toward the least recently
 * touched line (plain LFU's pathological tie behaviour otherwise
 * dominates small associativities).
 */
class LfuPolicy final : public ScanPolicy
{
  public:
    std::uint32_t
    victimWay(std::uint64_t set, Addr) override
    {
        const std::uint32_t invalid = firstInvalidWay(set);
        if (invalid != kNoWay)
            return invalid;
        const auto base = static_cast<std::uint32_t>(set * assoc_);
        std::uint32_t best = base;
        for (std::uint32_t w = base + 1; w < base + assoc_; ++w)
            if (freq_[w] < freq_[best] ||
                (freq_[w] == freq_[best] &&
                 lastTouch_[w] < lastTouch_[best]))
                best = w;
        return best;
    }

    void
    onFill(std::uint64_t, std::uint32_t way, Addr) override
    {
        freq_[way] = 1;
        lastTouch_[way] = ++clock_;
    }

    void
    onHit(std::uint64_t, std::uint32_t way, Addr) override
    {
        ++freq_[way];
        lastTouch_[way] = ++clock_;
    }

    std::vector<std::uint64_t>
    exportWords() const override
    {
        std::vector<std::uint64_t> out{clock_};
        out.insert(out.end(), freq_.begin(), freq_.end());
        out.insert(out.end(), lastTouch_.begin(), lastTouch_.end());
        return out;
    }

    void
    importWords(std::span<const std::uint64_t> words) override
    {
        const std::size_t n = freq_.size();
        expectWords(words, 1 + 2 * n, "lfu");
        clock_ = words[0];
        std::copy_n(words.begin() + 1, n, freq_.begin());
        std::copy_n(words.begin() + 1 + n, n, lastTouch_.begin());
    }

  private:
    void
    resetState() override
    {
        freq_.assign(sets_ * assoc_, 0);
        lastTouch_.assign(sets_ * assoc_, 0);
    }

    std::vector<std::uint64_t> freq_;
    std::vector<std::uint64_t> lastTouch_;
};

/**
 * LFU with dynamic aging (Arlitt's LFUDA): each line carries a key
 * Ki = hits + L(fill), where the per-set age L rises to the evicted
 * key on every eviction, so long-dead once-hot lines cannot squat —
 * the classic fix for LFU's cache pollution under drifting workloads.
 */
class LfudaPolicy final : public ScanPolicy
{
  public:
    std::uint32_t
    victimWay(std::uint64_t set, Addr) override
    {
        const std::uint32_t invalid = firstInvalidWay(set);
        if (invalid != kNoWay)
            return invalid;
        const auto base = static_cast<std::uint32_t>(set * assoc_);
        std::uint32_t best = base;
        for (std::uint32_t w = base + 1; w < base + assoc_; ++w)
            if (key_[w] < key_[best] ||
                (key_[w] == key_[best] &&
                 lastTouch_[w] < lastTouch_[best]))
                best = w;
        return best;
    }

    void
    onFill(std::uint64_t set, std::uint32_t way, Addr) override
    {
        key_[way] = age_[set] + 1;
        lastTouch_[way] = ++clock_;
    }

    void
    onHit(std::uint64_t, std::uint32_t way, Addr) override
    {
        ++key_[way];
        lastTouch_[way] = ++clock_;
    }

    void
    onEvict(std::uint64_t set, std::uint32_t way, Addr,
            bool is_purge) override
    {
        if (!is_purge)
            age_[set] = key_[way];
    }

    std::vector<std::uint64_t>
    exportWords() const override
    {
        std::vector<std::uint64_t> out{clock_};
        out.insert(out.end(), age_.begin(), age_.end());
        out.insert(out.end(), key_.begin(), key_.end());
        out.insert(out.end(), lastTouch_.begin(), lastTouch_.end());
        return out;
    }

    void
    importWords(std::span<const std::uint64_t> words) override
    {
        const std::size_t n = key_.size();
        expectWords(words, 1 + sets_ + 2 * n, "lfuda");
        clock_ = words[0];
        std::copy_n(words.begin() + 1, sets_, age_.begin());
        std::copy_n(words.begin() + 1 + sets_, n, key_.begin());
        std::copy_n(words.begin() + 1 + sets_ + n, n,
                    lastTouch_.begin());
    }

  private:
    void
    resetState() override
    {
        age_.assign(sets_, 0);
        key_.assign(sets_ * assoc_, 0);
        lastTouch_.assign(sets_ * assoc_, 0);
    }

    std::vector<std::uint64_t> age_;
    std::vector<std::uint64_t> key_;
    std::vector<std::uint64_t> lastTouch_;
};

/**
 * 2Q (Johnson & Shasha).  New lines enter a FIFO probation queue
 * A1in (capacity `kin` × assoc, default 0.25); hits there do not
 * promote (correlated references), but a line whose address is found
 * in the ghost queue A1out (capacity `kout` × assoc of evicted
 * addresses, default 0.5) refills straight into the LRU main space
 * Am — only lines re-referenced *after* leaving probation earn main
 * residence.
 */
class TwoQPolicy final : public ScanPolicy
{
  public:
    explicit TwoQPolicy(const PolicySpec &spec)
        : kinFraction_(spec.param("kin", 0.25)),
          koutFraction_(spec.param("kout", 0.5))
    {}

    std::uint32_t
    victimWay(std::uint64_t set, Addr) override
    {
        const std::uint32_t invalid = firstInvalidWay(set);
        if (invalid != kNoWay)
            return invalid;

        const auto base = static_cast<std::uint32_t>(set * assoc_);
        std::uint32_t a1Count = 0;
        std::uint32_t oldestA1 = kNoWay;
        std::uint32_t coldestAm = kNoWay;
        for (std::uint32_t w = base; w < base + assoc_; ++w) {
            if (inA1_[w]) {
                ++a1Count;
                if (oldestA1 == kNoWay ||
                    fillStamp_[w] < fillStamp_[oldestA1])
                    oldestA1 = w;
            } else if (coldestAm == kNoWay ||
                       lastTouch_[w] < lastTouch_[coldestAm]) {
                coldestAm = w;
            }
        }
        if (a1Count >= kin_ && oldestA1 != kNoWay)
            return oldestA1;
        if (coldestAm != kNoWay)
            return coldestAm;
        return oldestA1;
    }

    void
    onFill(std::uint64_t set, std::uint32_t way, Addr line_addr) override
    {
        auto &ghosts = a1out_[set];
        const auto ghost =
            std::find(ghosts.begin(), ghosts.end(), line_addr);
        if (ghost != ghosts.end()) {
            ghosts.erase(ghost);
            inA1_[way] = 0; // straight into the main space
        } else {
            inA1_[way] = 1;
            fillStamp_[way] = clock_ + 1;
        }
        lastTouch_[way] = ++clock_;
    }

    void
    onHit(std::uint64_t, std::uint32_t way, Addr) override
    {
        // A1in hits are correlated references: no promotion, no
        // recency update.  Only main-space lines track recency.
        if (!inA1_[way])
            lastTouch_[way] = ++clock_;
    }

    void
    onEvict(std::uint64_t set, std::uint32_t way, Addr line_addr,
            bool is_purge) override
    {
        if (is_purge || !inA1_[way])
            return;
        auto &ghosts = a1out_[set];
        ghosts.push_back(line_addr);
        if (ghosts.size() > kout_)
            ghosts.pop_front();
    }

    std::vector<std::uint64_t>
    exportWords() const override
    {
        std::vector<std::uint64_t> out{clock_};
        out.insert(out.end(), fillStamp_.begin(), fillStamp_.end());
        out.insert(out.end(), lastTouch_.begin(), lastTouch_.end());
        packFlags(inA1_, out);
        for (const auto &ghosts : a1out_) {
            out.push_back(ghosts.size());
            out.insert(out.end(), ghosts.begin(), ghosts.end());
        }
        return out;
    }

    void
    importWords(std::span<const std::uint64_t> words) override
    {
        const std::size_t n = fillStamp_.size();
        const std::size_t fixed = 1 + 2 * n + (n + 63) / 64;
        if (words.size() < fixed)
            fatal("policy state import: 2q snapshot truncated");
        clock_ = words[0];
        std::copy_n(words.begin() + 1, n, fillStamp_.begin());
        std::copy_n(words.begin() + 1 + n, n, lastTouch_.begin());
        unpackFlags(words.subspan(1 + 2 * n), inA1_);
        std::size_t at = fixed;
        for (auto &ghosts : a1out_) {
            if (at >= words.size())
                fatal("policy state import: 2q ghost lists truncated");
            const std::uint64_t count = words[at++];
            if (count > kout_ || at + count > words.size())
                fatal("policy state import: 2q ghost list of ", count,
                      " entries is malformed");
            ghosts.assign(words.begin() + at, words.begin() + at + count);
            at += count;
        }
        if (at != words.size())
            fatal("policy state import: 2q snapshot has ",
                  words.size() - at, " trailing words");
    }

  private:
    void
    resetState() override
    {
        inA1_.assign(sets_ * assoc_, 0);
        fillStamp_.assign(sets_ * assoc_, 0);
        lastTouch_.assign(sets_ * assoc_, 0);
        a1out_.assign(sets_, {});
        kin_ = std::max<std::uint32_t>(
            1, static_cast<std::uint32_t>(
                   std::llround(kinFraction_ * assoc_)));
        kout_ = std::max<std::uint32_t>(
            1, static_cast<std::uint32_t>(
                   std::llround(koutFraction_ * assoc_)));
    }

    double kinFraction_;
    double koutFraction_;
    std::uint32_t kin_ = 1;
    std::uint32_t kout_ = 1;
    std::vector<std::uint8_t> inA1_;
    std::vector<std::uint64_t> fillStamp_;
    std::vector<std::uint64_t> lastTouch_;
    std::vector<std::deque<std::uint64_t>> a1out_;
};

/**
 * ARC (Megiddo & Modha), per set: resident lines split into
 * recency-hot T1 and frequency-hot T2, shadowed by ghost address
 * lists B1/B2; the adaptive target p steers capacity between them in
 * response to ghost hits.  Because victim choice and ghost/adaptation
 * bookkeeping straddle the host's evict-then-fill sequence — and an
 * admission filter may cancel the fill after the victim was chosen —
 * victimWay() only *computes* the decision; it is committed by
 * onFill(), and dropped wholesale when no fill follows.
 */
class ArcPolicy final : public ScanPolicy
{
  public:
    std::uint32_t
    victimWay(std::uint64_t set, Addr incoming) override
    {
        pending_ = Pending{};
        auto &b1 = b1_[set];
        auto &b2 = b2_[set];
        const auto b1Hit = std::find(b1.begin(), b1.end(), incoming);
        const auto b2Hit = std::find(b2.begin(), b2.end(), incoming);

        Pending p;
        p.active = true;
        p.set = set;
        p.incoming = incoming;
        p.newTarget = target_[set];
        if (b1Hit != b1.end()) {
            p.newTarget = std::min<double>(
                assoc_, p.newTarget +
                    std::max<double>(1.0, double(b2.size()) /
                                              double(b1.size())));
            p.removeFromB1 = true;
            p.fillToT2 = true;
        } else if (b2Hit != b2.end()) {
            p.newTarget = std::max<double>(
                0.0, p.newTarget -
                    std::max<double>(1.0, double(b1.size()) /
                                              double(b2.size())));
            p.removeFromB2 = true;
            p.fillToT2 = true;
        }

        const std::uint32_t invalid = firstInvalidWay(set);
        if (invalid != kNoWay) {
            // Free space: no eviction, no directory trimming.
            pending_ = p;
            return invalid;
        }

        const std::uint64_t t1 = countT1(set);
        bool evictFromT1;
        if (p.removeFromB1) {
            evictFromT1 = t1 >= 1 && double(t1) > p.newTarget;
        } else if (p.removeFromB2) {
            evictFromT1 = t1 >= 1 && double(t1) >= p.newTarget;
        } else {
            // Neither ghost knows the address: trim the directory the
            // way ARC's case IV does before REPLACE.
            const std::uint64_t l1 = t1 + b1.size();
            const std::uint64_t total = assoc_ + b1.size() + b2.size();
            if (l1 == assoc_) {
                if (t1 < assoc_)
                    p.popB1Front = true;
                else
                    p.suppressGhostPush = true; // B1 empty, T1 full
            } else if (total >= 2 * std::uint64_t{assoc_}) {
                p.popB2Front = true;
            }
            evictFromT1 =
                t1 == assoc_ || (t1 >= 1 && double(t1) > p.newTarget);
        }

        std::uint32_t victim = coldest(set, /*want_t1=*/evictFromT1);
        if (victim == kNoWay)
            victim = coldest(set, !evictFromT1);
        CACHELAB_ASSERT(victim != kNoWay, "arc: empty set ", set);
        p.evicting = true;
        p.victimAddr = host_.wayLineAddr(victim);
        p.victimWasT1 = inT1_[victim] != 0;
        pending_ = p;
        return victim;
    }

    void
    onFill(std::uint64_t set, std::uint32_t way, Addr line_addr) override
    {
        bool toT2 = false;
        if (pending_.active && pending_.set == set &&
            pending_.incoming == line_addr) {
            auto &b1 = b1_[set];
            auto &b2 = b2_[set];
            target_[set] = pending_.newTarget;
            if (pending_.removeFromB1)
                b1.erase(std::find(b1.begin(), b1.end(), line_addr));
            if (pending_.removeFromB2)
                b2.erase(std::find(b2.begin(), b2.end(), line_addr));
            if (pending_.popB1Front && !b1.empty())
                b1.pop_front();
            if (pending_.popB2Front && !b2.empty())
                b2.pop_front();
            if (pending_.evicting && !pending_.suppressGhostPush) {
                auto &ghosts = pending_.victimWasT1 ? b1 : b2;
                ghosts.push_back(pending_.victimAddr);
            }
            toT2 = pending_.fillToT2;
        }
        pending_ = Pending{};
        inT1_[way] = toT2 ? 0 : 1;
        lastTouch_[way] = ++clock_;
    }

    void
    onHit(std::uint64_t, std::uint32_t way, Addr) override
    {
        inT1_[way] = 0; // any re-reference moves the line to T2
        lastTouch_[way] = ++clock_;
    }

    std::vector<std::uint64_t>
    exportWords() const override
    {
        std::vector<std::uint64_t> out{clock_};
        for (double target : target_)
            out.push_back(std::bit_cast<std::uint64_t>(target));
        out.insert(out.end(), lastTouch_.begin(), lastTouch_.end());
        packFlags(inT1_, out);
        for (const auto *lists : {&b1_, &b2_})
            for (const auto &ghosts : *lists) {
                out.push_back(ghosts.size());
                out.insert(out.end(), ghosts.begin(), ghosts.end());
            }
        return out;
    }

    void
    importWords(std::span<const std::uint64_t> words) override
    {
        const std::size_t n = lastTouch_.size();
        const std::size_t fixed = 1 + sets_ + n + (n + 63) / 64;
        if (words.size() < fixed)
            fatal("policy state import: arc snapshot truncated");
        clock_ = words[0];
        for (std::uint64_t s = 0; s < sets_; ++s)
            target_[s] = std::bit_cast<double>(words[1 + s]);
        std::copy_n(words.begin() + 1 + sets_, n, lastTouch_.begin());
        unpackFlags(words.subspan(1 + sets_ + n), inT1_);
        std::size_t at = fixed;
        for (auto *lists : {&b1_, &b2_})
            for (auto &ghosts : *lists) {
                if (at >= words.size())
                    fatal("policy state import: arc ghosts truncated");
                const std::uint64_t count = words[at++];
                if (count > 2 * std::uint64_t{assoc_} ||
                    at + count > words.size())
                    fatal("policy state import: arc ghost list of ",
                          count, " entries is malformed");
                ghosts.assign(words.begin() + at,
                              words.begin() + at + count);
                at += count;
            }
        if (at != words.size())
            fatal("policy state import: arc snapshot has ",
                  words.size() - at, " trailing words");
        pending_ = Pending{};
    }

  private:
    struct Pending
    {
        bool active = false;
        bool removeFromB1 = false;
        bool removeFromB2 = false;
        bool popB1Front = false;
        bool popB2Front = false;
        bool suppressGhostPush = false;
        bool fillToT2 = false;
        bool evicting = false;
        bool victimWasT1 = false;
        std::uint64_t set = 0;
        Addr incoming = 0;
        Addr victimAddr = 0;
        double newTarget = 0.0;
    };

    void
    resetState() override
    {
        inT1_.assign(sets_ * assoc_, 0);
        lastTouch_.assign(sets_ * assoc_, 0);
        target_.assign(sets_, 0.0);
        b1_.assign(sets_, {});
        b2_.assign(sets_, {});
        pending_ = Pending{};
    }

    std::uint64_t
    countT1(std::uint64_t set) const
    {
        const auto base = static_cast<std::uint32_t>(set * assoc_);
        std::uint64_t count = 0;
        for (std::uint32_t w = base; w < base + assoc_; ++w)
            if (host_.wayValid(w) && inT1_[w])
                ++count;
        return count;
    }

    /** LRU way of T1 (want_t1) or T2 within @p set, or kNoWay. */
    std::uint32_t
    coldest(std::uint64_t set, bool want_t1) const
    {
        const auto base = static_cast<std::uint32_t>(set * assoc_);
        std::uint32_t best = kNoWay;
        for (std::uint32_t w = base; w < base + assoc_; ++w) {
            if (!host_.wayValid(w) ||
                static_cast<bool>(inT1_[w]) != want_t1)
                continue;
            if (best == kNoWay || lastTouch_[w] < lastTouch_[best])
                best = w;
        }
        return best;
    }

    std::vector<std::uint8_t> inT1_;
    std::vector<std::uint64_t> lastTouch_;
    std::vector<double> target_;
    std::vector<std::deque<std::uint64_t>> b1_;
    std::vector<std::deque<std::uint64_t>> b2_;
    Pending pending_;
};

// ------------------------------------------------------------------
// TinyLFU admission.
// ------------------------------------------------------------------

/** splitmix64 finalizer: the sketch's per-row hash mixer. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * TinyLFU-style frequency-sketch admission (Einziger et al.): a
 * 4-row count-min sketch of 8-bit counters estimates every line's
 * recent popularity; a candidate only displaces a valid victim when
 * the sketch ranks it strictly more popular.  All counters are halved
 * each time a sample window of accesses completes, aging the
 * popularity estimate toward the recent past.
 *
 * Parameters: `counters` (row width, rounded up to a power of two,
 * default 4096) and `window` (accesses per aging cycle, default
 * 10 × row width).
 */
class TinyLfuAdmission final : public AdmissionPolicy
{
  public:
    explicit TinyLfuAdmission(const PolicySpec &spec)
    {
        width_ = std::bit_ceil(static_cast<std::uint64_t>(
            spec.param("counters", 4096.0)));
        window_ = static_cast<std::uint64_t>(
            spec.param("window", static_cast<double>(10 * width_)));
        counters_.assign(4 * width_, 0);
        for (std::size_t row = 0; row < 4; ++row)
            lastSlots_[row] = slot(row, lastLine_);
    }

    void
    onAccess(Addr line_addr) override
    {
        lastLine_ = line_addr;
        for (std::size_t row = 0; row < 4; ++row) {
            lastSlots_[row] = slot(row, line_addr);
            std::uint8_t &counter = counters_[lastSlots_[row]];
            if (counter < 255)
                ++counter;
        }
        if (++samples_ >= window_) {
            for (std::uint8_t &counter : counters_)
                counter = static_cast<std::uint8_t>(counter >> 1);
            samples_ /= 2;
        }
    }

    bool
    admit(Addr line_addr, Addr victim_addr, bool victim_valid) override
    {
        if (victim_valid &&
            incomingEstimate(line_addr) <= estimate(victim_addr)) {
            ++rejected_;
            return false;
        }
        ++admitted_;
        return true;
    }

    void
    reset() override
    {
        std::fill(counters_.begin(), counters_.end(), std::uint8_t{0});
        samples_ = 0;
        admitted_ = 0;
        rejected_ = 0;
    }

    std::vector<std::uint64_t>
    exportWords() const override
    {
        std::vector<std::uint64_t> out{samples_, admitted_, rejected_};
        for (std::size_t i = 0; i < counters_.size(); i += 8) {
            std::uint64_t word = 0;
            for (std::size_t b = 0; b < 8; ++b)
                word |= std::uint64_t{counters_[i + b]} << (8 * b);
            out.push_back(word);
        }
        return out;
    }

    void
    importWords(std::span<const std::uint64_t> words) override
    {
        if (words.size() != 3 + counters_.size() / 8)
            fatal("policy state import: tinylfu expects ",
                  3 + counters_.size() / 8, " state words, snapshot has ",
                  words.size());
        samples_ = words[0];
        admitted_ = words[1];
        rejected_ = words[2];
        for (std::size_t i = 0; i < counters_.size(); ++i)
            counters_[i] = static_cast<std::uint8_t>(
                words[3 + i / 8] >> (8 * (i % 8)));
    }

    /** Sketch popularity estimate (min over rows); test hook. */
    std::uint32_t
    estimate(Addr line_addr) const
    {
        std::uint32_t low = 255;
        for (std::size_t row = 0; row < 4; ++row)
            low = std::min<std::uint32_t>(low,
                                          counters_[slot(row, line_addr)]);
        return low;
    }

  private:
    std::size_t
    slot(std::size_t row, Addr line_addr) const
    {
        const std::uint64_t h =
            mix64(line_addr + 0x517cc1b727220a95ULL * (row + 1));
        return row * width_ + (h & (width_ - 1));
    }

    /**
     * estimate() of the line admit() is asked about.  The cache calls
     * onAccess() for a missing line just before it asks, so the slots
     * kept there are usually this line's.  A slot depends only on the
     * line and the width, so the kept slots stay right through aging,
     * reset() and importWords().
     */
    std::uint32_t
    incomingEstimate(Addr line_addr) const
    {
        if (line_addr != lastLine_)
            return estimate(line_addr);
        std::uint32_t low = 255;
        for (std::size_t s : lastSlots_)
            low = std::min<std::uint32_t>(low, counters_[s]);
        return low;
    }

    std::uint64_t width_ = 0;
    std::uint64_t window_ = 0;
    std::uint64_t samples_ = 0;
    std::vector<std::uint8_t> counters_;
    Addr lastLine_ = 0;                      ///< last onAccess() line
    std::array<std::size_t, 4> lastSlots_{}; ///< its slot in each row
};

} // namespace

std::unique_ptr<ReplacementPolicy>
makeReplacementPolicy(const PolicySpec &spec)
{
    if (auto error = checkReplacementPolicy(spec))
        fatal(*error);
    if (spec.name == "lru")
        return std::make_unique<LruPolicy>();
    if (spec.name == "fifo")
        return std::make_unique<FifoPolicy>();
    if (spec.name == "random")
        return std::make_unique<RandomPolicy>();
    if (spec.name == "slru")
        return std::make_unique<SlruPolicy>(spec);
    if (spec.name == "lfu")
        return std::make_unique<LfuPolicy>();
    if (spec.name == "lfuda")
        return std::make_unique<LfudaPolicy>();
    if (spec.name == "2q")
        return std::make_unique<TwoQPolicy>(spec);
    if (spec.name == "arc")
        return std::make_unique<ArcPolicy>();
    panic("validated replacement policy \"", spec.name,
          "\" has no factory entry");
}

std::unique_ptr<AdmissionPolicy>
makeAdmissionPolicy(const PolicySpec &spec)
{
    if (spec.empty())
        return nullptr;
    if (auto error = checkAdmissionPolicy(spec))
        fatal(*error);
    if (spec.name == "tinylfu")
        return std::make_unique<TinyLfuAdmission>(spec);
    panic("validated admission policy \"", spec.name,
          "\" has no factory entry");
}

} // namespace cachelab
