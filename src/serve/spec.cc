/**
 * @file
 * Implementation of experiment-spec parsing and validation.
 */

#include "serve/spec.hh"

#include <cctype>
#include <fstream>
#include <sstream>

#include "trace/io.hh"
#include "workload/profiles.hh"

namespace cachelab::serve
{

namespace
{

bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** @return @p what prefixed with the quoted member name @p key. */
std::string
memberError(std::string_view key, std::string_view what)
{
    std::string out = "\"";
    out += key;
    out += "\" ";
    out += what;
    return out;
}

/** Fetch an optional non-negative integer member into @p out. */
std::optional<std::string>
readUint(const JsonValue &obj, std::string_view key, std::uint64_t &out)
{
    const JsonValue *v = obj.find(key);
    if (v == nullptr)
        return std::nullopt;
    if (!v->isUint())
        return memberError(key, "must be a non-negative integer");
    out = v->asUint();
    return std::nullopt;
}

/** Fetch an optional double member into @p out. */
std::optional<std::string>
readDouble(const JsonValue &obj, std::string_view key, double &out)
{
    const JsonValue *v = obj.find(key);
    if (v == nullptr)
        return std::nullopt;
    if (!v->isNumber())
        return memberError(key, "must be a number");
    out = v->asDouble();
    return std::nullopt;
}

/** Fetch an optional string member into @p out. */
std::optional<std::string>
readString(const JsonValue &obj, std::string_view key, std::string &out)
{
    const JsonValue *v = obj.find(key);
    if (v == nullptr)
        return std::nullopt;
    if (!v->isString())
        return memberError(key, "must be a string");
    out = v->asString();
    return std::nullopt;
}

std::string
lowerCopy(std::string_view s)
{
    std::string out(s);
    for (char &c : out)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return out;
}

/**
 * Read a policy member (@p key = "replacement" or "admission"):
 * either the shared `name:key=value,...` string or the structured
 * `{"name": ..., "params": {...}}` object form.  Both run through the
 * same cache/policy validation, so the error carries the valid-name
 * list.  Absent members leave @p out untouched.
 */
std::optional<std::string>
parsePolicyMember(const JsonValue &doc, std::string_view key,
                  bool is_admission, PolicySpec &out)
{
    const JsonValue *v = doc.find(key);
    if (v == nullptr)
        return std::nullopt;
    if (v->isString()) {
        const std::string &text = v->asString();
        if (text.empty() && !is_admission) {
            out = policySpec("lru"); // legacy: "" picked the default
            return std::nullopt;
        }
        return is_admission ? parseAdmissionPolicy(text, out)
                            : parseReplacementPolicy(text, out);
    }
    if (!v->isObject())
        return memberError(key, "must be a policy string or a "
                                "{\"name\", \"params\"} object");
    PolicySpec spec;
    spec.name.clear();
    if (auto err = readString(*v, "name", spec.name))
        return err;
    spec.name = lowerCopy(spec.name);
    if (is_admission && spec.name == "none")
        spec.name.clear();
    if (const JsonValue *params = v->find("params")) {
        if (!params->isObject())
            return memberError(key, "\"params\" must be an object");
        for (const auto &[pkey, pvalue] : params->members()) {
            if (!pvalue.isNumber())
                return memberError(key, "parameter \"" + pkey +
                                            "\" must be a number");
            spec.params.emplace_back(lowerCopy(pkey),
                                     pvalue.asDouble());
        }
    }
    if (auto err = is_admission ? checkAdmissionPolicy(spec)
                                : checkReplacementPolicy(spec))
        return err;
    out = std::move(spec);
    return std::nullopt;
}

/** Parse the optional "timing" object (AMAT model parameters). */
std::optional<std::string>
parseTimingSpec(const JsonValue &doc, TimingConfig &out)
{
    if (!doc.isObject())
        return "\"timing\" must be an object";
    TimingConfig timing;
    timing.configured = true;
    for (const auto &[key, value] : doc.members()) {
        if (!value.isNumber())
            return "timing parameter \"" + key + "\" must be a number";
        const double parsed = value.asDouble();
        if (parsed < 0)
            return "timing parameter \"" + key +
                   "\" must be non-negative";
        if (key == "hit_cycles")
            timing.hitCycles = parsed;
        else if (key == "memory_cycles")
            timing.memoryCycles = parsed;
        else if (key == "width_bytes")
            timing.widthBytes = parsed;
        else
            return "unknown timing parameter \"" + key +
                   "\" (valid: hit_cycles, memory_cycles, width_bytes)";
    }
    out = timing;
    return std::nullopt;
}

std::optional<std::string>
parseInputSpec(const JsonValue &doc, InputSpec &out)
{
    if (!doc.isObject())
        return "\"input\" must be an object";
    std::string kind = "profile";
    if (auto err = readString(doc, "kind", kind))
        return err;
    if (kind == "file")
        out.kind = InputSpec::Kind::File;
    else if (kind == "profile")
        out.kind = InputSpec::Kind::Profile;
    else if (kind == "kv")
        out.kind = InputSpec::Kind::Kv;
    else
        return "unknown input kind \"" + kind +
               "\" (expected file, profile, or kv)";

    if (auto err = readString(doc, "name", out.name))
        return err;
    if (auto err = readUint(doc, "refs", out.refs))
        return err;

    switch (out.kind) {
      case InputSpec::Kind::File:
        if (out.name.empty())
            return "file input requires \"name\" (a trace path)";
        break;
      case InputSpec::Kind::Profile: {
        if (out.name.empty())
            return "profile input requires \"name\"";
        if (findTraceProfile(out.name) == nullptr)
            return "unknown trace profile \"" + out.name + "\"";
        break;
      }
      case InputSpec::Kind::Kv: {
        KvWorkloadParams &kv = out.kv;
        if (out.refs != 0)
            kv.refCount = out.refs;
        std::uint64_t u = 0;
        if (auto err = readUint(doc, "key_count", kv.keyCount))
            return err;
        u = kv.objectBytes;
        if (auto err = readUint(doc, "object_bytes", u))
            return err;
        kv.objectBytes = static_cast<std::uint32_t>(u);
        u = kv.refBytes;
        if (auto err = readUint(doc, "ref_bytes", u))
            return err;
        kv.refBytes = static_cast<std::uint32_t>(u);
        if (auto err = readDouble(doc, "zipf_theta", kv.zipfTheta))
            return err;
        if (auto err = readDouble(doc, "read_ratio", kv.readRatio))
            return err;
        if (auto err = readDouble(doc, "scan_fraction", kv.scanFraction))
            return err;
        if (auto err = readDouble(doc, "mean_scan_objects",
                                  kv.meanScanObjects))
            return err;
        if (auto err = readUint(doc, "drift_refs", kv.driftRefs))
            return err;
        if (auto err = readUint(doc, "seed", kv.seed))
            return err;
        if (auto err = kv.check())
            return err;
        out.refs = kv.refCount;
        break;
      }
    }
    return std::nullopt;
}

std::optional<std::string>
parseCacheSpec(const JsonValue &doc, CacheConfig &out)
{
    if (!doc.isObject())
        return "\"cache\" must be an object";
    std::uint64_t u = out.lineBytes;
    if (auto err = readUint(doc, "line_bytes", u))
        return err;
    out.lineBytes = static_cast<std::uint32_t>(u);
    u = out.associativity;
    if (auto err = readUint(doc, "associativity", u))
        return err;
    out.associativity = static_cast<std::uint32_t>(u);
    if (auto err = readUint(doc, "random_seed", out.randomSeed))
        return err;

    if (auto err =
            parsePolicyMember(doc, "replacement", false, out.replacement))
        return err;
    if (auto err =
            parsePolicyMember(doc, "admission", true, out.admission))
        return err;

    std::string s;
    if (auto err = readString(doc, "write_policy", s))
        return err;
    if (s == "copy-back" || s.empty())
        out.writePolicy = WritePolicy::CopyBack;
    else if (s == "write-through")
        out.writePolicy = WritePolicy::WriteThrough;
    else
        return "unknown write_policy \"" + s + "\"";

    s.clear();
    if (auto err = readString(doc, "write_miss", s))
        return err;
    if (s == "fetch-on-write" || s.empty())
        out.writeMiss = WriteMissPolicy::FetchOnWrite;
    else if (s == "no-allocate")
        out.writeMiss = WriteMissPolicy::NoAllocate;
    else
        return "unknown write_miss \"" + s + "\"";

    s.clear();
    if (auto err = readString(doc, "fetch", s))
        return err;
    if (s == "demand" || s.empty())
        out.fetchPolicy = FetchPolicy::Demand;
    else if (s == "prefetch-always")
        out.fetchPolicy = FetchPolicy::PrefetchAlways;
    else
        return "unknown fetch \"" + s + "\"";

    return std::nullopt;
}

std::optional<std::string>
parseSizes(const JsonValue &doc, std::vector<std::uint64_t> &out)
{
    if (doc.isArray()) {
        for (const JsonValue &v : doc.items()) {
            if (!v.isUint())
                return "\"sizes\" entries must be non-negative integers";
            out.push_back(v.asUint());
        }
    } else if (doc.isObject()) {
        std::uint64_t lo = 0, hi = 0;
        if (auto err = readUint(doc, "lo", lo))
            return err;
        if (auto err = readUint(doc, "hi", hi))
            return err;
        if (!isPowerOfTwo(lo) || !isPowerOfTwo(hi) || lo > hi)
            return "\"sizes\" range needs power-of-two lo <= hi";
        for (std::uint64_t s = lo; s <= hi; s <<= 1)
            out.push_back(s);
    } else {
        return "\"sizes\" must be an array or a {lo, hi} range";
    }
    if (out.empty())
        return "\"sizes\" must not be empty";
    return std::nullopt;
}

} // namespace

std::string
InputSpec::displayName() const
{
    switch (kind) {
      case Kind::File:
      case Kind::Profile:
        return name;
      case Kind::Kv:
        return name.empty() ? std::string("kv") : "kv:" + name;
    }
    return "?";
}

std::string
InputSpec::cacheKey() const
{
    std::ostringstream key;
    switch (kind) {
      case Kind::File:
        key << "file:" << name << ":" << refs;
        break;
      case Kind::Profile:
        key << "profile:" << name << ":" << refs;
        break;
      case Kind::Kv:
        // Every generator knob is identity: two KV inputs produce the
        // same stream iff all parameters (including seed) match.
        key << "kv:" << kv.refCount << ":" << kv.keyCount << ":"
            << kv.objectBytes << ":" << kv.refBytes << ":" << kv.zipfTheta
            << ":" << kv.readRatio << ":" << kv.scanFraction << ":"
            << kv.meanScanObjects << ":" << kv.driftRefs << ":"
            << kv.baseAddr << ":" << kv.seed;
        break;
    }
    return key.str();
}

std::uint64_t
InputSpec::knownRefs() const
{
    switch (kind) {
      case Kind::File:
        return 0;
      case Kind::Profile:
        if (refs != 0)
            return refs;
        if (const TraceProfile *p = findTraceProfile(name))
            return p->params.refCount;
        return 0;
      case Kind::Kv:
        return kv.refCount;
    }
    return 0;
}

std::unique_ptr<TraceSource>
InputSpec::open(std::string *error) const
{
    switch (kind) {
      case Kind::File: {
        // Existence is the recoverable failure mode; a trace that goes
        // corrupt mid-stream is the operator's own file and still
        // fatal()s (the socket is same-user local, DESIGN.md §4h).
        std::ifstream probe(name, std::ios::binary);
        if (!probe) {
            if (error != nullptr)
                *error = "cannot open trace file \"" + name + "\"";
            return nullptr;
        }
        probe.close();
        auto source = openTraceSource(name);
        if (refs != 0)
            return std::make_unique<LimitSource>(std::move(source), refs);
        return source;
      }
      case Kind::Profile: {
        const TraceProfile *profile = findTraceProfile(name);
        if (profile == nullptr) {
            if (error != nullptr)
                *error = "unknown trace profile \"" + name + "\"";
            return nullptr;
        }
        if (refs != 0 && refs != profile->params.refCount)
            return streamTraceExactly(*profile, refs);
        return streamTrace(*profile);
      }
      case Kind::Kv: {
        if (auto err = kv.check()) {
            if (error != nullptr)
                *error = *err;
            return nullptr;
        }
        return std::make_unique<KvWorkloadSource>(kv, displayName());
      }
    }
    if (error != nullptr)
        *error = "bad input kind";
    return nullptr;
}

std::optional<std::string>
parseExperimentSpec(const JsonValue &doc, ExperimentSpec &out)
{
    if (!doc.isObject())
        return "spec must be a JSON object";
    if (auto err = readString(doc, "id", out.id))
        return err;

    const JsonValue *input = doc.find("input");
    if (input == nullptr)
        return "spec requires an \"input\" object";
    if (auto err = parseInputSpec(*input, out.input))
        return err;

    if (const JsonValue *cache = doc.find("cache"))
        if (auto err = parseCacheSpec(*cache, out.base))
            return err;

    const JsonValue *sizes = doc.find("sizes");
    if (sizes == nullptr)
        return "spec requires \"sizes\"";
    if (auto err = parseSizes(*sizes, out.sizes))
        return err;

    if (auto err = readUint(doc, "purge_interval", out.purgeInterval))
        return err;
    if (auto err = readUint(doc, "warmup_refs", out.warmupRefs))
        return err;

    if (const JsonValue *timing = doc.find("timing"))
        if (auto err = parseTimingSpec(*timing, out.timing))
            return err;

    // Every point of the size axis must be a valid configuration.
    for (std::uint64_t size : out.sizes) {
        CacheConfig point = out.base;
        point.sizeBytes = size;
        if (auto err = point.check())
            return err;
    }

    // Warm-up rule, checked up front so the drivers' fatal() variant
    // can never trigger inside the server: the run must keep at least
    // one measured reference, which requires a knowable input length.
    if (out.warmupRefs != 0) {
        const std::uint64_t known = out.input.knownRefs();
        if (known == 0)
            return "warmup_refs requires an input of known length "
                   "(a profile or kv input, not a file)";
        if (out.warmupRefs >= known)
            return "warmup_refs " + std::to_string(out.warmupRefs) +
                   " must be < input refs " + std::to_string(known);
    }
    return std::nullopt;
}

std::optional<std::string>
parseExperimentSpec(std::string_view text, ExperimentSpec &out)
{
    JsonParseError err;
    std::optional<JsonValue> doc = parseJson(text, &err);
    if (!doc)
        return "spec is not valid JSON: " + err.describe();
    return parseExperimentSpec(*doc, out);
}

} // namespace cachelab::serve
