/**
 * @file
 * Implementation of the run registry.
 */

#include "serve/run_registry.hh"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "serve/spec.hh"
#include "util/format.hh"
#include "util/hash.hh"
#include "util/json_reader.hh"
#include "util/json_writer.hh"

namespace cachelab::serve
{

namespace
{

std::uint64_t
fnv1aString(std::uint64_t hash, std::string_view s)
{
    hash = fnv1aU64(hash, s.size());
    return fnv1a(hash, s.data(), s.size());
}

/** Write @p body to @p path via tmp + rename (atomic for readers). */
bool
writeFileAtomic(const std::string &path, const std::string &body,
                std::string *error)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        os << body;
        if (!os) {
            if (error != nullptr)
                *error = "cannot write " + tmp;
            return false;
        }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        if (error != nullptr)
            *error = "cannot rename " + tmp + ": " + ec.message();
        return false;
    }
    return true;
}

} // namespace

std::uint64_t
specIdentityHash(const ExperimentSpec &spec)
{
    std::uint64_t h = kFnvOffset;
    h = fnv1aString(h, spec.input.cacheKey());
    h = fnv1aU64(h, spec.base.lineBytes);
    h = fnv1aU64(h, spec.base.associativity);
    h = fnv1aString(h, spec.base.replacement.toString());
    h = fnv1aString(h, spec.base.admission.toString());
    h = fnv1aU64(h, static_cast<std::uint64_t>(spec.base.writePolicy));
    h = fnv1aU64(h, static_cast<std::uint64_t>(spec.base.writeMiss));
    h = fnv1aU64(h, static_cast<std::uint64_t>(spec.base.fetchPolicy));
    h = fnv1aU64(h, spec.base.randomSeed);
    h = fnv1aU64(h, spec.sizes.size());
    for (const std::uint64_t size : spec.sizes)
        h = fnv1aU64(h, size);
    h = fnv1aU64(h, spec.purgeInterval);
    h = fnv1aU64(h, spec.warmupRefs);
    h = fnv1aString(h, spec.timing.enabled() ? spec.timing.describe()
                                             : std::string());
    return h;
}

RunRegistry::RunRegistry(std::string dir, std::size_t maxRuns,
                         std::string *error)
    : dir_(std::move(dir)), maxRuns_(maxRuns == 0 ? 1 : maxRuns)
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        if (error != nullptr)
            *error = "cannot create registry dir " + dir_ + ": " +
                     ec.message();
        return;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    loadExistingLocked(error);
}

std::string
RunRegistry::runPath(std::uint64_t seq) const
{
    return dir_ + "/run-" + std::to_string(seq) + ".json";
}

void
RunRegistry::loadExistingLocked(std::string *error)
{
    const std::string index_path = dir_ + "/index.json";
    std::ifstream is(index_path, std::ios::binary);
    if (!is)
        return; // fresh registry
    std::ostringstream buffer;
    buffer << is.rdbuf();
    std::string parse_error;
    const std::optional<JsonValue> doc =
        parseJson(buffer.str(), &parse_error);
    if (!doc || !doc->isObject() || doc->find("runs") == nullptr ||
        !doc->at("runs").isArray()) {
        if (error != nullptr)
            *error = "ignoring malformed registry index " + index_path +
                     (parse_error.empty() ? "" : ": " + parse_error);
        return;
    }
    for (const JsonValue &entry : doc->at("runs").items()) {
        if (!entry.isObject())
            continue;
        RunRecord record;
        const auto uintOr = [&entry](std::string_view key) {
            const JsonValue *v = entry.find(key);
            return v != nullptr && v->isUint() ? v->asUint()
                                               : std::uint64_t{0};
        };
        const auto stringOr = [&entry](std::string_view key) {
            const JsonValue *v = entry.find(key);
            return v != nullptr && v->isString() ? v->asString()
                                                 : std::string();
        };
        record.seq = uintOr("seq");
        record.requestId = uintOr("request_id");
        record.tenant = stringOr("tenant");
        record.input = stringOr("input");
        record.inputKind = stringOr("input_kind");
        const std::string hash = stringOr("spec_hash");
        record.specHash =
            hash.empty() ? 0 : std::strtoull(hash.c_str(), nullptr, 16);
        record.outcome = stringOr("outcome");
        record.refs = uintOr("refs");
        const JsonValue *hit = entry.find("cache_hit");
        record.cacheHit = hit != nullptr && hit->isBool() && hit->asBool();
        record.queueWaitNs = uintOr("queue_wait_ns");
        record.execNs = uintOr("exec_ns");
        record.e2eNs = uintOr("e2e_ns");
        const JsonValue *ms = entry.find("unix_ms");
        record.unixMs = ms != nullptr && ms->isInt() ? ms->asInt() : 0;
        records_.push_back(std::move(record));
        if (records_.back().seq >= nextSeq_)
            nextSeq_ = records_.back().seq + 1;
    }
}

bool
RunRegistry::append(RunRecord record, std::string_view manifestJson,
                    std::string *error)
{
    std::lock_guard<std::mutex> lock(mutex_);
    record.seq = nextSeq_++;
    if (!manifestJson.empty()) {
        std::string body(manifestJson);
        if (body.empty() || body.back() != '\n')
            body += '\n';
        if (!writeFileAtomic(runPath(record.seq), body, error))
            return false;
    }
    records_.push_back(std::move(record));
    while (records_.size() > maxRuns_) {
        std::error_code ec;
        std::filesystem::remove(runPath(records_.front().seq), ec);
        records_.pop_front();
    }
    return rewriteIndexLocked(error);
}

bool
RunRegistry::rewriteIndexLocked(std::string *error)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.member("schema", std::string(kSchema));
    w.member("schema_version", kSchemaVersion);
    w.member("max_runs", static_cast<std::uint64_t>(maxRuns_));
    w.key("runs").beginArray();
    for (const RunRecord &record : records_) {
        w.beginObject();
        w.member("seq", record.seq);
        w.member("request_id", record.requestId);
        w.member("tenant", record.tenant);
        w.member("input", record.input);
        w.member("input_kind", record.inputKind);
        w.member("spec_hash", formatHex64(record.specHash));
        w.member("outcome", record.outcome);
        w.member("refs", record.refs);
        w.member("cache_hit", record.cacheHit);
        w.member("queue_wait_ns", record.queueWaitNs);
        w.member("exec_ns", record.execNs);
        w.member("e2e_ns", record.e2eNs);
        w.member("unix_ms", record.unixMs);
        if (record.outcome == "ok")
            w.member("manifest", "run-" + std::to_string(record.seq) +
                                     ".json");
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
    return writeFileAtomic(dir_ + "/index.json", os.str(), error);
}

std::size_t
RunRegistry::runCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return records_.size();
}

} // namespace cachelab::serve
