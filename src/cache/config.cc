/**
 * @file
 * Cache configuration validation and description.
 */

#include "cache/config.hh"

#include "util/bits.hh"
#include "util/format.hh"
#include "util/logging.hh"

namespace cachelab
{

std::string
toString(WritePolicy policy)
{
    switch (policy) {
      case WritePolicy::CopyBack:
        return "copy-back";
      case WritePolicy::WriteThrough:
        return "write-through";
    }
    return "?";
}

std::string
toString(WriteMissPolicy policy)
{
    switch (policy) {
      case WriteMissPolicy::FetchOnWrite:
        return "fetch-on-write";
      case WriteMissPolicy::NoAllocate:
        return "no-allocate";
    }
    return "?";
}

std::string
toString(FetchPolicy policy)
{
    switch (policy) {
      case FetchPolicy::Demand:
        return "demand";
      case FetchPolicy::PrefetchAlways:
        return "prefetch-always";
    }
    return "?";
}

std::uint64_t
CacheConfig::effectiveAssociativity() const
{
    return associativity == 0 ? lineCount() : associativity;
}

std::uint64_t
CacheConfig::setCount() const
{
    return lineCount() / effectiveAssociativity();
}

std::optional<std::string>
CacheConfig::check() const
{
    if (!isPowerOfTwo(sizeBytes))
        return "cache size " + std::to_string(sizeBytes) +
               " is not a power of two";
    if (!isPowerOfTwo(lineBytes))
        return "line size " + std::to_string(lineBytes) +
               " is not a power of two";
    if (lineBytes > sizeBytes)
        return "line size " + std::to_string(lineBytes) +
               " exceeds cache size " + std::to_string(sizeBytes);
    if (lineCount() > kMaxLines)
        return "line count " + std::to_string(lineCount()) +
               " exceeds the limit of " + std::to_string(kMaxLines) +
               " lines";
    const std::uint64_t assoc = effectiveAssociativity();
    if (!isPowerOfTwo(assoc))
        return "associativity " + std::to_string(assoc) +
               " is not a power of two";
    if (assoc > lineCount())
        return "associativity " + std::to_string(assoc) +
               " exceeds line count " + std::to_string(lineCount());
    if (auto error = checkReplacementPolicy(replacement))
        return error;
    return checkAdmissionPolicy(admission);
}

void
CacheConfig::validate() const
{
    if (auto error = check())
        fatal(*error);
}

std::string
CacheConfig::describe() const
{
    std::string assoc = associativity == 0
        ? "full"
        : std::to_string(associativity) + "-way";
    std::string policy = replacement.display();
    if (!admission.empty())
        policy += "+" + admission.toString();
    return formatSize(sizeBytes) + "/" + formatSize(lineBytes) + "B/" +
        assoc + "/" + policy + "/" + toString(writePolicy) + "/" +
        toString(fetchPolicy);
}

} // namespace cachelab
