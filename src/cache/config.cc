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

void
CacheConfig::validate() const
{
    if (!isPowerOfTwo(sizeBytes))
        fatal("cache size ", sizeBytes, " is not a power of two");
    if (!isPowerOfTwo(lineBytes))
        fatal("line size ", lineBytes, " is not a power of two");
    if (lineBytes > sizeBytes)
        fatal("line size ", lineBytes, " exceeds cache size ", sizeBytes);
    if (lineCount() > kMaxLines)
        fatal("line count ", lineCount(), " exceeds the limit of ",
              kMaxLines, " lines");
    const std::uint64_t assoc = effectiveAssociativity();
    if (!isPowerOfTwo(assoc))
        fatal("associativity ", assoc, " is not a power of two");
    if (assoc > lineCount())
        fatal("associativity ", assoc, " exceeds line count ", lineCount());
    if (auto error = checkReplacementPolicy(replacement))
        fatal(*error);
    if (auto error = checkAdmissionPolicy(admission))
        fatal(*error);
    if (writePolicy == WritePolicy::WriteThrough &&
        writeMiss == WriteMissPolicy::FetchOnWrite) {
        // Legal combination (write-through with allocation); nothing to
        // reject — documented here so readers know it is intentional.
    }
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
