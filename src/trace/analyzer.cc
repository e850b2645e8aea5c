/**
 * @file
 * Implementation of trace characterization.
 */

#include "trace/analyzer.hh"

#include "util/bits.hh"
#include "util/logging.hh"

namespace cachelab
{

TraceAnalyzer::TraceAnalyzer(const AnalyzerConfig &config) : config_(config)
{
    CACHELAB_ASSERT(isPowerOfTwo(config_.lineBytes),
                    "line size must be a power of two");
}

void
TraceAnalyzer::closeRun(Addr end_addr)
{
    if (runLen_ == 0)
        return;
    runBytesSum_ += static_cast<double>(end_addr - runStart_);
    ++runCount_;
    runLen_ = 0;
}

void
TraceAnalyzer::feed(std::span<const MemoryRef> refs)
{
    out_.refCount += refs.size();
    for (const MemoryRef &ref : refs) {
        const bool treatAsIfetch =
            ref.kind == AccessKind::IFetch ||
            (config_.mergedFetch && ref.kind == AccessKind::Read);
        switch (ref.kind) {
          case AccessKind::IFetch:
            ++ifetches_;
            break;
          case AccessKind::Read:
            ++reads_;
            break;
          case AccessKind::Write:
            ++writes_;
            break;
        }

        const Addr line = alignDown(ref.addr, config_.lineBytes);
        if (treatAsIfetch)
            ilines_.insert(line);
        else
            dlines_.insert(line);

        if (ref.kind != AccessKind::IFetch)
            continue;

        if (havePrevIfetch_) {
            const bool taken = ref.addr < prevIfetch_ ||
                ref.addr > prevIfetch_ + config_.branchWindowBytes;
            if (taken) {
                ++branches_;
                closeRun(prevIfetch_ + ref.size);
                runStart_ = ref.addr;
            }
        } else {
            runStart_ = ref.addr;
        }
        ++runLen_;
        prevIfetch_ = ref.addr;
        havePrevIfetch_ = true;
    }
}

TraceCharacteristics
TraceAnalyzer::finish()
{
    closeRun(prevIfetch_);
    if (out_.refCount == 0)
        return out_;

    const auto total = static_cast<double>(out_.refCount);
    out_.ifetchFraction = static_cast<double>(ifetches_) / total;
    out_.readFraction = static_cast<double>(reads_) / total;
    out_.writeFraction = static_cast<double>(writes_) / total;
    out_.ilines = ilines_.size();
    out_.dlines = dlines_.size();
    out_.aspaceBytes = static_cast<std::uint64_t>(config_.lineBytes) *
        (out_.ilines + out_.dlines);
    out_.branchFraction = ifetches_
        ? static_cast<double>(branches_) / static_cast<double>(ifetches_)
        : 0.0;
    out_.meanSequentialRunBytes =
        runCount_ ? runBytesSum_ / static_cast<double>(runCount_) : 0.0;
    return out_;
}

TraceCharacteristics
analyzeTrace(const Trace &trace, const AnalyzerConfig &config)
{
    TraceAnalyzer analyzer(config);
    analyzer.feed(trace.refs());
    return analyzer.finish();
}

TraceCharacteristics
analyzeTrace(TraceSource &source, const AnalyzerConfig &config)
{
    TraceAnalyzer analyzer(config);
    source.forEachBatch(
        [&](std::span<const MemoryRef> batch) { analyzer.feed(batch); });
    return analyzer.finish();
}

} // namespace cachelab
