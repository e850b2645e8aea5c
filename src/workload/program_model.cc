/**
 * @file
 * Implementation of the synthetic program-behavior model.
 */

#include "workload/program_model.hh"

#include <algorithm>
#include <cmath>

#include "trace/transforms.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace cachelab
{

namespace
{

/** Fixed virtual-memory layout for generated programs.  The data and
 *  stack bases carry line-aligned but otherwise arbitrary offsets so
 *  the three regions do not all alias to cache set 0 the way fully
 *  aligned segment bases would. */
constexpr Addr kCodeBase = 0x0001'0000;
constexpr Addr kDataBase = 0x0040'15c0;
constexpr Addr kStackBase = 0x07f0'3a70;

/** Loop starts are placed on these boundaries within the code region. */
constexpr std::uint64_t kCodeBlockBytes = 64;

/** Maximum call-stack nesting depth. */
constexpr std::size_t kMaxCallDepth = 16;

/** Recency-pool capacities (sites retained for temporal reuse). */
constexpr std::size_t kLoopPoolCap = 192;
constexpr std::size_t kRecordPoolCap = 256;
constexpr std::size_t kArrayPoolCap = 48;

/**
 * Scatter a Zipf-ranked placement index across the region.  The
 * placement samplers favor low indices; without scattering, hot sites
 * would cluster at the bottom of each region and alias into the same
 * cache sets, exaggerating conflict misses in set-associative
 * configurations.  A fixed odd multiplier (Knuth's 2^32 golden ratio)
 * permutes indices while keeping the mapping deterministic.
 */
std::uint64_t
scatterIndex(std::uint64_t index, std::uint64_t count)
{
    return (index * 2654435761ULL) % count;
}

} // namespace

void
WorkloadParams::validate() const
{
    if (refCount == 0)
        fatal("workload refCount must be positive");
    if (codeBytes < 2 * kCodeBlockBytes)
        fatal("code region too small: ", codeBytes);
    if (dataBytes < 256)
        fatal("data region too small: ", dataBytes);
    auto checkFrac = [](double v, const char *what) {
        if (v < 0.0 || v > 1.0)
            fatal(what, " must lie in [0,1], got ", v);
    };
    checkFrac(readShareOfData, "readShareOfData");
    checkFrac(callFraction, "callFraction");
    checkFrac(seqScanFraction, "seqScanFraction");
    checkFrac(stackFraction, "stackFraction");
    checkFrac(newSiteProb, "newSiteProb");
    if (writeSpread <= 0.0 || writeSpread > 1.0)
        fatal("writeSpread must lie in (0,1], got ", writeSpread);
    if (codeNewSiteProb >= 0.0)
        checkFrac(codeNewSiteProb, "codeNewSiteProb");
    if (stackFraction + seqScanFraction > 1.0)
        fatal("stackFraction + seqScanFraction exceed 1");
    if (ifetchFraction >= 0.0)
        checkFrac(ifetchFraction, "ifetchFraction");
    if (branchFraction >= 0.0)
        checkFrac(branchFraction, "branchFraction");
    if (meanLoopIterations < 1.0)
        fatal("meanLoopIterations must be >= 1");
    if (!isPowerOfTwo(recordBytes) || recordBytes < 16)
        fatal("recordBytes must be a power of two >= 16");
    if (recordBytes > dataBytes)
        fatal("recordBytes exceeds the data region");
}

double
WorkloadParams::resolvedIfetchFraction() const
{
    return ifetchFraction >= 0.0 ? ifetchFraction
                                 : archProfile(machine).ifetchFraction;
}

double
WorkloadParams::resolvedBranchFraction() const
{
    return branchFraction >= 0.0 ? branchFraction
                                 : archProfile(machine).branchFraction;
}

double
WorkloadParams::resolvedCodeNewSiteProb() const
{
    return codeNewSiteProb >= 0.0 ? codeNewSiteProb : newSiteProb;
}

ProgramModel::ProgramModel(const WorkloadParams &params)
    : params_(params),
      arch_(archProfile(params.machine)),
      interface_(arch_.interface),
      rng_(params.seed),
      codeBase_(kCodeBase),
      codeBlocks_(std::max<std::uint64_t>(params.codeBytes / kCodeBlockBytes,
                                          2)),
      codePlacement_(codeBlocks_, params.codeTheta),
      loopPool_(kLoopPoolCap, params.codeReuseTheta),
      dataBase_(kDataBase),
      dataLines_(std::max<std::uint64_t>(params.dataBytes / 16, 4)),
      dataPlacement_(dataLines_, params.dataTheta),
      recordPool_(kRecordPoolCap, params.dataReuseTheta),
      arrayPool_(kArrayPoolCap, params.dataReuseTheta),
      stackBase_(kStackBase),
      stackPtr_(kStackBase)
{
    params_.validate();
    // Initial bytes-per-taken-branch estimate: one branch per
    // (1 / branchFraction) ifetch references, each covering roughly
    // one interface granule.  The online controller refines this.
    const double bf = std::max(params_.resolvedBranchFraction(), 0.005);
    meanBodyBytes_ = static_cast<double>(arch_.interface.instrGranuleBytes) /
        bf;
    meanBodyBytes_ = std::clamp(meanBodyBytes_, 6.0, 1024.0);
    nextLoop();
}

std::uint64_t
ProgramModel::sampleBodyBytes()
{
    // Keep bodies longer than the analyzer's 8-byte branch window plus
    // the fetch granule: a loop whose back edge jumps fewer than 8
    // bytes is invisible to the branch heuristic, which would let the
    // controller chase unreachable targets.
    const std::uint64_t min_body = std::max<std::uint64_t>(
        2 * arch_.minInstrBytes, arch_.interface.instrGranuleBytes + 2);
    return std::clamp<std::uint64_t>(rng_.geometric(meanBodyBytes_), min_body,
                                     1024);
}

void
ProgramModel::activateLoop(const LoopSite &site)
{
    loop_.start = site.start;
    loop_.bodyBytes = site.bodyBytes;
    loop_.itersLeft = std::clamp<std::uint64_t>(
        rng_.geometric(params_.meanLoopIterations), 0, 100000);
    loop_.pc = site.start;
    interface_.reset();
}

void
ProgramModel::nextLoop()
{
    LoopSite *site =
        loopPool_.sample(rng_, params_.resolvedCodeNewSiteProb());
    if (site == nullptr) {
        LoopSite fresh;
        const std::uint64_t block =
            scatterIndex(codePlacement_(rng_), codeBlocks_);
        fresh.start = codeBase_ + block * kCodeBlockBytes;
        fresh.bodyBytes = sampleBodyBytes();
        const Addr code_end = codeBase_ + params_.codeBytes;
        if (fresh.start + fresh.bodyBytes > code_end)
            fresh.start = code_end - fresh.bodyBytes;
        site = &loopPool_.insert(fresh);
    } else if (rng_.bernoulli(0.5)) {
        // Re-derive the body length on half the revisits so the branch
        // controller's adjustments propagate into reused sites.
        const std::uint64_t body = sampleBodyBytes();
        const Addr code_end = codeBase_ + params_.codeBytes;
        if (site->start + body > code_end)
            site->start = code_end - body;
        site->bodyBytes = body;
    }
    activateLoop(*site);
}

std::uint32_t
ProgramModel::sampleInstrLength()
{
    const std::uint32_t step = arch_.minInstrBytes >= 2 ? 2 : 1;
    const double spread =
        std::max(arch_.meanInstrBytes - arch_.minInstrBytes, 0.0);
    auto len = static_cast<std::uint32_t>(
        arch_.minInstrBytes + rng_.geometric(spread));
    len = std::min(len, arch_.maxInstrBytes);
    // Round to the instruction-length granularity of the encoding.
    len = std::max<std::uint32_t>((len / step) * step, step);
    return len;
}

void
ProgramModel::adaptBodyLength()
{
    // Windowed proportional controller: every window, compare the
    // branch fraction seen *in that window* to the target and nudge
    // the mean body length.  Shorter bodies mean more taken branches.
    constexpr std::uint64_t kWindow = 4096;
    if (windowIfetchRefs_ < kWindow)
        return;
    const double target = std::max(params_.resolvedBranchFraction(), 0.005);
    const double measured = static_cast<double>(windowBranches_) /
        static_cast<double>(windowIfetchRefs_);
    windowIfetchRefs_ = 0;
    windowBranches_ = 0;
    if (measured <= 0.0) {
        meanBodyBytes_ = std::clamp(meanBodyBytes_ * 0.7, 6.0, 1024.0);
        return;
    }
    const double factor = std::clamp(measured / target, 0.70, 1.40);
    meanBodyBytes_ = std::clamp(meanBodyBytes_ * factor, 6.0, 1024.0);
}

void
ProgramModel::stepInstruction(Trace &out)
{
    if (loop_.pc >= loop_.start + loop_.bodyBytes) {
        // Reached the end of the loop body.
        if (loop_.itersLeft > 0) {
            --loop_.itersLeft;
            if (callStack_.size() < kMaxCallDepth &&
                rng_.bernoulli(params_.callFraction)) {
                // Nest: call out of the loop, return later.
                callStack_.push_back(loop_);
                nextLoop();
            } else {
                loop_.pc = loop_.start; // back edge
                interface_.reset();
            }
        } else if (!callStack_.empty()) {
            loop_ = callStack_.back(); // return to the caller's loop top
            callStack_.pop_back();
            loop_.pc = loop_.start;
            interface_.reset();
        } else {
            nextLoop();
        }
    }

    const std::uint32_t len = sampleInstrLength();
    const std::size_t before = out.size();
    interface_.fetchInstruction(loop_.pc, len, out);
    // Count emitted refs and analyzer-visible taken branches.
    for (std::size_t i = before; i < out.size(); ++i) {
        const Addr addr = out[i].addr;
        if (haveLastIfetch_ &&
            (addr < lastIfetch_ || addr > lastIfetch_ + 8))
            ++windowBranches_;
        lastIfetch_ = addr;
        haveLastIfetch_ = true;
        ++ifetchRefs_;
        ++windowIfetchRefs_;
    }
    loop_.pc += len;
    adaptBodyLength();
}

void
ProgramModel::stepData(Trace &out)
{
    // Greedy write-share control: fallen behind the target -> write.
    const double write_share = 1.0 - params_.readShareOfData;
    const bool write = static_cast<double>(writeRefs_) <
        write_share * static_cast<double>(dataRefs_);
    const AccessKind kind = write ? AccessKind::Write : AccessKind::Read;

    const std::uint32_t word = arch_.wordBytes;
    double u = rng_.uniformReal();
    // Stores concentrate: redirect a write headed for the record or
    // array engines onto the stack with probability (1 - writeSpread).
    if (kind == AccessKind::Write && u >= params_.stackFraction &&
        rng_.bernoulli(1.0 - params_.writeSpread)) {
        u = 0.0;
    }
    Addr addr = 0;

    if (u < params_.stackFraction) {
        // Stack engine: random walk near the stack pointer.
        const Addr depth = std::clamp<Addr>(params_.dataBytes / 8, 256, 8192);
        if (rng_.bernoulli(0.5)) {
            if (stackPtr_ + word < stackBase_ + depth)
                stackPtr_ += word;
        } else if (stackPtr_ > stackBase_) {
            stackPtr_ -= word;
        }
        addr = stackPtr_;
    } else if (u < params_.stackFraction + params_.seqScanFraction) {
        // Sequential scans over a pool of arrays.  Re-scanning a
        // recently used array is the common case (temporal reuse);
        // fresh arrays model streaming over new data.
        if (streamPos_ >= streamEnd_) {
            ArraySite *site = arrayPool_.sample(rng_, params_.newSiteProb);
            if (site == nullptr) {
                ArraySite fresh;
                const std::uint64_t max_len =
                    std::min<std::uint64_t>(16384, params_.dataBytes);
                fresh.base = dataBase_ +
                    scatterIndex(dataPlacement_(rng_), dataLines_) * 16;
                fresh.lenBytes = std::clamp<std::uint64_t>(
                    rng_.geometric(params_.meanArrayBytes), 64, max_len);
                if (fresh.base + fresh.lenBytes >
                    dataBase_ + params_.dataBytes) {
                    fresh.base = dataBase_ + params_.dataBytes -
                        fresh.lenBytes;
                }
                site = &arrayPool_.insert(fresh);
            }
            streamPos_ = site->base;
            streamEnd_ = site->base + site->lenBytes;
        }
        addr = streamPos_;
        streamPos_ += word;
    } else {
        // Record engine: dwell on one small record, then move to
        // another — usually a recently used one.
        if (recordLeft_ == 0) {
            RecordSite *site = recordPool_.sample(rng_, params_.newSiteProb);
            if (site == nullptr) {
                RecordSite fresh;
                const Addr line =
                    scatterIndex(dataPlacement_(rng_), dataLines_) * 16;
                fresh.base = dataBase_ + alignDown(line, params_.recordBytes);
                if (fresh.base + params_.recordBytes >
                    dataBase_ + params_.dataBytes) {
                    fresh.base = dataBase_ + params_.dataBytes -
                        params_.recordBytes;
                }
                site = &recordPool_.insert(fresh);
            }
            curRecord_ = site->base;
            recordLeft_ = rng_.geometric(params_.meanRecordAccesses) + 1;
        }
        const std::uint64_t slots = params_.recordBytes / word;
        addr = curRecord_ + rng_.uniformInt(slots) * word;
        --recordLeft_;
    }

    const std::size_t before = out.size();
    interface_.dataAccess(addr, word, kind, out);
    const std::uint64_t emitted = out.size() - before;
    dataRefs_ += emitted;
    if (kind == AccessKind::Write)
        writeRefs_ += emitted;
}

void
ProgramModel::stepMacro(Trace &out, std::uint64_t size_cap)
{
    const double data_target = 1.0 - params_.resolvedIfetchFraction();
    stepInstruction(out);
    // Issue data accesses until the running mix meets the target.
    while (out.size() < size_cap) {
        const auto total = static_cast<double>(ifetchRefs_ + dataRefs_);
        if (static_cast<double>(dataRefs_) >= data_target * total)
            break;
        stepData(out);
    }
}

Trace
ProgramModel::generate(std::string name)
{
    Trace out(std::move(name));
    out.reserve(params_.refCount + 8);

    while (out.size() < params_.refCount)
        stepMacro(out, params_.refCount);

    if (out.size() > params_.refCount)
        return truncate(out, params_.refCount);
    return out;
}

Trace
generateWorkload(const WorkloadParams &params, std::string name)
{
    ProgramModel model(params);
    return model.generate(std::move(name));
}

WorkloadSource::WorkloadSource(const WorkloadParams &params,
                               std::string name)
    : params_(params), name_(std::move(name)), model_(params_)
{}

std::size_t
WorkloadSource::nextBatch(std::span<MemoryRef> out)
{
    std::size_t n = 0;
    while (n < out.size() && generated_ < params_.refCount) {
        if (pendingPos_ == pending_.size()) {
            // Refill: one macro step, capped to the remaining budget
            // exactly as generate()'s outer loop would be at this
            // point in the stream (it may overshoot by a transaction;
            // the delivery cap below is the truncate()).
            pending_.clear();
            pendingPos_ = 0;
            model_->stepMacro(pending_, params_.refCount - generated_);
        }
        const std::size_t take = static_cast<std::size_t>(
            std::min<std::uint64_t>(
                {out.size() - n, pending_.size() - pendingPos_,
                 params_.refCount - generated_}));
        std::copy_n(pending_.refs().begin() +
                        static_cast<std::ptrdiff_t>(pendingPos_),
                    take, out.begin() + static_cast<std::ptrdiff_t>(n));
        pendingPos_ += take;
        generated_ += take;
        n += take;
    }
    return n;
}

void
WorkloadSource::reset()
{
    model_.emplace(params_);
    pending_.clear();
    pendingPos_ = 0;
    generated_ = 0;
}

} // namespace cachelab
