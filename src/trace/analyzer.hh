/**
 * @file
 * Trace characterization — reproduces the columns of Table 2.
 *
 * For a trace, computes: reference-kind mix, number of distinct
 * instruction lines (#Ilines) and data lines (#Dlines) at a given
 * line size, total address-space footprint (A-space = line size *
 * (#Ilines + #Dlines)), and the apparent successful-branch fraction.
 *
 * The branch heuristic is the paper's: compare successive instruction
 * fetch addresses; "if the second one is either less than the first or
 * is more than 8 bytes greater, then the first is counted as a branch"
 * (section 3.2).
 */

#ifndef CACHELAB_TRACE_ANALYZER_HH
#define CACHELAB_TRACE_ANALYZER_HH

#include <cstdint>
#include <span>
#include <unordered_set>

#include "trace/source.hh"
#include "trace/trace.hh"

namespace cachelab
{

/** Options controlling trace characterization. */
struct AnalyzerConfig
{
    /** Line size used for footprint accounting (paper: 16 bytes). */
    std::uint32_t lineBytes = 16;

    /**
     * Forward distance (bytes) beyond which consecutive ifetches are
     * counted as a taken branch (paper: 8 bytes).
     */
    std::uint32_t branchWindowBytes = 8;

    /**
     * When true, reads are merged with instruction fetches, as in the
     * hardware-monitored M68000 traces which "only differentiate
     * between fetches (reads and ifetches) and writes".
     */
    bool mergedFetch = false;
};

/** The Table 2 row for one trace. */
struct TraceCharacteristics
{
    std::uint64_t refCount = 0;     ///< trace length used
    double ifetchFraction = 0.0;    ///< fraction of refs: instruction fetch
    double readFraction = 0.0;      ///< fraction of refs: data read
    double writeFraction = 0.0;     ///< fraction of refs: data write
    std::uint64_t ilines = 0;       ///< distinct instruction lines touched
    std::uint64_t dlines = 0;       ///< distinct data lines touched
    std::uint64_t aspaceBytes = 0;  ///< lineBytes * (ilines + dlines)
    double branchFraction = 0.0;    ///< taken branches / instruction fetches
    /** Mean bytes covered by one sequential instruction run. */
    double meanSequentialRunBytes = 0.0;
};

/**
 * Incremental trace characterization: feed() spans in order, then
 * finish() once.  Produces bit-identical results to analyzing the
 * concatenated spans in one pass, so streaming consumers (TraceSource
 * batches) and materialized traces share one implementation.
 *
 * Footprint state (the distinct-line sets) grows with the trace's
 * address-space size, not its length.
 */
class TraceAnalyzer
{
  public:
    explicit TraceAnalyzer(const AnalyzerConfig &config = {});

    /** Account a batch of references (call in stream order). */
    void feed(std::span<const MemoryRef> refs);

    /** Close the final run and compute the summary row. */
    TraceCharacteristics finish();

  private:
    void closeRun(Addr end_addr);

    AnalyzerConfig config_;
    TraceCharacteristics out_;
    std::unordered_set<Addr> ilines_;
    std::unordered_set<Addr> dlines_;
    std::uint64_t ifetches_ = 0;
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
    std::uint64_t branches_ = 0;
    bool havePrevIfetch_ = false;
    Addr prevIfetch_ = 0;
    Addr runStart_ = 0;
    std::uint64_t runLen_ = 0;
    double runBytesSum_ = 0.0;
    std::uint64_t runCount_ = 0;
};

/** Characterize @p trace under @p config. */
TraceCharacteristics analyzeTrace(const Trace &trace,
                                  const AnalyzerConfig &config = {});

/** Characterize a streamed @p source under @p config (one pass,
 *  O(batch + footprint) memory). */
TraceCharacteristics analyzeTrace(TraceSource &source,
                                  const AnalyzerConfig &config = {});

} // namespace cachelab

#endif // CACHELAB_TRACE_ANALYZER_HH
