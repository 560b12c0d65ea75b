/**
 * @file
 * Interval snapshots of the statistics tree, as JSONL time series.
 *
 * End-of-run stats answer "how much"; they cannot show how bus
 * utilisation evolves under a fault campaign, when the MLTs fill up,
 * or how many transactions are in flight while a recovery chain
 * unwinds. The MetricsSampler wakes every N ticks and appends one
 * JSON object per line to a stream:
 *
 *   {"tick":200000, "interval_ticks":100000,
 *    "row_util":0.41, "col_util":0.33,         <- this interval only
 *    "outstanding":7,                          <- busy controllers
 *    "mlt_occupancy":[3,1,0,2],                <- entries per column
 *    "row_queue":[0,2,0,0], "col_queue":[1,0,0,0],
 *    "stats":{ ...flattened cumulative tree... }}
 *
 * Interval utilisation is computed from busy-tick deltas, so the
 * series shows load as it happens rather than a long-run average.
 * Numbers are written exactly (Json::dump: integers in full, doubles
 * at %.17g), so a sample of a counter equals the counter.
 *
 * The sampler is a periodic observer of the system's event queue
 * (EventQueue::observe), not a timer event: it never changes the
 * run's schedule, works the same under the sequential and the
 * parallel engine (where it samples at window ends, so "tick" is the
 * window's start), and leaves drain() unaffected.
 */

#ifndef MCUBE_TRACE_METRICS_SAMPLER_HH
#define MCUBE_TRACE_METRICS_SAMPLER_HH

#include <cstdint>
#include <ostream>
#include <vector>

#include "core/system.hh"
#include "sim/types.hh"

namespace mcube
{

/** Periodic JSONL snapshot writer for one MulticubeSystem. */
class MetricsSampler
{
  public:
    /**
     * @param sys System to observe.
     * @param period Ticks between samples (must be > 0).
     * @param os Sink; one JSON object per line.
     */
    MetricsSampler(MulticubeSystem &sys, Tick period, std::ostream &os);

    MetricsSampler(const MetricsSampler &) = delete;
    MetricsSampler &operator=(const MetricsSampler &) = delete;

    /** Sample every period from now on. */
    void start();

    /** Take no further samples. Emits one final sample first if
     *  simulated time has advanced past the last one, so the tail of
     *  a run — or a run shorter than one period — is never silently
     *  dropped. */
    void stop();

    /** Take one sample immediately (also what the observer calls). */
    void sampleNow();

    std::uint64_t samplesTaken() const { return samples; }

  private:
    MulticubeSystem &sys;
    Tick period;
    std::ostream &os;
    EventQueue::ObserverHandle observer;

    std::uint64_t samples = 0;
    std::vector<Tick> lastRowBusy;
    std::vector<Tick> lastColBusy;
    Tick lastTick = 0;
};

} // namespace mcube

#endif // MCUBE_TRACE_METRICS_SAMPLER_HH
