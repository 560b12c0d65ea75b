/**
 * @file
 * Parallel execution of independent simulation points.
 *
 * The paper's data figures sweep (configuration x request rate) grids;
 * every point is one single-threaded, deterministic MulticubeSystem
 * run that shares nothing with any other point. SweepRunner fans such
 * points across a worker pool while keeping the *results* bit-exact
 * regardless of worker count or completion order:
 *
 *  - each point is addressed by its index in the sweep, and results
 *    land in an index-addressed vector, so completion order never
 *    shows;
 *  - per-point seeds are derived purely from (base seed, point index)
 *    via pointSeed(), so a point's RNG streams do not depend on which
 *    worker ran it or on how many workers exist.
 *
 * The simulator core stays single-threaded: nothing in src/ shares
 * mutable state between two running systems (the Log sink is
 * mutex-guarded, tracer and profiler activation is per thread, and a
 * metrics sampler belongs to one system). A sweep at --jobs 1
 * executes points inline on the calling thread, which keeps debugging
 * and tracing simple.
 */

#ifndef MCUBE_SIM_SWEEP_RUNNER_HH
#define MCUBE_SIM_SWEEP_RUNNER_HH

#include <cstdint>
#include <functional>
#include <vector>

namespace mcube::sweep
{

/**
 * Derive the seed of point @p index of a sweep with base seed
 * @p baseSeed. Pure (same inputs, same output) and well-mixed
 * (splitmix64 finalizer), so neighbouring indices get statistically
 * independent streams and results cannot depend on job count.
 */
std::uint64_t pointSeed(std::uint64_t baseSeed, std::uint64_t index);

/** Resolve a jobs request: 0 means "all hardware threads". */
unsigned resolveJobs(unsigned requested);

/** A blocking fan-out executor for independent sweep points. */
class SweepRunner
{
  public:
    /** @param jobs Worker count; 0 = hardware concurrency. */
    explicit SweepRunner(unsigned jobs = 0);

    unsigned jobs() const { return _jobs; }

    /**
     * Run @p body(i) for every i in [0, count). Blocks until all
     * points finish. Points are claimed dynamically, so stragglers
     * don't serialize the tail; @p body must not share mutable state
     * across indices. The first exception thrown by any point is
     * rethrown here after all workers stop.
     */
    void forEach(std::size_t count,
                 const std::function<void(std::size_t)> &body) const;

    /**
     * Compute @p body(i) for every index and return the results in
     * index order — identical output for any job count.
     */
    template <typename R>
    std::vector<R>
    map(std::size_t count,
        const std::function<R(std::size_t)> &body) const
    {
        std::vector<R> out(count);
        forEach(count, [&](std::size_t i) { out[i] = body(i); });
        return out;
    }

  private:
    unsigned _jobs;
};

} // namespace mcube::sweep

#endif // MCUBE_SIM_SWEEP_RUNNER_HH
