#include "trace/metrics_sampler.hh"

#include <cassert>

#include "sim/json.hh"

namespace mcube
{

MetricsSampler::MetricsSampler(MulticubeSystem &sys, Tick period,
                               std::ostream &os)
    : sys(sys), period(period), os(os)
{
    assert(period > 0);
    lastRowBusy.resize(sys.n(), 0);
    lastColBusy.resize(sys.n(), 0);
}

void
MetricsSampler::start()
{
    if (observer)
        return;
    lastTick = sys.eventQueue().now();
    for (unsigned i = 0; i < sys.n(); ++i) {
        lastRowBusy[i] = sys.rowBus(i).busyTicks();
        lastColBusy[i] = sys.colBus(i).busyTicks();
    }
    observer = sys.eventQueue().observe(period, [this] { sampleNow(); });
}

void
MetricsSampler::stop()
{
    if (!observer)
        return;
    observer.reset();
    // Flush the final partial interval: a run whose length is not a
    // multiple of the period would otherwise silently drop its tail
    // (and a run shorter than one period would produce no samples at
    // all). Skip only when the last sample already covers "now".
    if (sys.eventQueue().now() > lastTick || samples == 0)
        sampleNow();
}

void
MetricsSampler::sampleNow()
{
    const unsigned n = sys.n();
    Tick now = sys.eventQueue().now();
    Tick interval = now > lastTick ? now - lastTick : 1;

    double row_util = 0.0, col_util = 0.0;
    Json mlt = Json::array(), row_queue = Json::array(),
         col_queue = Json::array();
    for (unsigned i = 0; i < n; ++i) {
        Tick rb = sys.rowBus(i).busyTicks();
        Tick cb = sys.colBus(i).busyTicks();
        row_util += static_cast<double>(rb - lastRowBusy[i]);
        col_util += static_cast<double>(cb - lastColBusy[i]);
        lastRowBusy[i] = rb;
        lastColBusy[i] = cb;
        mlt.push(
            static_cast<std::uint64_t>(sys.node(0, i).table().size()));
        row_queue.push(
            static_cast<std::uint64_t>(sys.rowBus(i).pendingOps()));
        col_queue.push(
            static_cast<std::uint64_t>(sys.colBus(i).pendingOps()));
    }
    row_util /= static_cast<double>(interval) * n;
    col_util /= static_cast<double>(interval) * n;

    FlatStats flat;
    sys.statistics().flatten(flat);
    Json stats = Json::object();
    for (const auto &[name, value] : flat)
        stats.append(name, value);

    Json line = Json::object();
    line.append("tick", now);
    line.append("interval_ticks", interval);
    line.append("row_util", row_util);
    line.append("col_util", col_util);
    line.append("outstanding", sys.outstandingTransactions());
    line.append("mlt_occupancy", std::move(mlt));
    line.append("row_queue", std::move(row_queue));
    line.append("col_queue", std::move(col_queue));
    line.append("stats", std::move(stats));
    // Compact and round-trippable (%.17g, non-finite as null): a
    // counter past 10^6 keeps its low digits.
    os << line.dump(-1) << "\n";
    lastTick = now;
    ++samples;
}

} // namespace mcube
