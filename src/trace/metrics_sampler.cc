#include "trace/metrics_sampler.hh"

#include <cassert>
#include <map>
#include <string>

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
    EventQueue &eq = sys.eventQueue();
    const unsigned n = sys.n();
    Tick now = eq.now();
    Tick interval = now > lastTick ? now - lastTick : 1;

    double row_util = 0.0, col_util = 0.0;
    os << "{\"tick\":" << now << ",\"interval_ticks\":" << interval;
    for (unsigned i = 0; i < n; ++i) {
        Tick rb = sys.rowBus(i).busyTicks();
        Tick cb = sys.colBus(i).busyTicks();
        row_util += static_cast<double>(rb - lastRowBusy[i]);
        col_util += static_cast<double>(cb - lastColBusy[i]);
        lastRowBusy[i] = rb;
        lastColBusy[i] = cb;
    }
    row_util /= static_cast<double>(interval) * n;
    col_util /= static_cast<double>(interval) * n;
    os << ",\"row_util\":" << row_util << ",\"col_util\":" << col_util;

    os << ",\"outstanding\":" << sys.outstandingTransactions();

    os << ",\"mlt_occupancy\":[";
    for (unsigned c = 0; c < n; ++c)
        os << (c ? "," : "") << sys.node(0, c).table().size();
    os << "]";

    os << ",\"row_queue\":[";
    for (unsigned i = 0; i < n; ++i)
        os << (i ? "," : "") << sys.rowBus(i).pendingOps();
    os << "],\"col_queue\":[";
    for (unsigned i = 0; i < n; ++i)
        os << (i ? "," : "") << sys.colBus(i).pendingOps();
    os << "]";

    // The tree shape is fixed after construction, so the entries
    // arrive in a stable order and no per-sample map is needed.
    FlatStats flat;
    sys.statistics().flatten(flat);
    os << ",\"stats\":{";
    const char *sep = "";
    for (const auto &[name, value] : flat) {
        os << sep << "\"" << name << "\":" << value;
        sep = ",";
    }
    os << "}}\n";
    lastTick = now;
    ++samples;
}

} // namespace mcube
