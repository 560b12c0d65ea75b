/** @file
 * Unit and end-to-end tests for the transaction tracer: ring-buffer
 * semantics, export well-formedness, lifecycle reconstruction on a
 * real protocol run, fault events, and the interval metrics sampler.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/checker.hh"
#include "core/system.hh"
#include "fault/fault_injector.hh"
#include "proc/mix_workload.hh"
#include "sim/json.hh"
#include "trace/metrics_sampler.hh"
#include "trace/trace_event.hh"

using namespace mcube;

namespace
{

TraceEvent
ev(Tick tick, TracePhase phase, std::uint64_t seq)
{
    TraceEvent e;
    e.tick = tick;
    e.phase = phase;
    e.origin = 0;
    e.reqSeq = seq;
    return e;
}

/** Events with the given origin, chronological. */
std::vector<TraceEvent>
eventsFor(const TransactionTracer &tr, NodeId origin)
{
    std::vector<TraceEvent> out;
    for (std::size_t i = 0; i < tr.size(); ++i)
        if (tr.at(i).origin == origin)
            out.push_back(tr.at(i));
    return out;
}

bool
hasPhase(const std::vector<TraceEvent> &evs, TracePhase p)
{
    return std::any_of(evs.begin(), evs.end(), [&](const TraceEvent &e) {
        return e.phase == p;
    });
}

} // namespace

TEST(TransactionTracer, DisabledByDefault)
{
    EXPECT_EQ(TransactionTracer::active(), nullptr);
    // The macro's event expression must not be evaluated when no
    // tracer is active.
    int evals = 0;
    auto touch = [&] {
        ++evals;
        return TraceEvent{};
    };
    MCUBE_TRACE(touch());
    EXPECT_EQ(evals, 0);
}

TEST(TransactionTracer, ActivateDeactivate)
{
    TransactionTracer tr(8);
    EXPECT_EQ(TransactionTracer::active(), nullptr);
    tr.activate();
    EXPECT_EQ(TransactionTracer::active(), &tr);
    MCUBE_TRACE(ev(1, TracePhase::Issue, 1));
    EXPECT_EQ(tr.size(), 1u);
    tr.deactivate();
    EXPECT_EQ(TransactionTracer::active(), nullptr);
    MCUBE_TRACE(ev(2, TracePhase::Complete, 1));
    EXPECT_EQ(tr.size(), 1u);
}

TEST(TransactionTracer, DestructorDetaches)
{
    {
        TransactionTracer tr(8);
        tr.activate();
        EXPECT_EQ(TransactionTracer::active(), &tr);
    }
    EXPECT_EQ(TransactionTracer::active(), nullptr);
}

TEST(TransactionTracer, RingWraparoundKeepsNewest)
{
    TransactionTracer tr(4);
    for (std::uint64_t i = 1; i <= 10; ++i)
        tr.record(ev(i, TracePhase::Issue, i));

    EXPECT_EQ(tr.capacity(), 4u);
    EXPECT_EQ(tr.size(), 4u);
    EXPECT_EQ(tr.recorded(), 10u);
    EXPECT_EQ(tr.overwritten(), 6u);
    // Oldest retained is event 7; order is chronological.
    for (std::size_t i = 0; i < tr.size(); ++i) {
        EXPECT_EQ(tr.at(i).tick, 7u + i);
        EXPECT_EQ(tr.at(i).reqSeq, 7u + i);
    }

    tr.clear();
    EXPECT_EQ(tr.size(), 0u);
    EXPECT_EQ(tr.overwritten(), 0u);
}

TEST(TransactionTracer, PartialFillKeepsInsertionOrder)
{
    TransactionTracer tr(16);
    for (std::uint64_t i = 1; i <= 5; ++i)
        tr.record(ev(i * 10, TracePhase::BusGrant, i));
    EXPECT_EQ(tr.size(), 5u);
    EXPECT_EQ(tr.overwritten(), 0u);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(tr.at(i).tick, (i + 1) * 10);
}

TEST(TransactionTracer, ChromeJsonIsBalanced)
{
    TransactionTracer tr(64);
    tr.record(ev(100, TracePhase::Issue, 1));
    tr.record(ev(250, TracePhase::BusGrant, 1));
    tr.record(ev(900, TracePhase::Complete, 1));

    std::ostringstream os;
    tr.exportChromeJson(os);
    const std::string s = os.str();

    EXPECT_EQ(s.front(), '{');
    EXPECT_NE(s.find("\"traceEvents\""), std::string::npos);
    // One metadata naming event, three instants, and a derived
    // duration slice for the completed (origin, reqSeq) pair.
    EXPECT_NE(s.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(s.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(s.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_EQ(std::count(s.begin(), s.end(), '{'),
              std::count(s.begin(), s.end(), '}'));
    EXPECT_EQ(std::count(s.begin(), s.end(), '['),
              std::count(s.begin(), s.end(), ']'));
    // No trailing comma before a closing bracket.
    EXPECT_EQ(s.find(",]"), std::string::npos);
    EXPECT_EQ(s.find(",\n]"), std::string::npos);
}

// ---------------------------------------------------------------------
// End-to-end: a real protocol run must leave a reconstructible
// lifecycle in the buffer.
// ---------------------------------------------------------------------

namespace
{

SystemParams
smallParams(unsigned n = 4)
{
    SystemParams p;
    p.n = n;
    p.ctrl.cache = {64, 4};
    p.ctrl.mlt = {64, 4};
    return p;
}

} // namespace

TEST(TraceLifecycle, ReadModLifecycleIsComplete)
{
    MulticubeSystem sys(smallParams());
    TransactionTracer tr(1 << 14);
    tr.activate();

    bool done = false;
    SnoopController &writer = sys.node(1, 2);
    writer.write(8, 42, [&](const TxnResult &r) {
        done = true;
        EXPECT_TRUE(r.success);
    });
    ASSERT_TRUE(sys.drain());
    tr.deactivate();
    ASSERT_TRUE(done);

    auto evs = eventsFor(tr, writer.id());
    ASSERT_FALSE(evs.empty());

    // The READ-MOD miss must show the full sequence: issue, row-bus
    // grant+deliver, an MLT routing decision, memory service, and
    // completion — in causal order.
    EXPECT_TRUE(hasPhase(evs, TracePhase::Issue));
    EXPECT_TRUE(hasPhase(evs, TracePhase::BusGrant));
    EXPECT_TRUE(hasPhase(evs, TracePhase::BusDeliver));
    EXPECT_TRUE(hasPhase(evs, TracePhase::MltRoute));
    EXPECT_TRUE(hasPhase(evs, TracePhase::MemServe));
    EXPECT_TRUE(hasPhase(evs, TracePhase::Complete));

    EXPECT_EQ(evs.front().phase, TracePhase::Issue);
    // (The Complete is not necessarily the final origin-attributed
    // event — post-completion bus traffic still carries the origin.)
    auto cit = std::find_if(evs.begin(), evs.end(),
                            [](const TraceEvent &e) {
                                return e.phase == TracePhase::Complete;
                            });
    ASSERT_NE(cit, evs.end());
    EXPECT_EQ(cit->params, 1u);  // success
    EXPECT_GE(cit->aux, 0);      // latency in ticks
    EXPECT_EQ(cit->addr, evs.front().addr);

    // All events of the transaction share the correlation key.
    const std::uint64_t seq = evs.front().reqSeq;
    ASSERT_NE(seq, 0u);
    for (const TraceEvent &e : evs) {
        if (e.phase == TracePhase::Issue
            || e.phase == TracePhase::Complete) {
            EXPECT_EQ(e.reqSeq, seq);
        }
    }

    // Ticks are monotone within the buffer.
    for (std::size_t i = 1; i < tr.size(); ++i)
        EXPECT_LE(tr.at(i - 1).tick, tr.at(i).tick);

    // A write-miss to a freshly valid line inserts into the MLT; the
    // canonical (row 0) copy reports it exactly once per column.
    std::size_t inserts = 0;
    for (std::size_t i = 0; i < tr.size(); ++i)
        if (tr.at(i).phase == TracePhase::MltInsert)
            ++inserts;
    EXPECT_EQ(inserts, 1u);
}

TEST(TraceLifecycle, FaultInjectionLeavesTraceEvents)
{
    SystemParams p = smallParams();
    p.seed = 99;
    p.ctrl.requestTimeoutTicks = 500'000;
    MulticubeSystem sys(p);
    CoherenceChecker checker(sys, 32);
    FaultInjector injector(sys, FaultPlan::dropRequests(0.25, 7));

    TransactionTracer tr(1 << 15);
    tr.activate();

    unsigned completed = 0;
    for (NodeId id = 0; id < sys.numNodes(); ++id) {
        for (Addr a = 0; a < 512; a += 64) {
            sys.node(id).write(a + 8 * (id % 8), id,
                               [&](const TxnResult &) { ++completed; });
        }
    }
    ASSERT_TRUE(sys.drain(5'000'000'000ull));
    tr.deactivate();

    EXPECT_GT(injector.totalInjections(), 0u);
    EXPECT_GT(completed, 0u);
    EXPECT_EQ(checker.violations(), 0u);

    // Every injected fault shows up as an event attributing the drop
    // to a bus, and at least one watchdog recovery is visible.
    std::uint64_t faults = 0, reissues = 0;
    for (std::size_t i = 0; i < tr.size(); ++i) {
        const TraceEvent &e = tr.at(i);
        if (e.phase == TracePhase::FaultInject) {
            ++faults;
            EXPECT_EQ(e.comp, TraceComp::Fault);
        }
        if (e.phase == TracePhase::WatchdogReissue)
            ++reissues;
    }
    EXPECT_GT(faults, 0u);
    EXPECT_GT(reissues, 0u);

    // The export of a faulty run is still valid JSON structurally.
    std::ostringstream os;
    tr.exportChromeJson(os);
    const std::string s = os.str();
    EXPECT_EQ(std::count(s.begin(), s.end(), '{'),
              std::count(s.begin(), s.end(), '}'));
    EXPECT_NE(s.find("FaultInject"), std::string::npos);
}

TEST(MetricsSamplerTest, EmitsParseableJsonl)
{
    MulticubeSystem sys(smallParams());
    std::ostringstream os;
    MetricsSampler sampler(sys, 10'000, os);
    sampler.start();

    unsigned completed = 0;
    for (NodeId id = 0; id < sys.numNodes(); ++id)
        sys.node(id).write(8 * id, id,
                           [&](const TxnResult &) { ++completed; });
    sys.run(100'000);
    sampler.stop();
    ASSERT_TRUE(sys.drain());

    EXPECT_GE(sampler.samplesTaken(), 5u);
    EXPECT_EQ(completed, sys.numNodes());

    // One JSON object per line with the headline fields.
    std::istringstream lines(os.str());
    std::string line;
    unsigned nlines = 0;
    while (std::getline(lines, line)) {
        ++nlines;
        std::string err;
        Json j = Json::parse(line, &err);
        ASSERT_TRUE(err.empty()) << err << " in: " << line;
        ASSERT_TRUE(j.isObject());
        EXPECT_TRUE(j.at("tick").isNumber());
        EXPECT_TRUE(j.at("row_util").isNumber());
        EXPECT_EQ(j.at("mlt_occupancy").size(), sys.n());
        EXPECT_TRUE(j.at("stats").isObject());
    }
    EXPECT_EQ(nlines, sampler.samplesTaken());
}

TEST(MetricsSamplerTest, FinalSampleEqualsTheLiveStatsExactly)
{
    // Every sampled number is exact: a counter past 10^6 keeps the
    // low digits that 6-significant-digit formatting would drop.
    MulticubeSystem sys(smallParams());
    std::ostringstream os;
    MetricsSampler sampler(sys, 250'000, os);
    sampler.start();
    MixParams mix;
    mix.requestsPerMs = 25.0;
    MixWorkload wl(sys, mix);
    wl.start();
    while (sys.rowBus(0).busyTicks() <= 1'000'000)
        sys.run(123'457);
    sampler.stop();

    std::string last;
    std::istringstream lines(os.str());
    for (std::string line; std::getline(lines, line);)
        last = line;
    const Json sample = Json::parse(last);
    ASSERT_TRUE(sample.isObject());
    EXPECT_EQ(sample.at("tick").asU64(), sys.eventQueue().now());

    FlatStats live;
    sys.statistics().flatten(live);
    ASSERT_EQ(sample.at("stats").members().size(), live.size());
    for (const auto &[name, value] : live)
        EXPECT_EQ(sample.at("stats").at(name).asDouble(), value) << name;
    EXPECT_GT(sample.at("stats").at("system.row0.busy_ticks").asDouble(),
              1e6);
}
