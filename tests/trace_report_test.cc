/** @file
 * Golden test for the `mcube_report trace` logic
 * (src/trace/trace_report.cc): a tiny traced protocol run is exported
 * as Chrome trace JSON and driven through tracereport::report over
 * in-memory streams. The report must contain the latency summary and
 * the top-K slowest-transaction table the tool exists to print.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/system.hh"
#include "proc/mix_workload.hh"
#include "trace/trace_event.hh"
#include "trace/trace_report.hh"

using namespace mcube;

namespace
{

/** Trace a short fixed-seed mix run; fills @p tracer. */
void
tracedRun(TransactionTracer &tracer)
{
    tracer.activate();
    SystemParams sp;
    sp.n = 4;
    MulticubeSystem sys(sp);
    MixParams mix;
    mix.requestsPerMs = 25.0;
    MixWorkload wl(sys, mix);
    wl.start();
    sys.run(500'000);
    wl.stop();
    sys.drain();
    tracer.deactivate();
}

std::string
reportOf(const TransactionTracer &tracer, const tracereport::Options &opt)
{
    std::ostringstream json;
    tracer.exportChromeJson(json);
    std::istringstream in(json.str());
    std::ostringstream os;
    EXPECT_EQ(tracereport::report(in, os, opt), 0);
    return os.str();
}

} // namespace

TEST(TraceReport, ChromeExportProducesTheReport)
{
    TransactionTracer tracer(1 << 16);
    tracedRun(tracer);
    ASSERT_GT(tracer.size(), 0u);

    tracereport::Options opt;
    opt.topK = 3;
    const std::string fromJson = reportOf(tracer, opt);

    // Headline lines: event/instance totals, per-phase counts, the
    // latency summary with the deep-tail percentile, and the top-K
    // table with per-hop breakdowns.
    // Every retained event is read back from the JSON.
    EXPECT_EQ(fromJson.rfind("trace_report: "
                                 + std::to_string(tracer.size())
                                 + " events, ",
                             0),
              0u);
    EXPECT_NE(fromJson.find("transaction instances"), std::string::npos);
    EXPECT_NE(fromJson.find("phases: "), std::string::npos);
    EXPECT_NE(fromJson.find("Issue="), std::string::npos);
    EXPECT_NE(fromJson.find("Complete="), std::string::npos);
    EXPECT_NE(fromJson.find("latency ticks: n="), std::string::npos);
    EXPECT_NE(fromJson.find("p99.9="), std::string::npos);
    EXPECT_NE(fromJson.find("top 3 slowest transactions:"),
              std::string::npos);
    EXPECT_NE(fromJson.find("#1 node"), std::string::npos);
    EXPECT_NE(fromJson.find("#3 node"), std::string::npos);
    EXPECT_EQ(fromJson.find("#4 node"), std::string::npos);
    EXPECT_NE(fromJson.find("BusGrant"), std::string::npos);
}

TEST(TraceReport, TopKClampsToCompletedCount)
{
    TransactionTracer tracer(1 << 16);
    tracedRun(tracer);

    tracereport::Options opt;
    opt.topK = 100000;
    const std::string report = reportOf(tracer, opt);
    // "top N slowest" prints the clamped count, not the request.
    EXPECT_EQ(report.find("top 100000"), std::string::npos);
}

TEST(TraceReport, AddrFilterRestrictsInstances)
{
    TransactionTracer tracer(1 << 16);
    tracedRun(tracer);

    // Pick the address of some issued transaction.
    long long addr = -1;
    for (std::size_t i = 0; i < tracer.size(); ++i) {
        if (tracer.at(i).phase == TracePhase::Issue) {
            addr = static_cast<long long>(tracer.at(i).addr);
            break;
        }
    }
    ASSERT_GE(addr, 0);

    tracereport::Options opt;
    opt.addrFilter = addr;
    const std::string report = reportOf(tracer, opt);
    EXPECT_NE(report.find("#1 node"), std::string::npos);
    // Every reported transaction carries the filtered address.
    std::istringstream rep(report);
    std::string line;
    while (std::getline(rep, line)) {
        if (line.rfind("#", 0) != 0)
            continue;
        EXPECT_NE(line.find("addr=" + std::to_string(addr)),
                  std::string::npos)
            << line;
    }
}

TEST(TraceReport, EmptyInputReturnsNonzero)
{
    tracereport::Options opt;
    for (const char *text : {"", "not json", "{\"traceEvents\":[]}"}) {
        std::istringstream in(text);
        std::ostringstream os;
        EXPECT_EQ(tracereport::report(in, os, opt), 1) << text;
    }
}
