/**
 * @file
 * Transaction-lifecycle report over a trace export, as a library.
 *
 * The logic behind `mcube_report trace`: parse TransactionTracer's
 * Chrome trace-event JSON export with Json::parse, reconstruct
 * transaction instances keyed by (originator, reqSeq), and print a
 * latency summary plus the top-K slowest completed transactions with
 * a per-hop breakdown. Living in the library lets tests drive the
 * exact CLI logic over in-memory streams (see
 * tests/trace_report_test.cc) instead of fork/exec'ing the binary.
 */

#ifndef MCUBE_TRACE_TRACE_REPORT_HH
#define MCUBE_TRACE_TRACE_REPORT_HH

#include <istream>
#include <ostream>

namespace mcube::tracereport
{

struct Options
{
    unsigned topK = 5;          //!< slowest transactions to detail
    long long addrFilter = -1;  //!< only this address (-1: all)
};

/**
 * Read one Chrome trace export from @p in and write the report to
 * @p os. @return 0 on success, 1 if @p in held no trace events
 * (including input that is not JSON).
 */
int report(std::istream &in, std::ostream &os, const Options &opt = {});

} // namespace mcube::tracereport

#endif // MCUBE_TRACE_TRACE_REPORT_HH
