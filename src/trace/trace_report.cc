#include "trace/trace_report.hh"

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sim/json.hh"
#include "sim/stats.hh"

namespace mcube::tracereport
{

namespace
{

struct Ev
{
    std::uint64_t tick = 0;
    std::string comp;   // "node3", "row0", "mem1", "fault256", ...
    std::string phase;  // "Issue", "MemBounce", ...
    std::string txn;    // "READ", "READMOD", ...
    std::uint64_t addr = 0;
    long long origin = -1;
    std::uint64_t reqSeq = 0;
    std::uint64_t params = 0;
    long long aux = 0;
};

/** The instant events of a Chrome trace export, in file order
 *  (metadata and derived duration slices are skipped). */
std::vector<Ev>
parseTrace(std::istream &in)
{
    std::ostringstream text;
    text << in.rdbuf();
    const Json doc = Json::parse(text.str());
    const Json &all = doc.at("traceEvents");
    std::vector<Ev> evs;
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Json &e = all.at(i);
        if (e.str("ph") != "i")
            continue;
        const Json &args = e.at("args");
        Ev ev;
        ev.phase = e.str("name");
        ev.tick = args.u64("tick", 0);
        ev.txn = args.str("txn");
        ev.addr = args.u64("addr", 0);
        ev.origin = args.i64("origin", -1);
        ev.reqSeq = args.u64("reqSeq", 0);
        ev.params = args.u64("params", 0);
        ev.aux = args.i64("aux", 0);
        ev.comp = args.str("comp");
        if (!ev.phase.empty())
            evs.push_back(std::move(ev));
    }
    return evs;
}

// ---------------------------------------------------------------------
// Reconstruction
// ---------------------------------------------------------------------

struct Txn
{
    long long origin = -1;
    std::uint64_t reqSeq = 0;
    std::vector<const Ev *> hops;
    const Ev *issue = nullptr;
    const Ev *complete = nullptr;
    unsigned bounces = 0;
    unsigned relaunches = 0;
    unsigned reissues = 0;
    unsigned faults = 0;

    std::uint64_t latency() const
    {
        return complete && issue ? complete->tick - issue->tick : 0;
    }
};

const char *
routeName(long long aux)
{
    switch (aux) {
      case 1: return "to-owner-column";
      case 2: return "home-shared";
      case 3: return "to-memory";
    }
    return "?";
}

std::string
detailOf(const Ev &ev)
{
    std::ostringstream oss;
    if (ev.phase == "BusGrant")
        oss << "queue-delay=" << ev.aux;
    else if (ev.phase == "MltRoute")
        oss << "route=" << routeName(ev.aux);
    else if (ev.phase == "MemBounce")
        oss << "chain=" << ev.aux;
    else if (ev.phase == "MemServe" && ev.aux > 0)
        oss << "after " << ev.aux << " bounce(s)";
    else if (ev.phase == "WatchdogReissue")
        oss << "next-timeout=" << ev.aux;
    else if (ev.phase == "FaultInject")
        oss << "kind=" << ev.aux;
    else if (ev.phase == "Complete")
        oss << "latency=" << ev.aux
            << (ev.params ? " ok" : " failed");
    return oss.str();
}

void
printTxn(std::ostream &os, const Txn &t, unsigned rank)
{
    os << "#" << rank << " node" << t.origin << " "
       << t.issue->txn << " addr=" << t.issue->addr
       << " seq=" << t.reqSeq << " latency=" << t.latency()
       << " ticks";
    if (t.bounces)
        os << " bounces=" << t.bounces;
    if (t.relaunches)
        os << " relaunches=" << t.relaunches;
    if (t.reissues)
        os << " wd-reissues=" << t.reissues;
    if (t.faults)
        os << " faults=" << t.faults;
    os << "\n";
    os << "    " << std::left << std::setw(12) << "tick"
       << std::setw(10) << "+delta" << std::setw(10) << "comp"
       << std::setw(18) << "phase" << "detail\n";
    for (const Ev *ev : t.hops) {
        os << "    " << std::left << std::setw(12) << ev->tick
           << std::setw(10) << ev->tick - t.issue->tick
           << std::setw(10) << ev->comp << std::setw(18)
           << ev->phase << detailOf(*ev) << "\n";
    }
}

} // namespace

int
report(std::istream &in, std::ostream &os, const Options &opt)
{
    std::vector<Ev> evs = parseTrace(in);
    if (evs.empty())
        return 1;

    // Group by transaction instance. Events without an instance id
    // (MLT mutations, untagged ops) contribute to totals only.
    std::map<std::pair<long long, std::uint64_t>, Txn> txns;
    std::map<std::string, unsigned> phaseCounts;
    for (const Ev &ev : evs) {
        ++phaseCounts[ev.phase];
        if (ev.origin < 0 || ev.reqSeq == 0)
            continue;
        if (opt.addrFilter >= 0
            && ev.addr != static_cast<std::uint64_t>(opt.addrFilter))
            continue;
        Txn &t = txns[{ev.origin, ev.reqSeq}];
        t.origin = ev.origin;
        t.reqSeq = ev.reqSeq;
        t.hops.push_back(&ev);
        if (ev.phase == "Issue" && !t.issue)
            t.issue = &ev;
        else if (ev.phase == "Complete")
            t.complete = &ev;
        else if (ev.phase == "MemBounce")
            ++t.bounces;
        else if (ev.phase == "Relaunch")
            ++t.relaunches;
        else if (ev.phase == "WatchdogReissue")
            ++t.reissues;
        else if (ev.phase == "FaultInject")
            ++t.faults;
    }

    std::vector<const Txn *> complete;
    unsigned incomplete = 0;
    Histogram latHist;
    for (const auto &[key, t] : txns) {
        if (t.issue && t.complete) {
            complete.push_back(&t);
            latHist.sample(static_cast<double>(t.latency()));
        } else {
            ++incomplete;
        }
    }
    std::sort(complete.begin(), complete.end(),
              [](const Txn *a, const Txn *b) {
                  return a->latency() > b->latency();
              });

    os << "trace_report: " << evs.size() << " events, "
       << txns.size() << " transaction instances ("
       << complete.size() << " complete, " << incomplete
       << " partial)\n";
    os << "phases:";
    for (const auto &[phase, cnt] : phaseCounts)
        os << " " << phase << "=" << cnt;
    os << "\n";
    if (latHist.count()) {
        // The log buckets exist for the tail: p99.9 shows the
        // order-of-magnitude of the worst recovery chains.
        os << "latency ticks: n=" << latHist.count()
           << " mean=" << latHist.mean()
           << " p50=" << latHist.p50()
           << " p95=" << latHist.p95()
           << " p99=" << latHist.p99()
           << " p99.9=" << latHist.p999()
           << " max=" << latHist.max() << "\n";
    }
    os << "\n";

    if (complete.empty()) {
        os << "no completed transactions in the trace window\n";
        return 0;
    }
    os << "top " << std::min<std::size_t>(opt.topK, complete.size())
       << " slowest transactions:\n";
    for (unsigned i = 0; i < opt.topK && i < complete.size(); ++i)
        printTxn(os, *complete[i], i + 1);
    return 0;
}

} // namespace mcube::tracereport
