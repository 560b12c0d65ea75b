/**
 * @file
 * Offline reports over the simulator's run artifacts.
 *
 *   $ mcube_report trace [--top=K] [--addr=A] trace.json
 *       Transaction-lifecycle report over a Chrome trace export
 *       (sweep_cli --trace-out). Reconstructs each transaction
 *       instance — keyed by (originator, reqSeq), the same
 *       correlation the protocol uses to match replies to requests —
 *       then prints a latency summary (p50 through p99.9) and the
 *       top-K slowest completed transactions with a per-hop
 *       breakdown: every bus grant/delivery, MLT route decision,
 *       memory serve/bounce, snoop serve, relaunch, watchdog reissue
 *       and fault injection that touched the instance, with ticks
 *       relative to issue. --addr keeps only one address. K and A
 *       are non-negative decimal integers; anything else, or an
 *       unknown flag, exits 2 naming the flag.
 *
 *   $ mcube_report prof profile.json
 *       Host-time report over a self-profile (sweep_cli
 *       --profile-out): time by event kind and by bus domain, and
 *       the event-queue profile.
 *
 *   $ mcube_report folded profile.json > profile.folded
 *       The profile's embedded folded stacks, one line per call path,
 *       for flamegraph.pl.
 *
 * All logic lives in the library (src/trace/trace_report.{hh,cc},
 * profReport/profFolded in src/sim/profiler.{hh,cc}) so tests drive
 * it over in-memory streams; this file is argument parsing.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "run/crash_handler.hh"
#include "run/parse_number.hh"
#include "run/provenance.hh"
#include "sim/json.hh"
#include "sim/profiler.hh"
#include "trace/trace_report.hh"

namespace
{

/** Print "mcube_report: <msg>" as the one line of a usage error. */
int
usageError(const std::string &msg)
{
    std::cerr << "mcube_report: " << msg << "\n";
    return 2;
}

int
usage(int rc)
{
    (rc ? std::cerr : std::cout)
        << "usage: mcube_report trace [--top=K] [--addr=A] trace.json\n"
           "       mcube_report prof profile.json\n"
           "       mcube_report folded profile.json\n";
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    mcube::run::installCrashHandler("mcube_report");

    if (argc < 2)
        return usage(2);
    const std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "-h")
        return usage(0);
    if (cmd != "trace" && cmd != "prof" && cmd != "folded")
        return usage(2);

    mcube::tracereport::Options opt;
    std::string path;
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        const std::string key = a.substr(0, a.find('='));
        const std::string val =
            key.size() < a.size() ? a.substr(key.size() + 1) : "";
        bool ok = true;
        if (cmd == "trace" && key == "--top")
            ok = mcube::run::parseNumber(val, opt.topK);
        else if (cmd == "trace" && key == "--addr")
            ok = mcube::run::parseNumber(val, opt.addrFilter);
        else if (a == "--help" || a == "-h")
            return usage(0);
        else if (a.rfind("--", 0) == 0)
            return usageError("unknown option: " + key);
        else if (path.empty())
            path = a;
        else
            return usage(2);
        if (!ok)
            return usageError(key + ": '" + val
                              + "' is not a valid number");
    }
    if (path.empty())
        return usage(2);

    std::ifstream in(path);
    if (!in) {
        std::cerr << "mcube_report: cannot open " << path << "\n";
        return 2;
    }

    // Folded stacks feed flamegraph.pl, so they carry no header; the
    // human reports name the binary revision and the exact command.
    if (cmd != "folded")
        std::cout << mcube::run::provenanceHeader("mcube_report", argc,
                                                  argv)
                  << "\n";

    if (cmd == "trace") {
        int rc = mcube::tracereport::report(in, std::cout, opt);
        if (rc != 0)
            std::cerr << "mcube_report: no trace events in " << path
                      << "\n";
        return rc;
    }

    std::ostringstream text;
    text << in.rdbuf();
    std::string err;
    const mcube::Json profile = mcube::Json::parse(text.str(), &err);
    if (profile.isNull()) {
        std::cerr << "mcube_report: parse error: " << err << "\n";
        return 1;
    }
    const bool ok = cmd == "prof" ? mcube::profReport(profile, std::cout)
                                  : mcube::profFolded(profile, std::cout);
    if (!ok) {
        std::cerr << "mcube_report: " << path
                  << " is not a profile JSON\n";
        return 1;
    }
    return 0;
}
