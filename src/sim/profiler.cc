#include "sim/profiler.hh"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>

#include "sim/json.hh"

namespace mcube
{

thread_local SimProfiler *SimProfiler::tlActive = nullptr;

const char *
toString(ProfKind kind)
{
    switch (kind) {
      case ProfKind::Event: return "event";
      case ProfKind::BusArb: return "bus_arb";
      case ProfKind::BusDeliver: return "bus_deliver";
      case ProfKind::CtrlSnoop: return "ctrl_snoop";
      case ProfKind::Mlt: return "mlt";
      case ProfKind::Memory: return "memory";
      case ProfKind::Checker: return "checker";
      case ProfKind::Fault: return "fault";
      case ProfKind::NumKinds: break;
    }
    return "?";
}

SimProfiler::SimProfiler()
{
    nodes.emplace_back();  // root
}

SimProfiler::~SimProfiler()
{
    deactivate();
}

void
SimProfiler::activate()
{
    if (tlActive == this)
        return;
    tlActive = this;
    t0Ns = nowNs();
}

void
SimProfiler::deactivate()
{
    if (tlActive != this)
        return;
    tlActive = nullptr;
    totalWallNs += nowNs() - t0Ns;
    if (batchLen) {
        batchHist.sample(static_cast<double>(batchLen));
        batchLen = 0;
    }
}

std::uint64_t
SimProfiler::wallNs() const
{
    std::uint64_t w = totalWallNs;
    if (tlActive == this)
        w += nowNs() - t0Ns;
    return w;
}

std::uint32_t
SimProfiler::push(ProfKind kind, std::uint32_t comp, ProfDomain d)
{
    ++scopes;
    // Frame key: parent(18) | kind(4) | dim(2) | index(16) | comp(24).
    std::uint64_t key =
        (static_cast<std::uint64_t>(cur) << 46)
        | (static_cast<std::uint64_t>(kind) << 42)
        | (static_cast<std::uint64_t>(d.dim) << 40)
        | (static_cast<std::uint64_t>(d.index) << 24)
        | static_cast<std::uint64_t>(comp & 0xffffffu);
    std::uint32_t id;
    if (std::uint32_t *c = childIndex.find(key)) {
        id = *c;
    } else {
        id = static_cast<std::uint32_t>(nodes.size());
        assert(id < (1u << 18) && "profiler path trie overflow");
        Node n;
        n.parent = cur;
        n.kind = kind;
        n.domain = d;
        n.comp = comp;
        nodes.push_back(n);
        childIndex.put(key, id);
    }
    std::uint32_t prev = cur;
    cur = id;
    return prev;
}

void
SimProfiler::pop(std::uint32_t prev_node, std::uint64_t ns)
{
    Node &n = nodes[cur];
    n.ns += ns;
    ++n.count;
    cur = prev_node;
}

void
SimProfiler::onExecute(Tick when, std::size_t heap_depth,
                       std::size_t slab_slots, std::size_t free_slots)
{
    ++events;
    depthHist.sample(static_cast<double>(heap_depth));
    occHist.sample(static_cast<double>(slab_slots - free_slots));
    if (slab_slots > slabHighWater)
        slabHighWater = slab_slots;
    if (free_slots > freeHighWater)
        freeHighWater = free_slots;
    if (when == batchTick && batchLen > 0) {
        ++batchLen;
    } else {
        if (batchLen)
            batchHist.sample(static_cast<double>(batchLen));
        batchTick = when;
        batchLen = 1;
    }
}

std::vector<std::uint64_t>
SimProfiler::selfNs() const
{
    // Children nest strictly inside their parent's measured interval,
    // so the subtraction cannot go negative for any real node; the
    // root (which is never timed) is clamped.
    std::vector<std::int64_t> s(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i)
        s[i] = static_cast<std::int64_t>(nodes[i].ns);
    for (std::size_t i = 1; i < nodes.size(); ++i)
        s[nodes[i].parent] -= static_cast<std::int64_t>(nodes[i].ns);
    std::vector<std::uint64_t> out(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i)
        out[i] = s[i] > 0 ? static_cast<std::uint64_t>(s[i]) : 0;
    return out;
}

ProfDomain
SimProfiler::inheritedDomain(std::uint32_t node) const
{
    while (node != 0) {
        if (nodes[node].domain.dim != ProfDomain::Dim::None)
            return nodes[node].domain;
        node = nodes[node].parent;
    }
    return {};
}

std::string
SimProfiler::frameLabel(const Node &n) const
{
    auto busName = [&]() -> std::string {
        switch (n.domain.dim) {
          case ProfDomain::Dim::Row:
            return "row" + std::to_string(n.domain.index);
          case ProfDomain::Dim::Col:
            return "col" + std::to_string(n.domain.index);
          case ProfDomain::Dim::None: break;
        }
        return "bus";
    };
    switch (n.kind) {
      case ProfKind::Event: return "event";
      case ProfKind::BusArb: return busName() + ":arb";
      case ProfKind::BusDeliver: return busName() + ":deliver";
      case ProfKind::CtrlSnoop:
        return "node" + std::to_string(n.comp) + ":snoop";
      case ProfKind::Mlt:
        return "node" + std::to_string(n.comp) + ":mlt";
      case ProfKind::Memory:
        return "mem" + std::to_string(n.comp) + ":snoop";
      case ProfKind::Checker: return "checker";
      case ProfKind::Fault: return "fault";
      case ProfKind::NumKinds: break;
    }
    return "?";
}

namespace
{

Json
histJson(const Histogram &h)
{
    Json j = Json::object();
    j.set("count", h.count());
    j.set("mean", h.mean());
    j.set("max", h.max());
    j.set("p50", h.p50());
    j.set("p95", h.p95());
    j.set("p99", h.p99());
    j.set("p999", h.p999());
    return j;
}

} // namespace

Json
SimProfiler::toJson() const
{
    std::vector<std::uint64_t> self = selfNs();

    Json j = Json::object();
    j.set("profile_version", std::uint64_t{2});
    j.set("wall_ns", wallNs());
    j.set("events", events);
    j.set("scopes", scopes);

    // Per-kind self/inclusive totals.
    std::array<std::uint64_t, std::size_t(ProfKind::NumKinds)> kindSelf{};
    std::array<std::uint64_t, std::size_t(ProfKind::NumKinds)> kindIncl{};
    std::array<std::uint64_t, std::size_t(ProfKind::NumKinds)> kindCnt{};
    for (std::size_t i = 1; i < nodes.size(); ++i) {
        auto k = static_cast<std::size_t>(nodes[i].kind);
        kindSelf[k] += self[i];
        kindIncl[k] += nodes[i].ns;
        kindCnt[k] += nodes[i].count;
    }
    Json kinds = Json::object();
    for (std::size_t k = 0; k < std::size_t(ProfKind::NumKinds); ++k) {
        if (!kindCnt[k])
            continue;
        Json e = Json::object();
        e.set("self_ns", kindSelf[k]);
        e.set("incl_ns", kindIncl[k]);
        e.set("count", kindCnt[k]);
        kinds.set(toString(static_cast<ProfKind>(k)), std::move(e));
    }
    j.set("kinds", std::move(kinds));

    Json eq = Json::object();
    eq.set("depth", histJson(depthHist));
    eq.set("same_tick_batch", histJson(batchHist));
    eq.set("schedule_horizon_ticks", histJson(horizonHist));
    eq.set("slab_occupancy", histJson(occHist));
    eq.set("slab_high_water", slabHighWater);
    eq.set("free_list_high_water", freeHighWater);
    j.set("event_queue", std::move(eq));

    // Per-domain self ns.
    std::vector<std::uint64_t> rowNs, colNs;
    std::uint64_t rowTotal = 0, colTotal = 0, noneTotal = 0;
    for (std::size_t i = 1; i < nodes.size(); ++i) {
        ProfDomain d = inheritedDomain(static_cast<std::uint32_t>(i));
        if (d.dim == ProfDomain::Dim::Row) {
            if (rowNs.size() <= d.index)
                rowNs.resize(d.index + 1, 0);
            rowNs[d.index] += self[i];
            rowTotal += self[i];
        } else if (d.dim == ProfDomain::Dim::Col) {
            if (colNs.size() <= d.index)
                colNs.resize(d.index + 1, 0);
            colNs[d.index] += self[i];
            colTotal += self[i];
        } else {
            noneTotal += self[i];
        }
    }
    auto domainArray = [](const std::vector<std::uint64_t> &ns) {
        Json arr = Json::array();
        for (std::size_t i = 0; i < ns.size(); ++i) {
            Json e = Json::object();
            e.set("index", static_cast<std::uint64_t>(i));
            e.set("self_ns", ns[i]);
            arr.push(std::move(e));
        }
        return arr;
    };
    Json domains = Json::object();
    domains.set("rows", domainArray(rowNs));
    domains.set("cols", domainArray(colNs));
    domains.set("row_ns", rowTotal);
    domains.set("col_ns", colTotal);
    domains.set("unattributed_ns", noneTotal);
    j.set("domains", std::move(domains));

    // Folded stacks, embedded so one JSON file carries everything.
    Json stacks = Json::array();
    std::vector<std::string> labels(nodes.size());
    for (std::size_t i = 1; i < nodes.size(); ++i) {
        const Node &n = nodes[i];
        labels[i] = n.parent == 0
                        ? frameLabel(n)
                        : labels[n.parent] + ";" + frameLabel(n);
        if (!self[i])
            continue;
        Json e = Json::object();
        e.set("stack", labels[i]);
        e.set("self_ns", self[i]);
        e.set("count", nodes[i].count);
        stacks.push(std::move(e));
    }
    j.set("stacks", std::move(stacks));
    return j;
}

void
SimProfiler::exportJson(std::ostream &os) const
{
    os << toJson().dump(2);
    os << "\n";
}

namespace
{

std::string
fmtNs(double ns)
{
    char buf[64];
    if (ns >= 1e9)
        std::snprintf(buf, sizeof buf, "%.2f s", ns / 1e9);
    else if (ns >= 1e6)
        std::snprintf(buf, sizeof buf, "%.1f ms", ns / 1e6);
    else if (ns >= 1e3)
        std::snprintf(buf, sizeof buf, "%.1f us", ns / 1e3);
    else
        std::snprintf(buf, sizeof buf, "%.0f ns", ns);
    return buf;
}

std::string
fmtPct(double frac)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%5.1f%%", frac * 100.0);
    return buf;
}

void
histLine(std::ostream &os, const char *name, const Json &h)
{
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "  %-24s p50 %-10.0f p95 %-10.0f p99.9 %-10.0f "
                  "max %.0f",
                  name, h.num("p50", 0), h.num("p95", 0),
                  h.num("p999", 0), h.num("max", 0));
    os << buf << "\n";
}

/** v1 profiles carry an extra coupling block and per-domain op
 *  counts; every key read here is common to v1 and v2. */
bool
isProfile(const Json &profile)
{
    const std::uint64_t v = profile.u64("profile_version", 0);
    return v == 1 || v == 2;
}

} // namespace

bool
profReport(const Json &profile, std::ostream &os)
{
    if (!isProfile(profile))
        return false;

    auto wallNs = static_cast<double>(profile.u64("wall_ns", 0));
    std::uint64_t events = profile.u64("events", 0);
    os << "self-profile: wall " << fmtNs(wallNs) << ", " << events
       << " events";
    if (wallNs > 0)
        os << " (" << static_cast<std::uint64_t>(events / (wallNs / 1e9))
           << " events/s)";
    os << ", " << profile.u64("scopes", 0) << " scopes\n";

    os << "host time by kind (self):\n";
    const Json &kinds = profile.at("kinds");
    double kindTotal = 0;
    for (const auto &[name, e] : kinds.members())
        kindTotal += e.num("self_ns", 0);
    for (const auto &[name, e] : kinds.members()) {
        double ns = e.num("self_ns", 0);
        char buf[160];
        std::snprintf(buf, sizeof buf, "  %-12s %s  %-10s n=%" PRIu64,
                      name.c_str(),
                      fmtPct(kindTotal > 0 ? ns / kindTotal : 0).c_str(),
                      fmtNs(ns).c_str(), e.u64("count", 0));
        os << buf << "\n";
    }

    os << "event queue:\n";
    const Json &eq = profile.at("event_queue");
    histLine(os, "heap depth", eq.at("depth"));
    histLine(os, "same-tick batch", eq.at("same_tick_batch"));
    histLine(os, "schedule horizon", eq.at("schedule_horizon_ticks"));
    histLine(os, "slab occupancy", eq.at("slab_occupancy"));
    os << "  slab high-water " << eq.u64("slab_high_water", 0)
       << " slots, free-list high-water "
       << eq.u64("free_list_high_water", 0) << "\n";

    const Json &dom = profile.at("domains");
    double rowNs = dom.num("row_ns", 0);
    double colNs = dom.num("col_ns", 0);
    double noneNs = dom.num("unattributed_ns", 0);
    double domTotal = rowNs + colNs + noneNs;
    os << "host time by domain (self):\n";
    os << "  row buses    " << fmtPct(domTotal > 0 ? rowNs / domTotal : 0)
       << "  " << fmtNs(rowNs) << " over " << dom.at("rows").size()
       << " domains\n";
    os << "  col buses    " << fmtPct(domTotal > 0 ? colNs / domTotal : 0)
       << "  " << fmtNs(colNs) << " over " << dom.at("cols").size()
       << " domains\n";
    os << "  unattributed " << fmtPct(domTotal > 0 ? noneNs / domTotal : 0)
       << "  " << fmtNs(noneNs) << "\n";

    return true;
}

bool
profFolded(const Json &profile, std::ostream &os)
{
    if (!isProfile(profile))
        return false;
    const Json &stacks = profile.at("stacks");
    for (std::size_t i = 0; i < stacks.size(); ++i)
        os << stacks.at(i).str("stack") << " "
           << stacks.at(i).u64("self_ns", 0) << "\n";
    return true;
}

} // namespace mcube
