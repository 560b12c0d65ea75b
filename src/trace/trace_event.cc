#include "trace/trace_event.hh"

#include <algorithm>
#include <cassert>
#include <map>
#include <utility>

namespace mcube
{

thread_local TransactionTracer *TransactionTracer::gActive = nullptr;

const char *
toString(TracePhase phase)
{
    switch (phase) {
      case TracePhase::Issue: return "Issue";
      case TracePhase::BusGrant: return "BusGrant";
      case TracePhase::BusDeliver: return "BusDeliver";
      case TracePhase::MltRoute: return "MltRoute";
      case TracePhase::MltInsert: return "MltInsert";
      case TracePhase::MltRemove: return "MltRemove";
      case TracePhase::MltEvict: return "MltEvict";
      case TracePhase::MemServe: return "MemServe";
      case TracePhase::MemUpdate: return "MemUpdate";
      case TracePhase::MemBounce: return "MemBounce";
      case TracePhase::SnoopServe: return "SnoopServe";
      case TracePhase::Relaunch: return "Relaunch";
      case TracePhase::WatchdogReissue: return "WatchdogReissue";
      case TracePhase::ParkedReply: return "ParkedReply";
      case TracePhase::FaultInject: return "FaultInject";
      case TracePhase::Complete: return "Complete";
    }
    return "?";
}

const char *
toString(TraceComp comp)
{
    switch (comp) {
      case TraceComp::Controller: return "node";
      case TraceComp::Memory: return "mem";
      case TraceComp::RowBus: return "row";
      case TraceComp::ColBus: return "col";
      case TraceComp::Bus: return "bus";
      case TraceComp::Fault: return "fault";
    }
    return "?";
}

TransactionTracer::TransactionTracer(std::size_t capacity)
{
    if (capacity == 0)
        capacity = 1;
    ring.resize(capacity);
}

TransactionTracer::~TransactionTracer()
{
    if (gActive == this)
        gActive = nullptr;
}

void
TransactionTracer::activate()
{
    gActive = this;
}

void
TransactionTracer::deactivate()
{
    if (gActive == this)
        gActive = nullptr;
}

void
TransactionTracer::record(const TraceEvent &ev)
{
    ring[head] = ev;
    head = (head + 1) % ring.size();
    if (count < ring.size())
        ++count;
    ++total;
}

const TraceEvent &
TransactionTracer::at(std::size_t i) const
{
    assert(i < count);
    // Oldest retained event sits at head when the ring has wrapped,
    // else at index 0.
    std::size_t start = count == ring.size() ? head : 0;
    return ring[(start + i) % ring.size()];
}

void
TransactionTracer::clear()
{
    head = 0;
    count = 0;
    total = 0;
}

namespace
{

/** Stable numeric pid per component for the Chrome trace (Perfetto
 *  groups tracks by pid; names arrive via process_name metadata). */
long
pidOf(const TraceEvent &ev)
{
    switch (ev.comp) {
      case TraceComp::Controller:
        return static_cast<long>(ev.compIndex);
      case TraceComp::Memory:
        return 1000 + static_cast<long>(ev.compIndex);
      case TraceComp::RowBus:
        return 2000 + static_cast<long>(ev.compIndex);
      case TraceComp::ColBus:
        return 3000 + static_cast<long>(ev.compIndex);
      case TraceComp::Bus:
        return 2999;
      case TraceComp::Fault:
        return 4000 + static_cast<long>(ev.compIndex);
    }
    return -1;
}

/** Chrome trace ts is in microseconds; ticks are nanoseconds. */
void
emitTs(std::ostream &os, Tick tick)
{
    Tick frac = tick % 1000;
    os << tick / 1000 << "." << frac / 100 << (frac / 10) % 10
       << frac % 10;
}

void
emitArgs(std::ostream &os, const TraceEvent &ev)
{
    os << "{\"tick\":" << ev.tick
       << ",\"txn\":\"" << toString(ev.txn) << "\""
       << ",\"addr\":" << ev.addr << ",\"origin\":";
    if (ev.origin == invalidNode)
        os << -1;
    else
        os << ev.origin;
    os << ",\"reqSeq\":" << ev.reqSeq << ",\"serial\":" << ev.serial
       << ",\"params\":" << ev.params << ",\"aux\":" << ev.aux
       << ",\"comp\":\"" << toString(ev.comp) << ev.compIndex << "\"}";
}

} // namespace

void
TransactionTracer::exportChromeJson(std::ostream &os) const
{
    std::vector<const TraceEvent *> evs(count);
    for (std::size_t i = 0; i < count; ++i)
        evs[i] = &at(i);
    std::stable_sort(evs.begin(), evs.end(),
                     [](const TraceEvent *a, const TraceEvent *b) {
                         return a->tick < b->tick;
                     });

    os << "{\"traceEvents\":[\n";
    const char *sep = "";

    // Process-name metadata, one entry per distinct component.
    std::map<long, std::string> procs;
    for (const TraceEvent *e : evs) {
        const TraceEvent &ev = *e;
        procs.emplace(pidOf(ev),
                      std::string(toString(ev.comp))
                          + std::to_string(ev.compIndex));
    }
    for (const auto &[pid, pname] : procs) {
        os << sep << "{\"ph\":\"M\",\"pid\":" << pid
           << ",\"name\":\"process_name\",\"args\":{\"name\":\"" << pname
           << "\"}}";
        sep = ",\n";
    }

    // One instant event per record.
    for (const TraceEvent *e : evs) {
        const TraceEvent &ev = *e;
        os << sep << "{\"ph\":\"i\",\"s\":\"p\",\"name\":\""
           << toString(ev.phase) << "\",\"ts\":";
        emitTs(os, ev.tick);
        os << ",\"pid\":" << pidOf(ev) << ",\"tid\":0,\"args\":";
        emitArgs(os, ev);
        os << "}";
        sep = ",\n";
    }

    // Derived duration slices: one per completed transaction whose
    // Issue survived in the ring (keyed by originator + instance id;
    // a controller has one outstanding transaction, so slices on one
    // track never overlap).
    std::map<std::pair<std::uint32_t, std::uint64_t>, Tick> issued;
    for (const TraceEvent *e : evs) {
        const TraceEvent &ev = *e;
        if (ev.comp != TraceComp::Controller)
            continue;
        if (ev.phase == TracePhase::Issue) {
            issued[{ev.compIndex, ev.reqSeq}] = ev.tick;
        } else if (ev.phase == TracePhase::Complete) {
            auto it = issued.find({ev.compIndex, ev.reqSeq});
            if (it == issued.end())
                continue;
            Tick start = it->second;
            issued.erase(it);
            os << sep << "{\"ph\":\"X\",\"name\":\"" << toString(ev.txn)
               << " addr=" << ev.addr << "\",\"ts\":";
            emitTs(os, start);
            os << ",\"dur\":";
            emitTs(os, ev.tick - start);
            os << ",\"pid\":" << pidOf(ev) << ",\"tid\":1,\"args\":";
            emitArgs(os, ev);
            os << "}";
            sep = ",\n";
        }
    }

    os << "\n],\"displayTimeUnit\":\"ns\"}\n";
}

} // namespace mcube
