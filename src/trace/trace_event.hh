/**
 * @file
 * Structured transaction-lifecycle tracing for the Multicube.
 *
 * The protocol's interesting properties are temporal: a READ-MOD is a
 * *sequence* — issue, row-bus grant, MLT route decision, column-bus
 * grant, memory access or snoop serve, possibly a bounce/relaunch
 * chain or a watchdog reissue, reply, completion. End-of-run counters
 * cannot show where such a sequence spent its time or how recovery
 * chains unfold under fault injection; this module records the
 * sequence itself.
 *
 * Model components emit compact fixed-size TraceEvents through the
 * MCUBE_TRACE macro into a bounded ring buffer (oldest events are
 * overwritten once the buffer is full, so memory stays bounded on
 * arbitrarily long runs). The buffer exports as Chrome trace-event
 * JSON (open in Perfetto / chrome://tracing): one instant event per
 * TraceEvent plus one derived duration slice per completed
 * transaction (issue -> complete, keyed by originator and
 * transaction-instance id). `mcube_report trace` reads it back.
 *
 * Tracing is disabled by default and costs one thread-local pointer
 * load and branch per site — the same zero-cost-when-disabled
 * discipline as MCUBE_LOG. A tracer becomes the calling thread's
 * active sink with activate() and detaches with deactivate() (or its
 * destructor); at most one tracer is active per thread, the same
 * discipline as SimProfiler. A parallel-engine run with a tracer
 * active on its coordinator executes every lane on that thread (see
 * sim/parallel_engine.hh).
 */

#ifndef MCUBE_TRACE_TRACE_EVENT_HH
#define MCUBE_TRACE_TRACE_EVENT_HH

#include <cstdint>
#include <ostream>
#include <vector>

#include "bus/bus_op.hh"
#include "sim/types.hh"

namespace mcube
{

/** Lifecycle phases a trace event can mark. */
enum class TracePhase : std::uint8_t
{
    Issue,            //!< controller starts a transaction (row request)
    BusGrant,         //!< arbitration won; op occupies the wire
    BusDeliver,       //!< op broadcast to all agents on the bus
    MltRoute,         //!< row-request routing decision (see aux codes)
    MltInsert,        //!< canonical MLT copy inserted an entry
    MltRemove,        //!< canonical MLT copy removed (aux: 1 hit, 0 miss)
    MltEvict,         //!< MLT overflow evicted an entry (aux: victim)
    MemServe,         //!< memory served a request (valid line)
    MemUpdate,        //!< memory absorbed an UPDATE
    MemBounce,        //!< memory bounced a request (invalid line)
    SnoopServe,       //!< owning snooping cache served a request
    Relaunch,         //!< row-mate relaunched a bounced request
    WatchdogReissue,  //!< transaction watchdog reissued the request
    ParkedReply,      //!< unclaimed reply parked back to memory
    FaultInject,      //!< fault injector fired (aux: FaultKind)
    Complete,         //!< transaction completed (aux: latency ticks)
};

/** Which component emitted an event. */
enum class TraceComp : std::uint8_t
{
    Controller,  //!< compIndex = node id
    Memory,      //!< compIndex = column
    RowBus,      //!< compIndex = row
    ColBus,      //!< compIndex = column
    Bus,         //!< baseline / standalone bus, compIndex = 0
    Fault,       //!< fault injector; compIndex = dim * 256 + bus index
};

/** Route decisions recorded by TracePhase::MltRoute in aux. */
namespace route
{
constexpr std::int64_t ToOwnerColumn = 1;  //!< MLT hit, fwd to column
constexpr std::int64_t HomeShared = 2;     //!< home node served shared
constexpr std::int64_t ToMemory = 3;       //!< fwd to home memory
} // namespace route

/** One compact trace record (fixed size, no heap allocation). */
struct TraceEvent
{
    Tick tick = 0;
    TracePhase phase = TracePhase::Issue;
    TraceComp comp = TraceComp::Controller;
    TxnType txn = TxnType::Read;
    std::uint16_t params = 0;       //!< BusOp params bits (where known)
    std::uint32_t compIndex = 0;    //!< see TraceComp
    NodeId origin = invalidNode;    //!< transaction originator
    Addr addr = 0;
    std::uint64_t reqSeq = 0;       //!< originator's txn-instance id
    std::uint64_t serial = 0;       //!< bus serial (where known)
    std::int64_t aux = 0;           //!< per-phase detail (see phases)
};

/** Text names for export and reports. */
const char *toString(TracePhase phase);
const char *toString(TraceComp comp);

/**
 * The bounded event sink. Construct with a capacity, activate() to
 * start collecting, then export after the run.
 */
class TransactionTracer
{
  public:
    explicit TransactionTracer(std::size_t capacity = 1 << 16);
    ~TransactionTracer();

    TransactionTracer(const TransactionTracer &) = delete;
    TransactionTracer &operator=(const TransactionTracer &) = delete;

    /** Install this tracer as this *thread's* sink (replacing any
     *  previously active one). */
    void activate();

    /** Detach; MCUBE_TRACE becomes a no-op again. */
    void deactivate();

    /** The calling thread's active sink, or nullptr when tracing is
     *  off. This is the whole cost of a disabled trace site. */
    static TransactionTracer *active() { return gActive; }

    /** Append one event (overwrites the oldest once full). */
    void record(const TraceEvent &ev);

    /** @{ Buffer inspection (events in chronological order). */
    std::size_t size() const { return count; }
    std::size_t capacity() const { return ring.size(); }
    /** Total events ever recorded, including overwritten ones. */
    std::uint64_t recorded() const { return total; }
    /** Events lost to ring wraparound. */
    std::uint64_t overwritten() const { return total - count; }
    /** The i-th oldest retained event, i in [0, size()). */
    const TraceEvent &at(std::size_t i) const;
    void clear();
    /** @} */

    /** Write Chrome trace-event JSON (Perfetto / chrome://tracing).
     *  Records are written stable-sorted by tick: a parallel-engine
     *  run records each window lane by lane. */
    void exportChromeJson(std::ostream &os) const;

  private:
    static thread_local TransactionTracer *gActive;

    std::vector<TraceEvent> ring;
    std::size_t head = 0;       //!< next write position
    std::size_t count = 0;      //!< retained events
    std::uint64_t total = 0;    //!< lifetime events
};

} // namespace mcube

/**
 * Trace-site macro: MCUBE_TRACE(event_expr). The event expression is
 * only evaluated when a tracer is active.
 */
#define MCUBE_TRACE(ev)                                                     \
    do {                                                                    \
        if (auto *_mcube_tr = ::mcube::TransactionTracer::active())         \
            _mcube_tr->record((ev));                                        \
    } while (0)

#endif // MCUBE_TRACE_TRACE_EVENT_HH
