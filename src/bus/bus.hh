/**
 * @file
 * A snooping bus with round-robin arbitration and atomic broadcast.
 *
 * Timing model: an agent enqueues operations into its private FIFO;
 * when the bus is idle it grants the next non-empty queue round-robin.
 * The granted op occupies the bus for
 *
 *     arbitration + header + (hasData ? blockWords x wordTicks : 0)
 *
 * ticks and is then delivered to every attached agent in one tick —
 * the defining property of snooping. Delivery happens in two passes:
 * first every agent is asked whether it asserts the wired-OR
 * "modified" line for this op (the paper's fixed-delay row-bus
 * signal), then every agent snoops the op with the collected signal
 * value. With cut-through forwarding enabled (Section 5), delivery of
 * a data-carrying op happens one header + one word after the grant, so
 * a receiving controller can begin forwarding on its second bus while
 * the tail of the block is still in flight; the bus stays occupied for
 * the full transfer either way.
 */

#ifndef MCUBE_BUS_BUS_HH
#define MCUBE_BUS_BUS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bus/bus_op.hh"
#include "sim/event_queue.hh"
#include "sim/profiler.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "trace/trace_event.hh"

namespace mcube
{

class Bus;

/**
 * What a fault hook decided to do with an op about to be enqueued.
 * Actions compose: a duplicated op may also have its original delayed.
 */
struct FaultAction
{
    bool drop = false;      //!< silently discard the op
    Tick delayTicks = 0;    //!< extra ticks before the op enqueues
    bool duplicate = false; //!< enqueue a second copy immediately
};

/**
 * Interceptor consulted once per Bus::request before the op enters an
 * agent's FIFO (delivery itself stays an atomic broadcast). This is
 * the attach point of the fault-injection subsystem: a dropped op
 * never existed on the wire, a delayed op enqueues late, a duplicated
 * op is granted twice with distinct serials.
 */
class BusFaultHook
{
  public:
    virtual ~BusFaultHook() = default;

    /** Decide the fate of @p op about to enqueue on @p bus. */
    virtual FaultAction onEnqueue(const Bus &bus, const BusOp &op) = 0;
};

/** Interface every device on a bus implements. */
class BusAgent
{
  public:
    virtual ~BusAgent() = default;

    /**
     * Pass 1 of delivery: should this agent assert the modified line
     * for @p op? Only meaningful for row-bus REQUEST ops; the default
     * (false) suits agents that never assert it.
     */
    virtual bool supplyModifiedSignal(const BusOp &op)
    {
        (void)op;
        return false;
    }

    /**
     * Pass 2 of delivery: observe @p op. All agents on the bus,
     * including the op's sender, snoop every op (Appendix A).
     *
     * @param op The delivered operation.
     * @param modified_signal Wired-OR of pass 1 across all agents.
     */
    virtual void snoop(const BusOp &op, bool modified_signal) = 0;

    /**
     * Simulator fast path: may both delivery passes be skipped for
     * this agent? An agent may return true only if its
     * supplyModifiedSignal would return false (without side effects)
     * AND skipping its snoop body is behaviour-preserving — either
     * the body would provably do nothing for @p op, or this call
     * performed the body's only side effect itself. False negatives
     * of an underlying presence summary are a correctness bug,
     * checked in debug builds. The default (never skip) is always
     * safe; simulated results must be bit-identical whether or not
     * any agent ever returns true.
     */
    virtual bool
    snoopRejects(const BusOp &op)
    {
        (void)op;
        return false;
    }
};

/** Static timing/behaviour parameters of a bus. */
struct BusParams
{
    /** Ticks for the address/command portion of any op. */
    Tick headerTicks = 50;
    /** Ticks per data word on the bus (paper: 50 ns). */
    Tick wordTicks = 50;
    /** Words per transferred block (paper default: 16). */
    unsigned blockWords = 16;
    /** Arbitration overhead per grant. */
    Tick arbTicks = 0;
    /**
     * Deliver data ops after header + 1 word instead of after the
     * full transfer (Section 5 cut-through forwarding). The bus still
     * stays busy for the whole transfer.
     */
    bool cutThrough = false;
    /**
     * Send data blocks as fixed-size pieces of this many words
     * (Section 5's "small fixed-size pieces"; 0 disables). Each piece
     * carries its own header, so occupancy grows, but the op is
     * delivered — requested word first — after the first piece.
     */
    unsigned pieceWords = 0;
};

/**
 * One bus (a row bus or a column bus of the grid, or the single bus of
 * the baseline multi).
 */
class Bus
{
  public:
    /**
     * @param name Instance name for stats/tracing.
     * @param eq Shared event queue.
     * @param params Timing parameters.
     */
    Bus(std::string name, EventQueue &eq, const BusParams &params);

    Bus(const Bus &) = delete;
    Bus &operator=(const Bus &) = delete;

    /**
     * Attach an agent. @return the agent's slot id, used with
     * request().
     */
    unsigned attach(BusAgent *agent);

    /**
     * Enqueue @p op into slot @p slot's FIFO and start arbitration if
     * the bus is idle. Ops from one slot are delivered in FIFO order
     * (unless a fault hook drops, delays or duplicates the op).
     */
    void request(unsigned slot, BusOp op);

    /**
     * Install (or clear, with nullptr) the fault hook consulted on
     * every request(). At most one hook per bus; the fault injector
     * owns the composition of multiple fault specs.
     */
    void setFaultHook(BusFaultHook *hook) { faultHook = hook; }

    const std::string &name() const { return _name; }
    const BusParams &params() const { return _params; }

    /** Number of ops delivered so far. */
    std::uint64_t opsDelivered() const { return statOps.value(); }

    /** Ticks the bus has been occupied. */
    Tick busyTicks() const { return statBusyTicks.value(); }

    /** Utilisation over [0, now]. */
    double utilization() const;

    /** Register this bus's stats under @p parent. */
    void regStats(StatGroup &parent);

    /** Pending (undelivered) op count, for drain checks. */
    std::size_t pendingOps() const { return pending; }

    /**
     * Fail-stop this bus permanently (docs/ROBUSTNESS.md): arbitration
     * stops granting, every queued op is discarded, and later
     * request() calls fall on deaf ears (counted in dead_drops).
     * Already-granted in-flight deliveries are suppressed — the wire
     * went silent mid-transfer. pendingOps() settles back to zero as
     * those events fire, so drain() still terminates.
     */
    void failStop();

    /** True once failStop() was called. */
    bool dead() const { return dead_; }

    /**
     * Pin this bus's internal events (arbitrate/deliver/release) to
     * parallel-engine lane @p lane (see sim/parallel_engine.hh). A
     * request() arriving from a foreign lane is deferred to this lane
     * at the next window barrier in canonical order. Lane 0 (the
     * serial lane, also the sequential-engine default) is always
     * valid.
     */
    void setScheduleLane(unsigned lane) { lane_ = lane; }

    /** The engine lane this bus's events run on. */
    unsigned scheduleLane() const { return lane_; }

  private:
    /** Assign a serial and place @p op in slot @p slot's FIFO. */
    void enqueue(unsigned slot, BusOp op);

    /** Occupancy of @p op on the wire. */
    Tick occupancy(const BusOp &op) const;

    /** Grant the next queued op if the bus is idle. */
    void tryArbitrate();

    /** Broadcast @p op to all agents (two-pass). */
    void deliver(const BusOp &op);

    std::string _name;
    EventQueue &eq;
    BusParams _params;

    /** Trace identity, derived from the instance name ("row3" /
     *  "col1"; anything else is a generic Bus). */
    TraceComp traceComp = TraceComp::Bus;
    std::uint32_t traceIndex = 0;

    /** Profiling identity, derived like the trace identity. */
    ProfDomain profDom;

    /**
     * One queued (op, enqueue tick) entry of a per-slot FIFO. Entries
     * live in a pooled slab (free-listed vector) and are chained
     * through `next`, so steady-state enqueue/dequeue traffic reuses
     * slab slots instead of churning deque nodes through the
     * allocator.
     */
    struct QueuedOp
    {
        BusOp op;
        Tick enqTick = 0;
        std::uint32_t next = noEntry;
    };

    /** Head/tail slab indices of one slot's FIFO. */
    struct SlotQueue
    {
        std::uint32_t head = noEntry;
        std::uint32_t tail = noEntry;
    };

    static constexpr std::uint32_t noEntry = UINT32_MAX;

    /** Take a free slab entry (grows the slab if none). */
    std::uint32_t slabAlloc();
    /** Return entry @p idx to the free list. */
    void slabFree(std::uint32_t idx);

    BusFaultHook *faultHook = nullptr;
    std::vector<BusAgent *> agents;
    std::vector<SlotQueue> queues;
    std::vector<QueuedOp> slab;
    std::uint32_t slabFreeHead = noEntry;
    /** Per-agent reject decisions of the delivery in progress
     *  (reused scratch, index-parallel with `agents`). */
    std::vector<std::uint8_t> rejectScratch;
    unsigned lastGranted = 0;
    unsigned lane_ = 0; //!< parallel-engine lane (0 = serial lane)
    bool busy = false;
    bool dead_ = false;  //!< failStop() latch; never cleared
    std::size_t pending = 0;
    std::uint64_t nextSerial = 1;

    Counter statOps;
    Counter statDeadDrops;
    Counter statDataOps;
    Counter statBusyTicks;
    Distribution statQueueDelay;
    Histogram statQueueDelayHist;
    StatGroup stats;
};

} // namespace mcube

#endif // MCUBE_BUS_BUS_HH
