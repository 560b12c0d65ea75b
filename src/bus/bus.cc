#include "bus/bus.hh"

#include <cassert>
#include <utility>

#include "sim/log.hh"

namespace mcube
{

Bus::Bus(std::string name, EventQueue &eq, const BusParams &params)
    : _name(std::move(name)), eq(eq), _params(params), stats(_name)
{
    stats.addCounter("ops", statOps, "bus operations delivered");
    stats.addCounter("dead_drops", statDeadDrops,
                     "ops discarded because the bus fail-stopped");
    stats.addCounter("data_ops", statDataOps,
                     "operations carrying a data block");
    stats.addCounter("busy_ticks", statBusyTicks,
                     "ticks the bus was occupied");
    stats.addDistribution("queue_delay", statQueueDelay,
                          "ticks from enqueue to grant");
    stats.addHistogram("queue_delay_hist", statQueueDelayHist,
                       "enqueue-to-grant delay distribution");

    if (_name.rfind("row", 0) == 0) {
        traceComp = TraceComp::RowBus;
        traceIndex = static_cast<std::uint32_t>(
            std::atoi(_name.c_str() + 3));
        profDom = {ProfDomain::Dim::Row,
                   static_cast<std::uint16_t>(traceIndex)};
    } else if (_name.rfind("col", 0) == 0) {
        traceComp = TraceComp::ColBus;
        traceIndex = static_cast<std::uint32_t>(
            std::atoi(_name.c_str() + 3));
        profDom = {ProfDomain::Dim::Col,
                   static_cast<std::uint16_t>(traceIndex)};
    }
}

unsigned
Bus::attach(BusAgent *agent)
{
    assert(agent);
    agents.push_back(agent);
    queues.emplace_back();
    return static_cast<unsigned>(agents.size() - 1);
}

void
Bus::request(unsigned slot, BusOp op)
{
    assert(slot < queues.size());
    if (eq.foreignLane(lane_)) {
        // Parallel engine, caller runs on another lane (e.g. a
        // controller relaying a row-bus delivery onto its column
        // bus): this bus's state may be live on its own lane right
        // now. Re-issue the request from this lane's context at the
        // next window barrier, in canonical cross-lane order.
        eq.deferToLane(lane_,
                       [this, slot, op = std::move(op)]() mutable {
                           request(slot, std::move(op));
                       });
        return;
    }
    if (dead_) {
        ++statDeadDrops;
        MCUBE_LOG(LogCat::Bus, eq.now(),
                  _name << " DEAD drop slot=" << slot << " " << op);
        return;
    }
    if (faultHook) {
        FaultAction act = faultHook->onEnqueue(*this, op);
        if (act.drop) {
            MCUBE_LOG(LogCat::Bus, eq.now(),
                      _name << " FAULT drop slot=" << slot << " " << op);
            return;
        }
        if (act.duplicate) {
            MCUBE_LOG(LogCat::Bus, eq.now(),
                      _name << " FAULT dup slot=" << slot << " " << op);
            enqueue(slot, op);
        }
        if (act.delayTicks > 0) {
            MCUBE_LOG(LogCat::Bus, eq.now(),
                      _name << " FAULT delay " << act.delayTicks
                            << " slot=" << slot << " " << op);
            eq.scheduleToLane(lane_, act.delayTicks, [this, slot, op] {
                enqueue(slot, op);
                if (!busy)
                    tryArbitrate();
            });
            if (!busy)
                tryArbitrate();
            return;
        }
    }
    enqueue(slot, op);
    if (!busy)
        tryArbitrate();
}

std::uint32_t
Bus::slabAlloc()
{
    if (slabFreeHead != noEntry) {
        std::uint32_t idx = slabFreeHead;
        slabFreeHead = slab[idx].next;
        return idx;
    }
    slab.emplace_back();
    return static_cast<std::uint32_t>(slab.size() - 1);
}

void
Bus::slabFree(std::uint32_t idx)
{
    slab[idx].next = slabFreeHead;
    slabFreeHead = idx;
}

void
Bus::enqueue(unsigned slot, BusOp op)
{
    // A fault-delayed enqueue may land after a fail-stop; it dies on
    // the dead wire like everything else.
    if (dead_) {
        ++statDeadDrops;
        return;
    }
    op.serial = nextSerial++;
    MCUBE_LOG(LogCat::Bus, eq.now(),
              _name << " enq slot=" << slot << " " << op);
    std::uint32_t idx = slabAlloc();
    slab[idx].op = op;
    slab[idx].enqTick = eq.now();
    slab[idx].next = noEntry;
    SlotQueue &q = queues[slot];
    if (q.tail == noEntry)
        q.head = idx;
    else
        slab[q.tail].next = idx;
    q.tail = idx;
    ++pending;
}

Tick
Bus::occupancy(const BusOp &op) const
{
    if (op.hasData && _params.pieceWords > 0
        && _params.pieceWords < _params.blockWords) {
        // One header per piece plus the full block of words.
        Tick pieces = (_params.blockWords + _params.pieceWords - 1)
                    / _params.pieceWords;
        return pieces * _params.headerTicks
             + static_cast<Tick>(_params.blockWords)
                   * _params.wordTicks;
    }
    Tick t = _params.headerTicks;
    if (op.hasData)
        t += static_cast<Tick>(_params.blockWords) * _params.wordTicks;
    return t;
}

void
Bus::tryArbitrate()
{
    if (busy || dead_)
        return;

    MCUBE_PROF_SCOPE(profScope, ProfKind::BusArb, traceIndex, profDom);

    // Round-robin scan starting after the last granted slot.
    const auto n = static_cast<unsigned>(queues.size());
    unsigned chosen = n;
    for (unsigned i = 1; i <= n; ++i) {
        unsigned s = (lastGranted + i) % n;
        if (queues[s].head != noEntry) {
            chosen = s;
            break;
        }
    }
    if (chosen == n)
        return;

    busy = true;
    lastGranted = chosen;
    SlotQueue &q = queues[chosen];
    std::uint32_t idx = q.head;
    BusOp op = slab[idx].op;
    Tick enq_tick = slab[idx].enqTick;
    q.head = slab[idx].next;
    if (q.head == noEntry)
        q.tail = noEntry;
    slabFree(idx);
    Tick qdelay = eq.now() - enq_tick;
    statQueueDelay.sample(static_cast<double>(qdelay));
    statQueueDelayHist.sample(static_cast<double>(qdelay));
    MCUBE_TRACE((TraceEvent{eq.now(), TracePhase::BusGrant, traceComp,
                            op.txn, op.params, traceIndex, op.origin,
                            op.addr, op.reqSeq, op.serial,
                            static_cast<std::int64_t>(qdelay)}));

    Tick occ = _params.arbTicks + occupancy(op);
    statBusyTicks += occ;
    if (op.hasData)
        ++statDataOps;

    // Cut-through: snoopers see (and may forward) a data op after the
    // first word; the wire is still held for the whole block. Piece
    // transfers deliver after the first piece (requested word first).
    Tick deliver_at = occ;
    if (op.hasData && _params.pieceWords > 0
        && _params.pieceWords < _params.blockWords) {
        deliver_at = _params.arbTicks + _params.headerTicks
                   + static_cast<Tick>(_params.pieceWords)
                         * _params.wordTicks;
    } else if (_params.cutThrough && op.hasData) {
        deliver_at = _params.arbTicks + _params.headerTicks
                   + _params.wordTicks;
    }

    if (deliver_at == occ) {
        // Common case (no cut-through / pieces): delivery and bus
        // release land on the same tick, in that order. Batch them
        // into one event — half the queue traffic of the split form,
        // with an identical firing sequence.
        eq.scheduleToLane(lane_, occ, [this, op = std::move(op)] {
            deliver(op);
            busy = false;
            tryArbitrate();
        });
    } else {
        eq.scheduleToLane(lane_, deliver_at,
                          [this, op = std::move(op)] {
                              deliver(op);
                          });
        eq.scheduleToLane(lane_, occ, [this] {
            busy = false;
            tryArbitrate();
        });
    }
}

void
Bus::deliver(const BusOp &op)
{
    MCUBE_PROF_SCOPE(profScope, ProfKind::BusDeliver, traceIndex,
                     profDom);
    if (dead_) {
        // An in-flight grant whose delivery event was already
        // scheduled when the bus died: the transfer never completes.
        ++statDeadDrops;
        assert(pending > 0);
        --pending;
        return;
    }
    MCUBE_LOG(LogCat::Bus, eq.now(), _name << " deliver " << op);
    MCUBE_TRACE((TraceEvent{eq.now(), TracePhase::BusDeliver, traceComp,
                            op.txn, op.params, traceIndex, op.origin,
                            op.addr, op.reqSeq, op.serial, 0}));
    ++statOps;
    assert(pending > 0);
    --pending;

    // Fast-reject pass: an agent whose presence summary rejects the
    // address skips both delivery passes. A rejecting agent's
    // supplyModifiedSignal is guaranteed false with no side effects
    // (see BusAgent::snoopRejects), so the wired-OR is unchanged;
    // decisions are cached per agent because an agent's snoop may
    // mutate only its own state, never another agent's.
    rejectScratch.resize(agents.size());
    bool modified_signal = false;
    for (std::size_t i = 0; i < agents.size(); ++i) {
        bool rej = agents[i]->snoopRejects(op);
        rejectScratch[i] = rej;
        if (!rej)
            modified_signal |= agents[i]->supplyModifiedSignal(op);
    }
    for (std::size_t i = 0; i < agents.size(); ++i)
        if (!rejectScratch[i])
            agents[i]->snoop(op, modified_signal);
}

void
Bus::failStop()
{
    if (dead_)
        return;
    dead_ = true;
    for (SlotQueue &q : queues) {
        std::uint32_t idx = q.head;
        while (idx != noEntry) {
            std::uint32_t next = slab[idx].next;
            slabFree(idx);
            ++statDeadDrops;
            assert(pending > 0);
            --pending;
            idx = next;
        }
        q.head = q.tail = noEntry;
    }
    MCUBE_LOG(LogCat::Bus, eq.now(), _name << " FAIL-STOP");
}

double
Bus::utilization() const
{
    Tick now = eq.now();
    if (now == 0)
        return 0.0;
    return static_cast<double>(statBusyTicks.value())
         / static_cast<double>(now);
}

void
Bus::regStats(StatGroup &parent)
{
    parent.addChild(stats);
}

} // namespace mcube
