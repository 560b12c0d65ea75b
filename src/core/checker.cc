#include "core/checker.hh"

#include <algorithm>
#include <sstream>

#include "sim/log.hh"
#include "sim/profiler.hh"

namespace mcube
{

CoherenceChecker::CoherenceChecker(MulticubeSystem &sys,
                                   std::uint64_t full_check_interval)
    : sys(sys), fullInterval(full_check_interval)
{
    const unsigned n = sys.n();
    for (unsigned i = 0; i < n; ++i) {
        auto rt = std::make_unique<Tap>();
        rt->checker = this;
        rt->isRow = true;
        sys.rowBus(i).attach(rt.get());
        taps.push_back(std::move(rt));

        auto ct = std::make_unique<Tap>();
        ct->checker = this;
        ct->isRow = false;
        sys.colBus(i).attach(ct.get());
        taps.push_back(std::move(ct));
    }

    EventQueue &eq = sys.eventQueue();
    for (NodeId id = 0; id < sys.numNodes(); ++id) {
        sys.node(id).onCommitWrite =
            [this, &eq](Addr addr, std::uint64_t token) {
                auto &h = history.ref(addr);
                // A broadcast commit's wave may still be settling;
                // mark unknown and fix up when the purge count drains.
                const unsigned *pp = pendingPurges.find(addr);
                Tick settled = (pp && *pp > 0) ? maxTick : eq.now();
                h.push_back({eq.now(), token, settled});
            };
    }

    if (eq.parallelActive()) {
        // Under the window-phased engine the per-op checks read live
        // global state, which is only consistent with the canonical
        // golden history at window ends (see Tap::snoop). A one-tick
        // period makes the observer run at the end of every window.
        barrierChecks = true;
        windowChecks = eq.observe(1, [this] { flushWindowChecks(); });
    }
}

std::uint64_t
CoherenceChecker::goldenToken(Addr addr) const
{
    const std::vector<CommitEntry> *h = history.find(addr);
    if (!h || h->empty())
        return 0;
    return h->back().token;
}

bool
CoherenceChecker::tokenWasGoldenDuring(Addr addr, std::uint64_t token,
                                       Tick from, Tick to) const
{
    const std::vector<CommitEntry> *hp = history.find(addr);

    // A value v_i is golden over [when_i, when_{i+1}) but copies of it
    // may legally be observed until the invalidation wave installing
    // v_{i+1} settles (Section 4: no complete serializability).
    // Model: v_i acceptable over [when_i, settled_{i+1}].
    if (!hp || hp->empty())
        return token == 0;

    const auto &h = *hp;
    if (token == 0) {
        Tick end = h.front().settled;
        if (from <= end)
            return true;
    }
    for (std::size_t i = 0; i < h.size(); ++i) {
        if (h[i].token != token)
            continue;
        Tick start = h[i].when;
        Tick end = i + 1 < h.size() ? h[i + 1].settled : maxTick;
        if (start <= to && from <= end)
            return true;
    }
    return false;
}

void
CoherenceChecker::fail(const std::string &what)
{
    // Tag is the "I<n>" prefix every violation message carries; the
    // sweep offences don't thread their address through, so 0 here.
    auto colon = what.find(':');
    fail(colon == std::string::npos ? std::string("?")
                                    : what.substr(0, colon),
         0, what);
}

void
CoherenceChecker::fail(const std::string &invariant, Addr addr,
                       const std::string &what)
{
    ++_violations;
    if (_report.size() < 32) {
        std::ostringstream oss;
        oss << sys.eventQueue().now() << ": " << what;
        _report.push_back(oss.str());
        _records.push_back(
            {sys.eventQueue().now(), invariant, addr, what});
    }
    MCUBE_LOG(LogCat::Check, sys.eventQueue().now(),
              "VIOLATION: " << what);
}

std::string
CoherenceChecker::historyWindow(Addr addr, Tick from, Tick to) const
{
    std::ostringstream oss;
    oss << "history of line " << addr << " over [" << from << ", "
        << to << "]:";
    const std::vector<CommitEntry> *hp = history.find(addr);
    if (!hp || hp->empty())
        return oss.str() + " (never written; golden token is 0)";

    const auto &h = *hp;
    bool any = false;
    for (std::size_t i = 0; i < h.size(); ++i) {
        // Include the last commit before the window too: its value is
        // still legally observable while the next wave settles.
        Tick visible_until = i + 1 < h.size() ? h[i + 1].settled
                                              : maxTick;
        if (visible_until < from || h[i].when > to)
            continue;
        any = true;
        oss << " tok=" << h[i].token << "@" << h[i].when;
        if (h[i].settled == maxTick)
            oss << "(unsettled)";
        else if (h[i].settled != h[i].when)
            oss << "(settled@" << h[i].settled << ")";
    }
    if (!any)
        oss << " (no overlapping commits; " << h.size()
            << " total, latest tok=" << h.back().token << "@"
            << h.back().when << ")";
    return oss.str();
}

void
CoherenceChecker::afterOp(const BusOp &op, bool is_row)
{
    MCUBE_PROF_SCOPE(profScope, ProfKind::Checker, 0, {});
    ++_ops;

    bool is_write_txn = op.txn == TxnType::ReadMod
                     || op.txn == TxnType::Allocate
                     || op.txn == TxnType::Tset
                     || op.txn == TxnType::Sync;
    if (is_write_txn && op.is(op::Purge) && !op.is(op::Direct)) {
        if (!is_row && op.is(op::Reply)) {
            // Memory launched an invalidation broadcast: one row op
            // per home-column controller follows.
            pendingPurges.ref(op.addr) += sys.n();
            // If the originator was on the home column, its commit
            // hook already ran during this delivery (controllers
            // snoop before the checker tap) and believed no wave was
            // pending; reopen it.
            std::vector<CommitEntry> *hit = history.find(op.addr);
            if (hit && !hit->empty()
                && hit->back().when == sys.eventQueue().now()) {
                hit->back().settled = maxTick;
            }
        } else if (is_row) {
            unsigned *pp = pendingPurges.find(op.addr);
            if (pp && *pp > 0 && --*pp == 0) {
                // Wave settled: stamp the commit it installed. (A
                // broadcast with no commit yet — org fills later on
                // its own column — has nothing to stamp; the commit
                // hook saw pendingPurges > 0 and marked itself
                // unsettled.)
                std::vector<CommitEntry> *hit = history.find(op.addr);
                if (hit && !hit->empty()
                    && hit->back().settled == maxTick) {
                    hit->back().settled = sys.eventQueue().now();
                }
            }
        }
    }

    if (barrierChecks) {
        // Check at the window barrier, once every same-window commit
        // (possibly canonically later than this op) has landed in the
        // golden history the checks compare against.
        windowAddrs.push_back(op.addr);
        if (fullInterval && _ops % fullInterval == 0)
            sweepDue = true;
        return;
    }
    checkLine(op.addr);
    if (fullInterval && _ops % fullInterval == 0)
        fullSweep(false);
}

void
CoherenceChecker::flushWindowChecks()
{
    if (!windowAddrs.empty()) {
        // Dedup: one end-of-window check per distinct line covers
        // every op on it this window (the final state is the only one
        // observable here).
        std::sort(windowAddrs.begin(), windowAddrs.end());
        windowAddrs.erase(
            std::unique(windowAddrs.begin(), windowAddrs.end()),
            windowAddrs.end());
        for (Addr addr : windowAddrs)
            checkLine(addr);
        windowAddrs.clear();
    }
    if (sweepDue) {
        sweepDue = false;
        fullSweep(false);
    }
}

void
CoherenceChecker::onLineLost(Addr addr, std::uint64_t stale_token)
{
    history.ref(addr).push_back({sys.eventQueue().now(), stale_token,
                                 sys.eventQueue().now()});
    pendingPurges.erase(addr);
}

void
CoherenceChecker::onEpochTransition()
{
    sweepSuspects.clear();
}

void
CoherenceChecker::checkLine(Addr addr)
{
    const GridMap &grid = sys.gridMap();

    if (quarantined && quarantined(addr))
        return;

    unsigned modified_holders = 0;
    NodeId holder = invalidNode;
    for (NodeId id = 0; id < sys.numNodes(); ++id) {
        if (sys.node(id).modeOf(addr) == Mode::Modified) {
            ++modified_holders;
            holder = id;
        }
    }

    if (modified_holders > 1) {
        std::ostringstream oss;
        oss << "I1: line " << addr << " has " << modified_holders
            << " modified holders";
        fail("I1", addr, oss.str());
    }

    MemoryModule &mem = sys.memory(grid.homeColumn(addr));
    bool mem_valid = mem.lineValid(addr);

    if (modified_holders >= 1 && mem_valid) {
        std::ostringstream oss;
        oss << "I2: line " << addr << " modified at node " << holder
            << " but memory copy is valid";
        fail("I2", addr, oss.str());
    }

    std::uint64_t golden = goldenToken(addr);
    if (modified_holders == 1) {
        std::uint64_t tok = sys.node(holder).dataOf(addr).token;
        if (tok != golden) {
            std::ostringstream oss;
            oss << "I3: line " << addr << " holder " << holder
                << " token " << tok << " != golden " << golden;
            fail("I3", addr, oss.str());
        }
    }

    if (mem_valid) {
        std::uint64_t tok = mem.lineData(addr).token;
        if (tok != golden) {
            std::ostringstream oss;
            oss << "I4: line " << addr << " memory token " << tok
                << " != golden " << golden;
            fail("I4", addr, oss.str());
        }
    }
}

void
CoherenceChecker::fullSweep(bool strict)
{
    MCUBE_PROF_SCOPE(profScope, ProfKind::Checker, 1, {});
    const unsigned n = sys.n();

    // I5: MLTs identical within each column. Inserts and removes are
    // column-wide broadcasts delivered atomically, so a column's
    // tables never diverge even transiently — always strict. Retired
    // nodes froze their copy at the kill tick and are exempt; the
    // first live row of each column is the reference (a fully dead
    // column has no live table to check).
    std::vector<unsigned> ref_row(n, n);
    for (unsigned c = 0; c < n; ++c) {
        for (unsigned r = 0; r < n; ++r) {
            if (!sys.node(r, c).retired()) {
                ref_row[c] = r;
                break;
            }
        }
        if (ref_row[c] == n)
            continue;
        const ModifiedLineTable &ref = sys.node(ref_row[c], c).table();
        for (unsigned r = ref_row[c] + 1; r < n; ++r) {
            if (sys.node(r, c).retired())
                continue;
            if (!sys.node(r, c).table().identicalTo(ref)) {
                std::ostringstream oss;
                oss << "I5: MLT mismatch in column " << c << " (row "
                    << r << " vs row " << ref_row[c] << ")";
                fail(oss.str());
            }
        }
    }

    // I6/I7: every entry has a modified holder in its column, and no
    // line is tabled in two columns. A lenient sweep defers these: a
    // reply refused by its originator leaves a phantom entry until
    // the undo WRITEBACK (REMOVE) is delivered, and the sweep may run
    // inside that window. Offences are only reported once they have
    // persisted across suspectThreshold consecutive sweeps.
    std::vector<std::string> offences;
    std::unordered_map<Addr, unsigned> entry_col;
    for (unsigned c = 0; c < n; ++c) {
        if (ref_row[c] == n)
            continue;  // fully dead column: tables are frozen
        sys.node(ref_row[c], c).table().forEach([&](Addr addr) {
            if (quarantined && quarantined(addr))
                return;
            auto [it, fresh] = entry_col.emplace(addr, c);
            if (!fresh && it->second != c) {
                std::ostringstream oss;
                oss << "I7: line " << addr << " tabled in columns "
                    << it->second << " and " << c;
                offences.push_back(oss.str());
            }
            bool found = false;
            for (unsigned r = 0; r < n; ++r) {
                if (sys.node(r, c).modeOf(addr) == Mode::Modified) {
                    found = true;
                    break;
                }
            }
            if (!found) {
                std::ostringstream oss;
                oss << "I6: line " << addr << " tabled in column " << c
                    << " with no modified holder there";
                offences.push_back(oss.str());
            }
        });
    }

    if (strict) {
        for (const auto &o : offences)
            fail(o);
        return;
    }

    const Tick now = sys.eventQueue().now();
    std::unordered_map<std::string, Tick> next;
    for (const auto &o : offences) {
        auto it = sweepSuspects.find(o);
        Tick first = it == sweepSuspects.end() ? now : it->second;
        if (degradedDepth == 0 && now - first >= suspectWindowTicks) {
            fail(o + " (persisted for " + std::to_string(now - first)
                 + " ticks)");
            first = now;  // re-report once per window, not per op
        }
        next[o] = first;
    }
    sweepSuspects = std::move(next);
}

} // namespace mcube
