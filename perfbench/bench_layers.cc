/**
 * @file
 * Isolated per-layer costs: each layer's public functions called on
 * fixed, seeded inputs, reported as host ns per operation. The model is
 * a per-component regression program: one small driver per layer, no
 * surrounding system.
 *
 *   bench_layers --n N --reject-frac F [--min-seconds S]
 *
 * N sets the sizes that follow the machine (event-queue heap depth N^2,
 * N agents on the bus); F is the fraction of bus agents whose snoop the
 * presence filter rejects in the workload being attributed. Every
 * timing runs whole batches until at least S host seconds (default 0.5)
 * were timed. Prints one JSON object.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bus/bus.hh"
#include "cache/cache_array.hh"
#include "cache/mlt.hh"
#include "cache/presence_filter.hh"
#include "mem/memory_module.hh"
#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/json.hh"
#include "sim/random.hh"
#include "topology/grid_map.hh"

using namespace mcube;

namespace
{

using Clock = std::chrono::steady_clock;

/** Sink for computed results, printed at exit so no timed loop can be
 *  optimized away. */
std::uint64_t sink = 0;

/**
 * Host ns per op of @p batch, which runs one batch and returns
 * {ops done, host seconds it timed}. Batches repeat until at least
 * @p min_s seconds were timed.
 */
template <typename Batch>
double
nsPerOp(double min_s, Batch &&batch)
{
    double timed = 0.0;
    std::uint64_t ops = 0;
    while (timed < min_s) {
        const auto [n, s] = batch();
        ops += n;
        timed += s;
    }
    return timed * 1e9 / static_cast<double>(ops);
}

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** @p count seeded pseudo-random values. */
std::vector<std::uint64_t>
randomValues(std::size_t count, std::uint64_t seed)
{
    Random rng(seed);
    std::vector<std::uint64_t> v(count);
    for (auto &x : v)
        x = rng.next64();
    return v;
}

/** EventQueue schedule + pop with the heap held at @p depth events. */
double
eventQueueNs(std::size_t depth, double min_s)
{
    struct Ctx
    {
        EventQueue eq;
        std::vector<std::uint64_t> delays;
        std::size_t next = 0;
    };
    struct Refire
    {
        Ctx *c;
        void
        operator()() const
        {
            // Every event schedules one successor: depth stays fixed.
            const Tick d = 1 + c->delays[c->next++ & 4095] % 2000;
            c->eq.scheduleIn(d, Refire{c});
        }
    };
    Ctx c;
    c.delays = randomValues(4096, 11);
    for (std::size_t i = 0; i < depth; ++i)
        c.eq.schedule(1 + c.delays[i & 4095] % 2000, Refire{&c});
    return nsPerOp(min_s, [&c] {
        constexpr std::uint64_t k = 1 << 16;
        const auto t0 = Clock::now();
        const std::uint64_t ran = c.eq.run(k);
        return std::pair{ran, since(t0)};
    });
}

/** A bus agent whose fast-reject answer follows a fixed pattern with
 *  the workload's reject fraction. */
struct PatternAgent : BusAgent
{
    const std::vector<std::uint8_t> *pattern = nullptr;
    unsigned index = 0;
    std::uint64_t snooped = 0;

    bool
    snoopRejects(const BusOp &op) override
    {
        return (*pattern)[(op.serial * 31 + index) & 4095];
    }

    void
    snoop(const BusOp &op, bool) override
    {
        snooped += op.addr & 1;
    }
};

/** Bus arbitrate + two-pass deliver, per attached agent. */
double
busNs(unsigned agents, double reject_frac, double min_s)
{
    Random rng(12);
    std::vector<std::uint8_t> pattern(4096);
    for (auto &p : pattern)
        p = rng.chance(reject_frac);
    EventQueue eq;
    Bus bus("row0", eq, BusParams{});
    std::vector<PatternAgent> dummies(agents);
    for (unsigned i = 0; i < agents; ++i) {
        dummies[i].pattern = &pattern;
        dummies[i].index = i;
        bus.attach(&dummies[i]);
    }
    Addr addr = 0;
    const double ns = nsPerOp(min_s, [&] {
        constexpr unsigned k = 4096;
        const auto t0 = Clock::now();
        for (unsigned i = 0; i < k; ++i) {
            BusOp op;
            op.params = op::Request;
            op.addr = addr++;
            bus.request(i % agents, op);
        }
        eq.run();
        return std::pair{std::uint64_t(k) * agents, since(t0)};
    });
    for (const auto &d : dummies)
        sink += d.snooped;
    return ns;
}

/** PresenceFilter::mightContain with @p live entries tracked; one in
 *  eight queries is for a present address. */
double
filterNs(std::size_t live, double min_s)
{
    const auto present = randomValues(live, 13);
    const auto absent = randomValues(1 << 16, 14);
    PresenceFilter f;
    for (Addr a : present)
        f.add(a);
    std::vector<Addr> queries(1 << 16);
    for (std::size_t i = 0; i < queries.size(); ++i)
        queries[i] = i % 8 == 0 ? present[i % live] : absent[i];
    return nsPerOp(min_s, [&] {
        constexpr std::uint64_t k = 1 << 20;
        const auto t0 = Clock::now();
        std::uint64_t hits = 0;
        for (std::uint64_t i = 0; i < k; ++i)
            hits += f.mightContain(queries[i & 0xffff]);
        sink += hits;
        return std::pair{k, since(t0)};
    });
}

constexpr CacheArrayParams kCacheGeom{1024, 8};

/** A snooping-cache array at half occupancy, with its presence filter
 *  attached as in a controller. Returns the installed addresses. */
std::vector<Addr>
halfFill(CacheArray &c, PresenceFilter &f, std::uint64_t seed)
{
    c.setFilter(&f);
    auto addrs = randomValues(c.capacity() / 2, seed);
    for (Addr a : addrs)
        c.fill(c.allocSlot(a), a, Mode::Shared, LineData{});
    return addrs;
}

/** CacheArray::find, half the queries for present lines. */
double
cacheFindNs(double min_s)
{
    CacheArray c(kCacheGeom);
    PresenceFilter f;
    const auto present = halfFill(c, f, 15);
    const auto absent = randomValues(1 << 16, 16);
    std::vector<Addr> queries(1 << 16);
    for (std::size_t i = 0; i < queries.size(); ++i)
        queries[i] = i % 2 ? present[i % present.size()] : absent[i];
    return nsPerOp(min_s, [&] {
        constexpr std::uint64_t k = 1 << 20;
        const auto t0 = Clock::now();
        std::uint64_t found = 0;
        for (std::uint64_t i = 0; i < k; ++i)
            found += c.find(queries[i & 0xffff]) != nullptr;
        sink += found;
        return std::pair{k, since(t0)};
    });
}

/** CacheArray::allocSlot + fill of new lines, starting from half
 *  occupancy (free-way installs and LRU evictions mixed). Each batch
 *  rebuilds the array untimed. */
double
cacheFillNs(double min_s)
{
    const auto fresh = randomValues(kCacheGeom.numSets * kCacheGeom.assoc
                                        / 4, 17);
    std::uint64_t batch = 0;
    return nsPerOp(min_s, [&] {
        CacheArray c(kCacheGeom);
        PresenceFilter f;
        halfFill(c, f, 18 + batch++);
        const auto t0 = Clock::now();
        for (Addr a : fresh)
            c.fill(c.allocSlot(a), a, Mode::Modified, LineData{a, 0, 0});
        const double s = since(t0);
        sink += c.countMode(Mode::Modified);
        return std::pair{std::uint64_t(fresh.size()), s};
    });
}

/** ModifiedLineTable insert/remove churn at half occupancy (each
 *  insert or remove counts as one op). */
double
mltNs(double min_s)
{
    ModifiedLineTable t(MltParams{256, 4});
    PresenceFilter f;
    t.setFilter(&f);
    const auto addrs = randomValues(1 << 16, 19);
    std::deque<Addr> live;
    std::size_t next = 0;
    for (; live.size() < t.capacity() / 2; ++next) {
        t.insert(addrs[next]);
        live.push_back(addrs[next]);
    }
    return nsPerOp(min_s, [&] {
        constexpr std::uint64_t k = 1 << 16;
        const auto t0 = Clock::now();
        std::uint64_t evicted = 0;
        for (std::uint64_t i = 0; i < k; ++i, ++next) {
            const Addr a = addrs[next & 0xffff];
            evicted += t.insert(a).has_value();
            live.push_back(a);
            evicted += t.remove(live.front());
            live.pop_front();
        }
        sink += evicted;
        return std::pair{2 * k, since(t0)};
    });
}

/** FlatMap::find of present keys, in random order, with @p keys
 *  entries (the memory backing store's container). */
double
flatMapNs(std::size_t keys, double min_s)
{
    const auto k = randomValues(keys, 20);
    FlatMap<std::uint64_t, std::uint64_t> m;
    for (std::size_t i = 0; i < keys; ++i)
        m.put(k[i], i);
    Random rng(21);
    std::vector<std::uint64_t> probes(1 << 16);
    for (auto &p : probes)
        p = k[rng.below(static_cast<std::uint32_t>(keys))];
    return nsPerOp(min_s, [&] {
        constexpr std::uint64_t n = 1 << 20;
        const auto t0 = Clock::now();
        std::uint64_t sum = 0;
        for (std::uint64_t i = 0; i < n; ++i)
            sum += *m.find(probes[i & 0xffff]);
        sink += sum;
        return std::pair{n, since(t0)};
    });
}

/** MemoryModule::snoop on crafted column ops for lines homed on its
 *  column: 60% READ and 20% READ-MOD requests (READ-MOD invalidates,
 *  so later reads bounce) and 20% write-back updates. The responses
 *  each snoop schedules are run off untimed between batches. */
double
memoryNs(unsigned n, double min_s)
{
    EventQueue eq;
    GridMap grid(n);
    Bus bus("col0", eq, BusParams{});
    MemoryModule mem("mem0", eq, grid, 0, MemoryParams{});
    mem.connect(bus);

    Random rng(22);
    std::vector<BusOp> ops(1 << 14);
    for (BusOp &op : ops) {
        op.addr = static_cast<Addr>(rng.below(4096)) * n;
        op.origin = rng.below(16);
        const double r = rng.uniform();
        if (r < 0.6) {
            op.txn = TxnType::Read;
            op.params = op::Request | op::Memory;
        } else if (r < 0.8) {
            op.txn = TxnType::ReadMod;
            op.params = op::Request | op::Memory;
        } else {
            op.txn = TxnType::WriteBack;
            op.params = op::Update | op::Memory;
            op.hasData = true;
            op.data.token = rng.next64();
        }
    }
    std::size_t next = 0;
    return nsPerOp(min_s, [&] {
        constexpr unsigned k = 1024;
        const auto t0 = Clock::now();
        for (unsigned i = 0; i < k; ++i)
            mem.snoop(ops[next++ & 0x3fff], false);
        const double s = since(t0);
        eq.run();
        return std::pair{std::uint64_t(k), s};
    });
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "bench_layers: %s\nusage: bench_layers --n N "
                 "--reject-frac F [--min-seconds S]\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned n = 0;
    double reject_frac = -1.0;
    double min_s = 0.5;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--n" && has_value)
            n = static_cast<unsigned>(std::atoi(argv[++i]));
        else if (a == "--reject-frac" && has_value)
            reject_frac = std::strtod(argv[++i], nullptr);
        else if (a == "--min-seconds" && has_value)
            min_s = std::strtod(argv[++i], nullptr);
        else
            usage(("unknown argument " + a).c_str());
    }
    if (n < 2 || n > 256 || !(reject_frac >= 0.0 && reject_frac <= 1.0)
        || !(min_s > 0.0))
        usage("need 2 <= --n <= 256, --reject-frac in [0, 1] and "
              "--min-seconds > 0");

    Json out = Json::object();
    out.set("eventq_ns_per_event", eventQueueNs(std::size_t(n) * n, min_s));
    out.set("bus_ns_per_agent_delivery", busNs(n, reject_frac, min_s));
    out.set("filter_ns_per_query_64", filterNs(64, min_s));
    out.set("filter_ns_per_query_512", filterNs(512, min_s));
    out.set("filter_ns_per_query_4096", filterNs(4096, min_s));
    out.set("cache_ns_per_find", cacheFindNs(min_s));
    out.set("cache_ns_per_fill", cacheFillNs(min_s));
    out.set("mlt_ns_per_op", mltNs(min_s));
    out.set("flatmap_ns_per_probe_1k", flatMapNs(1 << 10, min_s));
    out.set("flatmap_ns_per_probe_1m", flatMapNs(1 << 20, min_s));
    out.set("mem_ns_per_snoop", memoryNs(n, min_s));
    out.set("sink", sink);
    std::cout << out.dump(-1) << std::endl;
    return 0;
}
