/**
 * @file
 * The event storage shared by EventQueue and every ParallelEngine
 * lane.
 *
 * The heap is the hottest structure in the simulator, so it avoids the
 * two classic costs of the obvious implementation:
 *
 *  - callables are stored in a small-buffer EventFn instead of a
 *    std::function, so the typical capture ([this, op]) never touches
 *    the heap; oversized callables transparently fall back to one
 *    allocation;
 *  - the priority queue is a 4-ary implicit heap over 24-byte
 *    (when, seq, slot) keys, with the callables parked in a stable,
 *    free-listed slab. Sift operations move only the small keys, never
 *    the callables.
 *
 * Events pushed for the same tick pop in push order (a per-heap
 * monotonic sequence number breaks ties), which keeps simulations
 * reproducible.
 */

#ifndef MCUBE_SIM_EVENT_HEAP_HH
#define MCUBE_SIM_EVENT_HEAP_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/profiler.hh"
#include "sim/types.hh"

namespace mcube
{

/**
 * A move-only type-erased callable with inline small-buffer storage.
 *
 * Sized so every capture in the simulator (the largest is a BusOp
 * plus a pointer, or a completion callback plus a TxnResult) stays
 * inline; anything larger is heap-allocated behind the same
 * interface.
 */
class EventFn
{
  public:
    /** Inline capture storage, in bytes. */
    static constexpr std::size_t bufBytes = 104;

    EventFn() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventFn>>>
    EventFn(F &&f)  // NOLINT: intentional converting constructor
    {
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>()) {
            new (buf) Fn(std::forward<F>(f));
            ops = &inlineOps<Fn>;
        } else {
            new (buf) Fn *(new Fn(std::forward<F>(f)));
            ops = &heapOps<Fn>;
        }
    }

    EventFn(EventFn &&o) noexcept { moveFrom(o); }

    EventFn &
    operator=(EventFn &&o) noexcept
    {
        if (this != &o) {
            reset();
            moveFrom(o);
        }
        return *this;
    }

    EventFn(const EventFn &) = delete;
    EventFn &operator=(const EventFn &) = delete;

    ~EventFn() { reset(); }

    explicit operator bool() const { return ops != nullptr; }

    void operator()() { ops->invoke(buf); }

    /** Whether callables of type @p Fn avoid the heap fallback. */
    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= bufBytes
            && alignof(Fn) <= alignof(std::max_align_t)
            && std::is_nothrow_move_constructible_v<Fn>;
    }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        /** Move-construct at @p dst from @p src, destroying @p src. */
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *);
    };

    template <typename Fn>
    static inline const Ops inlineOps = {
        [](void *p) { (*static_cast<Fn *>(p))(); },
        [](void *dst, void *src) {
            Fn *s = static_cast<Fn *>(src);
            new (dst) Fn(std::move(*s));
            s->~Fn();
        },
        [](void *p) { static_cast<Fn *>(p)->~Fn(); },
    };

    template <typename Fn>
    static inline const Ops heapOps = {
        [](void *p) { (**static_cast<Fn **>(p))(); },
        [](void *dst, void *src) {
            new (dst) Fn *(*static_cast<Fn **>(src));
        },
        [](void *p) { delete *static_cast<Fn **>(p); },
    };

    void
    moveFrom(EventFn &o) noexcept
    {
        ops = o.ops;
        if (ops) {
            ops->relocate(buf, o.buf);
            o.ops = nullptr;
        }
    }

    void
    reset() noexcept
    {
        if (ops) {
            ops->destroy(buf);
            ops = nullptr;
        }
    }

    const Ops *ops = nullptr;
    alignas(std::max_align_t) unsigned char buf[bufBytes];
};

/** A (when, seq)-ordered heap of EventFns (see file comment). */
class EventHeap
{
  public:
    bool empty() const { return heap.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return heap.size(); }

    /** Tick of the earliest pending event (the heap must not be
     *  empty). */
    Tick nextWhen() const { return heap.front().when; }

    /** Add @p f at tick @p when, after every event already pushed for
     *  that tick. */
    template <typename F>
    void
    push(Tick when, F &&f)
    {
        std::uint32_t slot;
        if (!freeSlots.empty()) {
            slot = freeSlots.back();
            freeSlots.pop_back();
            slots[slot] = std::forward<F>(f);
        } else {
            slot = static_cast<std::uint32_t>(slots.size());
            slots.emplace_back(std::forward<F>(f));
        }
        heap.push_back(Key{when, nextSeq++, slot});
        siftUp(heap.size() - 1);
    }

    /**
     * Pop the earliest event and invoke it. @p enter(when) runs first,
     * so the owner can advance its clock. The callable is moved out
     * and its slot freed before it runs: it may push new events
     * (growing or reusing the slab) while it runs. A non-null @p prof
     * sees the execution and times it as an Event scope.
     */
    template <typename Enter>
    void
    runNext(SimProfiler *prof, Enter &&enter)
    {
        const Key top = heap.front();
        heap.front() = heap.back();
        heap.pop_back();
        if (!heap.empty())
            siftDown(0);
        enter(top.when);
        EventFn fn = std::move(slots[top.slot]);
        freeSlots.push_back(top.slot);
        if (prof) {
            prof->onExecute(top.when, heap.size() + 1, slots.size(),
                            freeSlots.size());
            ProfScope scope(prof, ProfKind::Event, 0, {});
            fn();
        } else {
            fn();
        }
    }

  private:
    /** Heap key: priority (when, seq) plus the owning slab slot. */
    struct Key
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    static bool
    before(const Key &a, const Key &b)
    {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    }

    void
    siftUp(std::size_t i)
    {
        Key k = heap[i];
        while (i > 0) {
            std::size_t parent = (i - 1) >> 2;
            if (!before(k, heap[parent]))
                break;
            heap[i] = heap[parent];
            i = parent;
        }
        heap[i] = k;
    }

    void
    siftDown(std::size_t i)
    {
        const std::size_t n = heap.size();
        Key k = heap[i];
        for (;;) {
            std::size_t child = 4 * i + 1;
            if (child >= n)
                break;
            std::size_t best = child;
            std::size_t last = std::min(child + 4, n);
            for (std::size_t j = child + 1; j < last; ++j)
                if (before(heap[j], heap[best]))
                    best = j;
            if (!before(heap[best], k))
                break;
            heap[i] = heap[best];
            i = best;
        }
        heap[i] = k;
    }

    /** 4-ary implicit min-heap of keys. */
    std::vector<Key> heap;
    /** Stable slab of callables, indexed by Key::slot. */
    std::vector<EventFn> slots;
    std::vector<std::uint32_t> freeSlots;
    std::uint64_t nextSeq = 0;
};

} // namespace mcube

#endif // MCUBE_SIM_EVENT_HEAP_HH
