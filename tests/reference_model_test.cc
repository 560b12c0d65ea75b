/** @file
 * Property tests pitting the cache structures against naive reference
 * models over long random operation sequences, across geometries.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "cache/cache_array.hh"
#include "cache/mlt.hh"
#include "cache/processor_cache.hh"
#include "sim/hash.hh"
#include "sim/random.hh"

using namespace mcube;

namespace
{

/** Naive set-associative LRU reference: per set, an ordered list of
 *  (addr) with MRU at the front. */
class RefLru
{
  public:
    /** @param mixed_index Mirror the mixed set index of CacheArray /
     *  ModifiedLineTable instead of plain addr % sets (which the L1
     *  processor cache still uses). */
    RefLru(std::size_t sets, unsigned assoc, bool mixed_index = false)
        : sets(sets), assoc(assoc), mixed(mixed_index)
    {
        lists.resize(sets);
    }

    std::size_t
    setOf(Addr a) const
    {
        return mixed ? static_cast<std::size_t>(mix64(a)) % sets
                     : a % sets;
    }

    bool
    contains(Addr a) const
    {
        const auto &l = lists[setOf(a)];
        return std::find(l.begin(), l.end(), a) != l.end();
    }

    void
    touch(Addr a)
    {
        auto &l = lists[setOf(a)];
        auto it = std::find(l.begin(), l.end(), a);
        if (it != l.end()) {
            l.erase(it);
            l.push_front(a);
        }
    }

    /** Insert; returns the evicted address if the set overflowed. */
    std::optional<Addr>
    insert(Addr a)
    {
        auto &l = lists[setOf(a)];
        auto it = std::find(l.begin(), l.end(), a);
        if (it != l.end()) {
            l.erase(it);
            l.push_front(a);
            return std::nullopt;
        }
        l.push_front(a);
        if (l.size() > assoc) {
            Addr victim = l.back();
            l.pop_back();
            return victim;
        }
        return std::nullopt;
    }

    bool
    remove(Addr a)
    {
        auto &l = lists[setOf(a)];
        auto it = std::find(l.begin(), l.end(), a);
        if (it == l.end())
            return false;
        l.erase(it);
        return true;
    }

    std::size_t
    size() const
    {
        std::size_t n = 0;
        for (const auto &l : lists)
            n += l.size();
        return n;
    }

  private:
    std::size_t sets;
    unsigned assoc;
    bool mixed;
    std::vector<std::list<Addr>> lists;
};

// gtest prints a parameter that has no PrintTo as a byte dump, and
// the ctest case names carry that dump; the padding is spelled out and
// zeroed so those names do not pick up stack garbage run to run.
struct Geometry
{
    Geometry(std::size_t sets, unsigned assoc, std::uint64_t seed)
        : sets(sets), assoc(assoc), seed(seed)
    {}

    std::size_t sets;
    unsigned assoc;
    std::uint32_t pad = 0;
    std::uint64_t seed;
};
static_assert(sizeof(Geometry) == 24, "Geometry has hidden padding");

std::string
geomName(const ::testing::TestParamInfo<Geometry> &info)
{
    return "s" + std::to_string(info.param.sets) + "w"
         + std::to_string(info.param.assoc) + "_r"
         + std::to_string(info.param.seed);
}

} // namespace

class MltVsReference : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(MltVsReference, LongRandomSequenceMatches)
{
    const Geometry &g = GetParam();
    ModifiedLineTable mlt({g.sets, g.assoc});
    RefLru ref(g.sets, g.assoc, true);
    Random rng(g.seed);

    for (int step = 0; step < 4000; ++step) {
        Addr a = rng.below(static_cast<std::uint32_t>(
            g.sets * g.assoc * 3));
        int op = rng.below(3);
        if (op == 0) {
            auto ev1 = mlt.insert(a);
            auto ev2 = ref.insert(a);
            ASSERT_EQ(ev1.has_value(), ev2.has_value())
                << "step " << step;
            if (ev1) {
                ASSERT_EQ(*ev1, *ev2) << "step " << step;
            }
        } else if (op == 1) {
            ASSERT_EQ(mlt.remove(a), ref.remove(a)) << "step " << step;
        } else {
            ASSERT_EQ(mlt.contains(a), ref.contains(a))
                << "step " << step;
        }
        if (step % 256 == 0) {
            ASSERT_EQ(mlt.size(), ref.size()) << "step " << step;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Geometries, MltVsReference,
                         ::testing::Values(Geometry{1, 1, 1},
                                           Geometry{1, 4, 2},
                                           Geometry{4, 2, 3},
                                           Geometry{8, 1, 4},
                                           Geometry{16, 4, 5},
                                           Geometry{3, 3, 6}),
                         geomName);

class CacheVsReference : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(CacheVsReference, VictimChoiceMatchesLru)
{
    const Geometry &g = GetParam();
    CacheArray cache({g.sets, g.assoc});
    RefLru ref(g.sets, g.assoc, true);
    Random rng(g.seed * 31);

    // Model fills and touches; allocSlot's victim must be the LRU
    // line of the set whenever the set is full of valid tags.
    for (int step = 0; step < 4000; ++step) {
        Addr a = rng.below(static_cast<std::uint32_t>(
            g.sets * g.assoc * 3));
        if (rng.chance(0.6)) {
            CacheLine *slot = cache.allocSlot(a);
            bool full_set_eviction =
                slot->tagValid && slot->addr != a;
            auto ref_victim = ref.insert(a);
            if (full_set_eviction) {
                ASSERT_TRUE(ref_victim.has_value()) << "step " << step;
                ASSERT_EQ(slot->addr, *ref_victim) << "step " << step;
            }
            cache.fill(slot, a, Mode::Shared, LineData{});
        } else {
            CacheLine *l = cache.touch(a);
            ref.touch(a);
            ASSERT_EQ(l != nullptr, ref.contains(a)) << "step " << step;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheVsReference,
                         ::testing::Values(Geometry{1, 2, 1},
                                           Geometry{2, 4, 2},
                                           Geometry{8, 2, 3},
                                           Geometry{16, 8, 4}),
                         geomName);

TEST(ProcessorCacheVsReference, LruMatches)
{
    ProcessorCache l1({4, 2, 10});
    RefLru ref(4, 2);
    Random rng(77);
    for (int step = 0; step < 3000; ++step) {
        Addr a = rng.below(24);
        if (rng.chance(0.5)) {
            l1.fill(a, a * 10);
            ref.insert(a);
        } else if (rng.chance(0.3)) {
            l1.purge(a);
            ref.remove(a);
        } else {
            std::uint64_t tok = 0;
            bool hit = l1.lookup(a, tok);
            ASSERT_EQ(hit, ref.contains(a)) << "step " << step;
            if (hit) {
                ASSERT_EQ(tok, a * 10) << "step " << step;
            }
            ref.touch(a);
        }
    }
}
