#include "sim/sweep_runner.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

namespace mcube::sweep
{

std::uint64_t
pointSeed(std::uint64_t baseSeed, std::uint64_t index)
{
    // splitmix64 finalizer over the combined value: cheap, pure, and
    // avalanching, so index 0 and index 1 share nothing.
    std::uint64_t z = baseSeed + 0x9e3779b97f4a7c15ull * (index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

unsigned
resolveJobs(unsigned requested)
{
    if (requested != 0)
        return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 1;
}

SweepRunner::SweepRunner(unsigned jobs) : _jobs(resolveJobs(jobs)) {}

void
SweepRunner::forEach(std::size_t count,
                     const std::function<void(std::size_t)> &body) const
{
    if (count == 0)
        return;

    const unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(_jobs, count));
    if (workers <= 1) {
        // Inline fast path: no threads, easiest to debug and the only
        // mode in which process-global tools (tracing) may be active.
        for (std::size_t i = 0; i < count; ++i)
            body(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::exception_ptr firstError;
    std::mutex errorLock;

    auto worker = [&] {
        for (;;) {
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            try {
                body(i);
            } catch (...) {
                std::lock_guard<std::mutex> g(errorLock);
                if (!firstError)
                    firstError = std::current_exception();
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();

    if (firstError)
        std::rethrow_exception(firstError);
}

} // namespace mcube::sweep
