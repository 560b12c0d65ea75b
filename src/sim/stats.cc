#include "sim/stats.hh"

#include <algorithm>
#include <iomanip>

namespace mcube
{

double
Distribution::variance() const
{
    if (n == 0)
        return 0.0;
    double v = m2 / static_cast<double>(n);
    return v > 0.0 ? v : 0.0;
}

double
Histogram::percentile(double q) const
{
    if (n == 0)
        return 0.0;
    if (q <= 0.0)
        return _min;
    if (q >= 1.0)
        return _max;

    // Rank of the requested quantile among the n samples (1-based).
    double rank = q * static_cast<double>(n);
    std::uint64_t cum = 0;
    for (unsigned b = 0; b < numBuckets; ++b) {
        if (buckets[b] == 0)
            continue;
        double lo = lowerBound(b);
        double hi = upperBound(b);
        double prev = static_cast<double>(cum);
        cum += buckets[b];
        if (static_cast<double>(cum) >= rank) {
            // Interpolate within the bucket by rank position.
            double frac = (rank - prev) / static_cast<double>(buckets[b]);
            double v = lo + frac * (hi - lo);
            return std::clamp(v, _min, _max);
        }
    }
    return _max;
}

void
StatGroup::addCounter(const std::string &name, const Counter &c,
                      const std::string &desc)
{
    counters.push_back({name, &c, desc});
}

void
StatGroup::addDistribution(const std::string &name, const Distribution &d,
                           const std::string &desc)
{
    dists.push_back({name, &d, desc});
}

void
StatGroup::addHistogram(const std::string &name, const Histogram &h,
                        const std::string &desc)
{
    hists.push_back({name, &h, desc});
}

void
StatGroup::addChild(const StatGroup &child)
{
    children.push_back(&child);
}

void
StatGroup::dump(std::ostream &os, int indent) const
{
    std::string pad(indent * 2, ' ');
    os << pad << _name << ":\n";
    for (const auto &e : counters) {
        os << pad << "  " << std::left << std::setw(32) << e.name
           << std::right << std::setw(14) << e.counter->value();
        if (!e.desc.empty())
            os << "   # " << e.desc;
        os << "\n";
    }
    for (const auto &e : dists) {
        os << pad << "  " << std::left << std::setw(32) << e.name
           << std::right << " n=" << e.dist->count()
           << " mean=" << e.dist->mean()
           << " min=" << e.dist->min()
           << " max=" << e.dist->max()
           << " stddev=" << e.dist->stddev();
        if (!e.desc.empty())
            os << "   # " << e.desc;
        os << "\n";
    }
    for (const auto &e : hists) {
        os << pad << "  " << std::left << std::setw(32) << e.name
           << std::right << " n=" << e.hist->count()
           << " mean=" << e.hist->mean()
           << " min=" << e.hist->min()
           << " max=" << e.hist->max()
           << " p50=" << e.hist->p50()
           << " p95=" << e.hist->p95()
           << " p99=" << e.hist->p99()
           << " p99.9=" << e.hist->p999();
        if (!e.desc.empty())
            os << "   # " << e.desc;
        os << "\n";
    }
    for (const auto *c : children)
        c->dump(os, indent + 1);
}

void
StatGroup::flatten(std::map<std::string, double> &out,
                   const std::string &prefix) const
{
    FlatStats flat;
    std::string scratch = prefix;
    flattenInto(flat, scratch);
    for (auto &[name, value] : flat)
        out[std::move(name)] = value;
}

void
StatGroup::flatten(FlatStats &out) const
{
    std::string scratch;
    flattenInto(out, scratch);
}

void
StatGroup::flattenInto(FlatStats &out, std::string &prefix) const
{
    const std::size_t outer = prefix.size();
    if (!prefix.empty())
        prefix += '.';
    prefix += _name;
    const std::size_t base = prefix.size();

    auto emit = [&](const std::string &name, const char *suffix,
                    double value) {
        prefix.resize(base);
        prefix += '.';
        prefix += name;
        if (suffix)
            prefix += suffix;
        out.emplace_back(prefix, value);
    };

    for (const auto &e : counters)
        emit(e.name, nullptr,
             static_cast<double>(e.counter->value()));
    for (const auto &e : dists) {
        emit(e.name, nullptr, e.dist->mean());
        emit(e.name, ".variance", e.dist->variance());
        emit(e.name, ".stddev", e.dist->stddev());
    }
    for (const auto &e : hists) {
        emit(e.name, nullptr, e.hist->mean());
        emit(e.name, ".p50", e.hist->p50());
        emit(e.name, ".p95", e.hist->p95());
        emit(e.name, ".p99", e.hist->p99());
        emit(e.name, ".p999", e.hist->p999());
    }
    for (const auto *c : children) {
        prefix.resize(base);
        c->flattenInto(out, prefix);
    }
    prefix.resize(outer);
}

} // namespace mcube
