#include "stats.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Quartiles
quartiles(std::vector<double> v)
{
    Quartiles q;
    if (v.size() < 2) {
        q.q1 = q.q2 = q.q3 = median(v);
        return q;
    }
    std::sort(v.begin(), v.end());
    const long ld = static_cast<long>(v.size());
    const long m = ld + 1;
    double out[3];
    for (long i = 1; i <= 3; ++i) {
        long j = std::clamp(i * m / 4, 1L, ld - 1);
        const long delta = i * m - j * 4;
        out[i - 1] = (v[j - 1] * static_cast<double>(4 - delta) +
                      v[j] * static_cast<double>(delta)) /
            4.0;
    }
    q.q1 = out[0];
    q.q2 = out[1];
    q.q3 = out[2];
    return q;
}

double
tailPercentile(std::uint64_t samples)
{
    // Percentiles in thousandths of a percent, so the ">= 10 beyond"
    // test is exact integer arithmetic.
    static const std::uint64_t kMilliPct[] = {99999, 99990, 99900,
                                              99000, 90000, 50000};
    for (const std::uint64_t p : kMilliPct) {
        if (samples * (100000 - p) >= 10 * 100000)
            return static_cast<double>(p) / 1000.0;
    }
    return 0.0;
}

std::string
digest(const std::map<std::string, double> &stats)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](const std::string &s) {
        for (const unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
    };
    char buf[64];
    for (const auto &[key, value] : stats) {
        std::snprintf(buf, sizeof buf, "=%.17g\n", value);
        mix(key);
        mix(buf);
    }
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

}  // namespace perfbench
