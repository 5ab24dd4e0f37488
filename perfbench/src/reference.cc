#include "reference.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <queue>
#include <vector>

namespace perfbench {

namespace {

struct RefEvent {
    std::uint64_t when;
    std::uint32_t id;

    bool operator<(const RefEvent &o) const { return when > o.when; }
};

struct RefPayload {
    std::uint64_t words[6];
};

volatile std::uint64_t g_refSink = 0;

}  // namespace

double
referenceKernelSeconds(std::size_t tableBytes)
{
    constexpr int kEvents = 100000;
    // Power-of-two word count, so the index is a mask.
    std::uint64_t words = 1;
    while (words * 2 * sizeof(std::uint64_t) <= tableBytes)
        words *= 2;
    static std::map<std::uint64_t, std::vector<std::uint64_t>> tables;
    std::vector<std::uint64_t> &table = tables[words];
    table.resize(words);

    // Untimed warm pass: the table is in cache when timing starts,
    // whatever the code that ran before evicted.
    std::uint64_t warm = 0;
    for (const std::uint64_t v : table)
        warm += v;
    g_refSink = g_refSink + warm;

    const auto t0 = std::chrono::steady_clock::now();
    std::priority_queue<RefEvent> queue;
    for (std::uint32_t i = 0; i < 512; ++i)
        queue.push({i, i});
    std::uint64_t x = 0x9e3779b97f4a7c15ull, acc = 0;
    for (int n = 0; n < kEvents; ++n) {
        const RefEvent e = queue.top();
        queue.pop();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const auto payload = std::make_shared<RefPayload>();
        payload->words[0] = x;
        std::uint64_t &slot = table[x & (words - 1)];
        slot += e.when;
        acc += slot + payload->words[0];
        queue.push({e.when + 1 + x % 1000, e.id});
    }
    g_refSink = g_refSink + acc;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

}  // namespace perfbench
