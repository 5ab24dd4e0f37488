/**
 * @file
 * Property-style parameterized sweeps over the NoC and the address
 * map: conservation (everything injected is delivered), ordering, and
 * mapping invariants across topologies, sizes, and geometries.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/rng.h"
#include "hmc/address_map.h"
#include "noc/network.h"
#include "sim/component.h"

namespace hmcsim {
namespace {

class RootComponent : public Component
{
  public:
    explicit RootComponent(Kernel &k) : Component(k, nullptr, "root") {}
};

// ----- NoC conservation across topologies and message sizes -----

using NocParam = std::tuple<std::string, std::uint32_t>;

class NocConservation : public ::testing::TestWithParam<NocParam>
{
};

TEST_P(NocConservation, AllInjectedMessagesDeliveredExactlyOnce)
{
    const auto &[topo, flits] = GetParam();
    Kernel kernel;
    RootComponent root(kernel);
    RouterParams params;
    Network net(kernel, &root, "noc", makeTopology(topo, 16, 4, 2),
                params);

    std::vector<int> delivered(net.numEndpoints(), 0);
    std::vector<std::uint64_t> flit_sum(net.numEndpoints(), 0);
    for (NodeId e = 0; e < net.numEndpoints(); ++e) {
        Network::EndpointOps ops;
        ops.tryReserve = [](std::uint32_t) { return true; };
        ops.deliver = [&delivered, &flit_sum, e](const NocMessage &m) {
            ++delivered[e];
            flit_sum[e] += m.flits;
        };
        net.setEndpoint(e, std::move(ops));
    }

    const int kMessages = 300;
    Rng rng(1234);
    int injected = 0;
    while (injected < kMessages) {
        const NodeId src = injected % 2;  // links inject requests
        const NodeId dst = 2 + rng.nextBelow(16);
        if (net.canInject(src, flits)) {
            NocMessage m;
            m.id = injected;
            m.src = src;
            m.dst = dst;
            m.flits = flits;
            net.inject(src, m);
            ++injected;
        } else {
            kernel.run();
        }
    }
    kernel.run();

    int total = 0;
    std::uint64_t total_flits = 0;
    for (NodeId e = 0; e < net.numEndpoints(); ++e) {
        total += delivered[e];
        total_flits += flit_sum[e];
    }
    EXPECT_EQ(total, kMessages);
    EXPECT_EQ(total_flits,
              static_cast<std::uint64_t>(kMessages) * flits);
    EXPECT_EQ(net.messagesDelivered(), static_cast<std::uint64_t>(total));
    EXPECT_EQ(delivered[0] + delivered[1], 0);  // links got nothing
}

INSTANTIATE_TEST_SUITE_P(
    TopologiesAndSizes, NocConservation,
    ::testing::Combine(::testing::Values("quadrant_xbar", "quadrant_ring",
                                         "single_switch"),
                       ::testing::Values(1u, 2u, 5u, 9u, 16u)));

// ----- pairwise ordering: same (src, dst) stays FIFO -----

class NocOrdering : public ::testing::TestWithParam<std::string>
{
};

TEST_P(NocOrdering, SameFlowStaysInOrder)
{
    Kernel kernel;
    RootComponent root(kernel);
    RouterParams params;
    Network net(kernel, &root, "noc",
                makeTopology(GetParam(), 16, 4, 2), params);

    std::vector<PacketId> arrivals;
    for (NodeId e = 0; e < net.numEndpoints(); ++e) {
        Network::EndpointOps ops;
        ops.tryReserve = [](std::uint32_t) { return true; };
        ops.deliver = [&arrivals, e](const NocMessage &m) {
            if (e == 10)
                arrivals.push_back(m.id);
        };
        net.setEndpoint(e, std::move(ops));
    }
    int injected = 0;
    while (injected < 100) {
        if (!net.canInject(0, 3)) {
            kernel.run();
            continue;
        }
        NocMessage m;
        m.id = injected;
        m.src = 0;
        m.dst = 10;
        m.flits = 3;
        net.inject(0, m);
        ++injected;
    }
    kernel.run();
    ASSERT_EQ(arrivals.size(), 100u);
    for (std::size_t i = 0; i < arrivals.size(); ++i)
        EXPECT_EQ(arrivals[i], i);
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, NocOrdering,
                         ::testing::Values("quadrant_xbar",
                                           "quadrant_ring",
                                           "single_switch"));

// ----- address map invariants across geometries -----

using MapParam = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                            std::string>;

class AddressMapProperty : public ::testing::TestWithParam<MapParam>
{
};

TEST_P(AddressMapProperty, RoundTripAndFieldBounds)
{
    const auto &[vaults, banks, block, scheme] = GetParam();
    HmcConfig cfg;
    cfg.numVaults = vaults;
    cfg.numQuadrants = vaults >= 4 ? 4 : vaults;
    cfg.numBanksPerVault = banks;
    cfg.blockBytes = block;
    cfg.rowBytes = std::max(cfg.rowBytes, block);
    cfg.mapScheme = scheme;
    cfg.validate();
    const AddressMap map(cfg);

    Rng rng(99);
    for (int i = 0; i < 500; ++i) {
        const Addr a = rng.next() & (cfg.capacityBytes - 1);
        const DecodedAddr d = map.decode(a);
        EXPECT_LT(d.vault, vaults);
        EXPECT_LT(d.bank, banks);
        EXPECT_LT(d.blockOffset, block);
        EXPECT_EQ(map.encode(d), a);
    }
}

TEST_P(AddressMapProperty, PatternsHitExactlyTheRequestedSets)
{
    const auto &[vaults, banks, block, scheme] = GetParam();
    HmcConfig cfg;
    cfg.numVaults = vaults;
    cfg.numQuadrants = vaults >= 4 ? 4 : vaults;
    cfg.numBanksPerVault = banks;
    cfg.blockBytes = block;
    cfg.rowBytes = std::max(cfg.rowBytes, block);
    cfg.mapScheme = scheme;
    const AddressMap map(cfg);

    Rng rng(7);
    for (std::uint32_t nv = 1; nv <= vaults; nv *= 2) {
        for (std::uint32_t nb = 1; nb <= banks; nb *= 4) {
            const AddressPattern p = map.pattern(nv, nb);
            std::set<VaultId> vs;
            std::set<BankId> bs;
            for (int i = 0; i < 800; ++i) {
                const DecodedAddr d = map.decode(
                    p.apply(rng.next() & (cfg.capacityBytes - 1)));
                vs.insert(d.vault);
                bs.insert(d.bank);
                EXPECT_LT(d.vault, nv);
                EXPECT_LT(d.bank, nb);
            }
            EXPECT_EQ(vs.size(), nv);
            EXPECT_EQ(bs.size(), nb);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, AddressMapProperty,
    ::testing::Values(
        MapParam{16, 16, 128, "vault_then_bank"},
        MapParam{16, 16, 128, "bank_then_vault"},
        MapParam{16, 16, 32, "vault_then_bank"},
        MapParam{8, 16, 128, "vault_then_bank"},
        MapParam{16, 8, 64, "bank_then_vault"},
        MapParam{4, 4, 16, "vault_then_bank"}));

}  // namespace
}  // namespace hmcsim
