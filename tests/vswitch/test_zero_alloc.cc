/**
 * @file
 * The simulated hot path allocates nothing once warm: processPacket in
 * Software mode and LOOKUP_NB bursts price every packet from reusable
 * scratch. This file replaces the global operator new family of the
 * test binary with versions that count each call.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "flow/ruleset.hh"
#include "vswitch/vswitch.hh"

namespace {

std::atomic<std::uint64_t> newCalls{0};

void *
countedNew(std::size_t n, std::size_t align)
{
    newCalls.fetch_add(1, std::memory_order_relaxed);
    n = n ? n : 1;
    void *p = align > alignof(std::max_align_t)
                  ? std::aligned_alloc(align, (n + align - 1) / align * align)
                  : std::malloc(n);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t n) { return countedNew(n, 0); }
void *operator new[](std::size_t n) { return countedNew(n, 0); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedNew(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedNew(n, static_cast<std::size_t>(a));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace halo {
namespace {

TEST(ZeroAlloc, WarmSoftwareProcessPacketDoesNotAllocate)
{
    SimMemory mem(1ull << 30);
    MemoryHierarchy hier;
    CoreModel core(hier, 0);
    TrafficGenerator gen(TrafficGenerator::scenarioConfig(
        TrafficScenario::ManyFlows, 2000));
    const RuleSet rules =
        scenarioRules(TrafficScenario::ManyFlows, gen.flows(), 99);
    VSwitchConfig cfg;
    cfg.mode = LookupMode::Software;
    cfg.tupleConfig.tupleCapacity = nextPowerOfTwo(gen.flows().size() + 16);
    VirtualSwitch vs(mem, hier, core, nullptr, cfg);
    vs.installRules(rules);
    vs.warmTables();

    std::vector<Packet> packets;
    for (int i = 0; i < 6000; ++i)
        packets.push_back(gen.nextPacket());
    for (int i = 0; i < 5000; ++i)
        vs.processPacket(packets[i]);

    const std::uint64_t before = newCalls.load();
    for (int i = 5000; i < 6000; ++i)
        vs.processPacket(packets[i]);
    EXPECT_EQ(newCalls.load() - before, 0u);
    EXPECT_EQ(vs.totals().packets, 6000u);
}

TEST(ZeroAlloc, WarmNonBlockingBurstsDoNotAllocate)
{
    SimMemory mem(1ull << 30);
    MemoryHierarchy hier;
    HaloSystem halo(mem, hier);
    CoreModel core(hier, 0);
    TrafficGenerator gen(TrafficConfig{3000, 0.0, 0.5, 0xbbb});
    const RuleSet rules =
        deriveRules(gen.flows(), canonicalMasks(6), 0, 0x21);
    VSwitchConfig cfg;
    cfg.mode = LookupMode::HaloNonBlocking;
    cfg.useEmc = false;
    cfg.tupleConfig.tupleCapacity =
        nextPowerOfTwo(maxRulesPerMask(rules) + 64);
    VirtualSwitch vs(mem, hier, core, &halo, cfg);
    vs.installRules(rules);
    vs.warmTables();

    constexpr std::size_t burst = 16;
    std::vector<FiveTuple> tuples;
    for (int i = 0; i < 128 * static_cast<int>(burst); ++i)
        tuples.push_back(gen.nextTuple());
    std::vector<PacketResult> results(burst);
    auto run = [&](std::size_t first, std::size_t bursts) {
        for (std::size_t b = 0; b < bursts; ++b) {
            vs.classifyBurst(std::span<const FiveTuple>(
                                 tuples.data() + (first + b) * burst, burst),
                             results);
        }
    };
    run(0, 64);

    const std::uint64_t before = newCalls.load();
    run(64, 64);
    EXPECT_EQ(newCalls.load() - before, 0u);
    EXPECT_EQ(vs.totals().packets, 128 * burst);
}

} // namespace
} // namespace halo
