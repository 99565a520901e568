/**
 * @file
 * Unit and calibration tests for the full memory hierarchy.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <random>
#include <string>
#include <vector>

#include "mem/hierarchy.hh"

namespace halo {
namespace {

TEST(Hierarchy, L1HitAfterFirstAccess)
{
    MemoryHierarchy h;
    const AccessResult miss = h.coreAccess(0, 0x10000, false);
    EXPECT_EQ(miss.level, MemLevel::DRAM);
    const AccessResult hit = h.coreAccess(0, 0x10000, false);
    EXPECT_EQ(hit.level, MemLevel::L1);
    EXPECT_EQ(hit.latency, h.config().l1Latency);
}

TEST(Hierarchy, LevelsAreProgressivelySlower)
{
    MemoryHierarchy h;
    const Cycles l1 = h.config().l1Latency;
    h.coreAccess(0, 0x20000, false); // DRAM fill
    const Cycles dram =
        h.coreAccess(0, 0x30000, false).latency; // fresh DRAM
    const Cycles l1_hit = h.coreAccess(0, 0x20000, false).latency;
    EXPECT_EQ(l1_hit, l1);
    EXPECT_GT(dram, 150u);
}

TEST(Hierarchy, LlcHitAfterWarm)
{
    MemoryHierarchy h;
    h.warmLine(0x40000);
    const AccessResult r = h.coreAccess(0, 0x40000, false);
    EXPECT_EQ(r.level, MemLevel::LLC);
    EXPECT_GT(r.latency, h.config().l2Latency);
    EXPECT_LT(r.latency, 150u);
}

TEST(Hierarchy, SliceHashIsStableAndUniform)
{
    MemoryHierarchy h;
    std::vector<unsigned> counts(h.config().llcSlices, 0);
    for (Addr a = 0; a < 16384; ++a) {
        const SliceId s = h.sliceOf(a * cacheLineBytes);
        ASSERT_LT(s, h.config().llcSlices);
        ASSERT_EQ(s, h.sliceOf(a * cacheLineBytes + 13));
        ++counts[s];
    }
    for (unsigned c : counts) {
        EXPECT_GT(c, 16384u / 16 / 2);
        EXPECT_LT(c, 16384u / 16 * 2);
    }
}

TEST(Hierarchy, RemoteDirtyLineForwarded)
{
    MemoryHierarchy h;
    h.coreAccess(0, 0x50000, true); // core 0 dirties the line
    const AccessResult r = h.coreAccess(1, 0x50000, false);
    EXPECT_EQ(r.level, MemLevel::RemoteCache);
    EXPECT_GT(r.latency, h.config().remoteSnoopPenalty);
    // Core 0 lost its copy (MSI-style invalidate-on-forward).
    EXPECT_FALSE(h.l1(0).contains(0x50000));
}

TEST(Hierarchy, InclusionBackInvalidatesPrivateCaches)
{
    HierarchyConfig cfg;
    cfg.llcSlices = 1;
    cfg.llcSliceBytes = 4096; // tiny LLC: 64 lines, 16-way, 4 sets
    cfg.cores = 1;
    MemoryHierarchy h(cfg);
    h.coreAccess(0, 0, false);
    EXPECT_TRUE(h.l1(0).contains(0));
    // Evict line 0 from the LLC by filling its set.
    for (Addr i = 1; i <= 16; ++i)
        h.coreAccess(0, i * 4 * 64 * 4, false);
    // The LLC eviction must have purged L1/L2 too (inclusion);
    // line 0 may or may not be evicted depending on set mapping, so
    // check the invariant for every line: present in L1 => present in
    // LLC.
    for (Addr i = 0; i <= 16; ++i) {
        const Addr a = i * 4 * 64 * 4;
        if (h.l1(0).contains(a))
            EXPECT_TRUE(h.llcSlice(h.sliceOf(a)).contains(a));
    }
    EXPECT_GT(h.stats().counterValue("back_invalidations"), 0u);
}

TEST(Hierarchy, ChaAccessFasterThanCoreAccess)
{
    MemoryHierarchy h;
    // Warm a set of lines into the LLC, then compare average access
    // latency from a core against a CHA (paper Fig. 10: ~4.1x).
    std::uint64_t core_total = 0, cha_total = 0;
    const unsigned n = 512;
    for (unsigned i = 0; i < n; ++i) {
        const Addr a = 0x100000 + static_cast<Addr>(i) * 64;
        h.warmLine(a);
        cha_total += h.chaAccess(i % 16, a, false).latency;
    }
    h.flushAll();
    for (unsigned i = 0; i < n; ++i) {
        const Addr a = 0x100000 + static_cast<Addr>(i) * 64;
        h.warmLine(a);
        core_total += h.coreAccess(0, a, false).latency;
        h.l1(0).invalidate(a);
        h.l2(0).invalidate(a);
    }
    const double ratio = static_cast<double>(core_total) /
                         static_cast<double>(cha_total);
    EXPECT_GT(ratio, 3.0);
    EXPECT_LT(ratio, 5.5);
}

TEST(Hierarchy, ChaDramAccessFasterThanCoreDramAccess)
{
    MemoryHierarchy h;
    std::uint64_t core_total = 0, cha_total = 0;
    const unsigned n = 256;
    for (unsigned i = 0; i < n; ++i) {
        const Addr a = 0x4000000 + static_cast<Addr>(i) * 8192;
        core_total += h.coreAccess(0, a, false).latency;
    }
    for (unsigned i = 0; i < n; ++i) {
        const Addr a = 0x8000000 + static_cast<Addr>(i) * 8192;
        cha_total += h.chaAccess(i % 16, a, false).latency;
    }
    const double ratio = static_cast<double>(core_total) /
                         static_cast<double>(cha_total);
    EXPECT_GT(ratio, 1.3); // paper reports 1.6x
    EXPECT_LT(ratio, 2.2);
}

TEST(Hierarchy, LockBlocksWritesWithPenalty)
{
    MemoryHierarchy h;
    h.warmLine(0x60000);
    EXPECT_TRUE(h.lockLine(0, 0x60000));
    EXPECT_TRUE(h.isLineLocked(0x60000));
    // Locking an already-locked line fails.
    EXPECT_FALSE(h.lockLine(1, 0x60000));

    const Cycles locked_write = h.coreAccess(0, 0x60000, true).latency;
    h.flushAll();
    h.warmLine(0x60000);
    const Cycles unlocked_write =
        h.coreAccess(0, 0x60000, true).latency;
    EXPECT_EQ(locked_write,
              unlocked_write + h.config().lockRetryPenalty);
    EXPECT_EQ(h.stats().counterValue("lock_retries"), 1u);

    h.unlockLine(0x60000);
    EXPECT_FALSE(h.isLineLocked(0x60000));
}

TEST(Hierarchy, LockLineFillsAbsentLine)
{
    MemoryHierarchy h;
    EXPECT_FALSE(h.llcSlice(h.sliceOf(0x70000)).contains(0x70000));
    EXPECT_TRUE(h.lockLine(0, 0x70000));
    EXPECT_TRUE(h.llcSlice(h.sliceOf(0x70000)).contains(0x70000));
    h.unlockLine(0x70000);
}

TEST(Hierarchy, MeshHopsAreSymmetricAndBounded)
{
    MemoryHierarchy h;
    for (unsigned a = 0; a < 16; ++a) {
        for (unsigned b = 0; b < 16; ++b) {
            EXPECT_EQ(h.sliceSliceHops(a, b), h.sliceSliceHops(b, a));
            EXPECT_LE(h.sliceSliceHops(a, b), 6u); // 4x4 mesh diameter
        }
        EXPECT_EQ(h.sliceSliceHops(a, a), 0u);
    }
}

TEST(Hierarchy, ChaAccessSnoopsDirtyPrivateCopies)
{
    MemoryHierarchy h;
    h.coreAccess(3, 0x90000, true); // dirty in core 3's L1
    const AccessResult r = h.chaAccess(0, 0x90000, false);
    EXPECT_EQ(r.level, MemLevel::RemoteCache);
    EXPECT_FALSE(h.l1(3).contains(0x90000));
}

TEST(Hierarchy, ColdAccessesCountOnePrivateMissEach)
{
    MemoryHierarchy h;
    const unsigned n = 100;
    for (unsigned i = 0; i < n; ++i)
        h.coreAccess(2, 0x200000 + static_cast<Addr>(i) * 64, i % 2 == 0);
    EXPECT_EQ(h.l1(2).stats().counterValue("misses"), n);
    EXPECT_EQ(h.l2(2).stats().counterValue("misses"), n);
    EXPECT_EQ(h.l1(2).stats().counterValue("hits"), 0u);

    // An L2 hit refills L1 without counting a second L1 miss.
    for (unsigned i = 0; i < n; ++i)
        h.l1(2).invalidate(0x200000 + static_cast<Addr>(i) * 64);
    for (unsigned i = 0; i < n; ++i)
        EXPECT_EQ(h.coreAccess(2, 0x200000 + static_cast<Addr>(i) * 64,
                               false)
                      .level,
                  MemLevel::L2);
    EXPECT_EQ(h.l1(2).stats().counterValue("misses"), 2 * n);
    EXPECT_EQ(h.l2(2).stats().counterValue("misses"), n);
    EXPECT_EQ(h.l2(2).stats().counterValue("hits"), n);
}

TEST(Hierarchy, RejectsMoreCoresThanTheSharerMaskHolds)
{
    HierarchyConfig cfg;
    cfg.cores = maxSharerCores;
    EXPECT_NO_THROW(MemoryHierarchy{cfg});
    cfg.cores = maxSharerCores + 1;
    EXPECT_THROW(MemoryHierarchy{cfg}, PanicError);
}

TEST(Hierarchy, SharerMaskTracksPrivateCopies)
{
    MemoryHierarchy h;
    const Addr a = 0xa0000;
    Cache &llc = h.llcSlice(h.sliceOf(a));
    h.coreAccess(1, a, false);
    EXPECT_EQ(llc.sharers(a), 1u << 1);
    // Every access that reaches the LLC snoops the other sharers out.
    h.coreAccess(4, a, false);
    EXPECT_EQ(llc.sharers(a), 1u << 4);
    EXPECT_FALSE(h.l1(1).contains(a));
    // Warming into a private cache adds a sharer without snooping.
    h.warmLine(a, /*into_private=*/true, 7);
    EXPECT_EQ(llc.sharers(a), (1u << 4) | (1u << 7));
    // A stale bit is harmless: core 7 drops its copy behind the LLC's
    // back, and the next snoop probes it for nothing and clears it.
    h.l1(7).invalidate(a);
    h.l2(7).invalidate(a);
    EXPECT_EQ(llc.sharers(a), (1u << 4) | (1u << 7));
    h.coreAccess(4, a, true); // L1 hit: no snoop, dirty in core 4
    EXPECT_EQ(h.chaAccess(3, a, false).level, MemLevel::RemoteCache);
    EXPECT_EQ(llc.sharers(a), 0u);
    EXPECT_FALSE(h.l1(4).contains(a));
}

/** FNV-1a over 64-bit words and strings. */
struct Digest
{
    std::uint64_t value = 0xcbf29ce484222325ull;

    void
    byte(unsigned char b)
    {
        value ^= b;
        value *= 0x100000001b3ull;
    }

    void
    add(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i)
            byte(static_cast<unsigned char>(v >> (8 * i)));
    }

    void
    add(const std::string &s)
    {
        for (char c : s)
            byte(static_cast<unsigned char>(c));
        add(s.size());
    }
};

/**
 * A seeded mix of every hierarchy operation on small caches, so LLC
 * evictions, snoops, locks, and direct private flushes all happen often.
 * The (latency, level) sequence and every counter digest to the value the
 * hierarchy gave before the LLC tracked sharers, when every snoop and
 * back-invalidation probed all cores. Private-cache misses are left out
 * of that digest: the old model counted a private miss once at the probe
 * and again at the fill, so they are checked against an exact count here.
 */
TEST(Hierarchy, SharerMaskKeepsResultsAndCountersIdentical)
{
    HierarchyConfig cfg;
    cfg.cores = 6;
    cfg.l1Bytes = 512; // one 8-way set
    cfg.l1Assoc = 8;
    cfg.l2Bytes = 2048; // two 16-way sets
    cfg.l2Assoc = 16;
    cfg.llcSlices = 4;
    cfg.llcSliceBytes = 4096; // four 16-way sets per slice
    cfg.llcAssoc = 16;
    MemoryHierarchy h(cfg);

    std::mt19937_64 rng(20190622);
    const unsigned pool = 1024; // 4x the LLC
    const unsigned hot = 96;
    auto pick = [&] {
        const std::uint64_t r = rng();
        const std::uint64_t idx = (r & 3) == 0 ? (r >> 2) % pool
                                               : (r >> 2) % hot;
        return 0x100000 + static_cast<Addr>(idx) * cacheLineBytes;
    };

    Digest digest;
    std::vector<std::uint64_t> l1Misses(cfg.cores, 0);
    std::vector<std::uint64_t> l2Misses(cfg.cores, 0);
    std::deque<Addr> locked;
    Addr last = 0x100000;
    unsigned violations = 0;
    const unsigned ops = 1000000;

    auto record = [&](const AccessResult &r) {
        digest.add(r.latency);
        digest.add(static_cast<std::uint64_t>(r.level));
    };
    auto core_access = [&](CoreId c, Addr a, bool w) {
        const AccessResult r = h.coreAccess(c, a, w);
        record(r);
        if (r.level != MemLevel::L1)
            ++l1Misses[c];
        if (r.level != MemLevel::L1 && r.level != MemLevel::L2)
            ++l2Misses[c];
    };

    for (unsigned op = 0; op < ops; ++op) {
        const unsigned kind = static_cast<unsigned>(rng() % 100);
        const CoreId c = static_cast<CoreId>(rng() % cfg.cores);
        const Addr a = kind >= 97 ? last : pick();
        if (kind < 40) {
            core_access(c, a, false);
        } else if (kind < 55) {
            core_access(c, a, true);
        } else if (kind < 70) {
            record(h.chaAccess(static_cast<SliceId>(c % cfg.llcSlices), a,
                               false));
        } else if (kind < 75) {
            record(h.chaAccess(static_cast<SliceId>(c % cfg.llcSlices), a,
                               true));
        } else if (kind < 80) {
            h.warmLine(a);
        } else if (kind < 85) {
            l1Misses[c] += h.l1(c).contains(a) ? 0 : 1;
            l2Misses[c] += h.l2(c).contains(a) ? 0 : 1;
            h.warmLine(a, /*into_private=*/true, c);
        } else if (kind < 88) {
            const bool got = h.lockLine(static_cast<SliceId>(c), a);
            digest.add(got);
            if (got)
                locked.push_back(a);
            if (locked.size() > 4) {
                h.unlockLine(locked.front());
                locked.pop_front();
            }
        } else if (kind < 90) {
            digest.add(h.isLineLocked(a));
            if (!locked.empty()) {
                h.unlockLine(locked.back());
                locked.pop_back();
            }
        } else if (kind < 93) {
            digest.add(h.l1(c).invalidate(a));
        } else if (kind < 96) {
            digest.add(h.l2(c).invalidate(a));
        } else if (kind < 97) {
            if (rng() % 8 == 0)
                h.l1(c).flushAll();
            else
                h.l2(c).flushAll();
        } else {
            core_access(c, a, kind == 99);
        }
        last = a;

        // Superset invariant: every private copy has its core's bit set
        // on the LLC line.
        for (CoreId core = 0; core < cfg.cores; ++core) {
            const std::uint32_t bit = 1u << core;
            auto check = [&](Addr line) {
                if (!(h.llcSlice(h.sliceOf(line)).sharers(line) & bit))
                    ++violations;
            };
            h.l1(core).forEachLine(check);
            h.l2(core).forEachLine(check);
        }
        ASSERT_EQ(violations, 0u) << "after op " << op;
    }

    auto add_group = [&](const std::string &label, const StatGroup &g,
                         bool private_cache) {
        g.forEachCounter([&](const std::string &name, const Counter &ctr) {
            if (private_cache && name == "misses")
                return;
            digest.add(label + "." + name);
            digest.add(ctr.value());
        });
    };
    add_group("hierarchy", h.stats(), false);
    add_group("dram", h.dram().stats(), false);
    for (SliceId s = 0; s < cfg.llcSlices; ++s)
        add_group("llc" + std::to_string(s), h.llcSlice(s).stats(), false);
    for (CoreId c = 0; c < cfg.cores; ++c) {
        add_group("l1." + std::to_string(c), h.l1(c).stats(), true);
        add_group("l2." + std::to_string(c), h.l2(c).stats(), true);
        EXPECT_EQ(h.l1(c).stats().counterValue("misses"), l1Misses[c]);
        EXPECT_EQ(h.l2(c).stats().counterValue("misses"), l2Misses[c]);
    }
    EXPECT_GT(h.stats().counterValue("back_invalidations"), 10000u);
    EXPECT_GT(h.stats().counterValue("snoop_forwards"), 10000u);
    EXPECT_GT(h.stats().counterValue("lock_retries"), 100u);
    EXPECT_EQ(digest.value, 0x8ed9b4dea8896c78ull);
}

} // namespace
} // namespace halo
