/**
 * @file
 * Tests for the cuckoo table's lookup filter (DESIGN.md §13): the
 * Cuckoo++ per-bucket negative filter (displaced-signature Bloom +
 * timestamp epoch packed into the bucket line's aux bytes).
 *
 * The filter is a pure lookup accelerator, so the load-bearing
 * properties are (a) it returns exactly what the unfiltered table
 * returns for any operation sequence, (b) traced and untraced lookups
 * agree, scalar and bulk agree, (c) the traced reference streams show
 * the access-count win it claims: miss termination after one bucket
 * read without a key-value probe, and (d) both modes keep the exact
 * results, reference streams and table bytes pinned below.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <optional>
#include <unordered_map>
#include <vector>

#include "hash/cuckoo_table.hh"
#include "mem/sim_memory.hh"
#include "sim/random.hh"

namespace halo {
namespace {

constexpr std::uint32_t keyLen = 16;

std::array<std::uint8_t, keyLen>
keyForId(std::uint64_t id)
{
    std::array<std::uint8_t, keyLen> key{};
    std::memcpy(key.data(), &id, sizeof(id));
    const std::uint64_t mixed = id * 0x9e3779b97f4a7c15ull;
    std::memcpy(key.data() + 8, &mixed, sizeof(mixed));
    return key;
}

unsigned
readsOf(const AccessTrace &trace, AccessPhase phase)
{
    unsigned n = 0;
    for (const MemRef &r : trace)
        n += !r.write && r.phase == phase;
    return n;
}

constexpr CuckooFilter allModes[] = {CuckooFilter::None,
                                     CuckooFilter::CuckooPP};

CuckooHashTable
makeTable(SimMemory &mem, std::uint64_t capacity, CuckooFilter mode)
{
    CuckooHashTable::Config cfg;
    cfg.keyLen = keyLen;
    cfg.capacity = capacity;
    cfg.filter = mode;
    return CuckooHashTable(mem, cfg);
}

/**
 * The filtered table must be observationally identical to the
 * unfiltered table across a long random insert/erase/lookup sequence
 * that drives displacement (the mutation paths all maintain filter
 * state), checked against a host-map reference.
 */
TEST(CuckooFilters, RandomOpsMatchReference)
{
    constexpr std::uint64_t capacity = 30000;
    constexpr std::uint64_t keyRange = 40000; // > capacity: misses too
    constexpr std::uint64_t ops = 1u << 20;

    const CuckooFilter mode = CuckooFilter::CuckooPP;
    SimMemory mem(256ull << 20);
    CuckooHashTable table = makeTable(mem, capacity, mode);
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    Xoshiro256 rng(0xf117e5 + static_cast<unsigned>(mode));

    for (std::uint64_t op = 0; op < ops; ++op) {
        const std::uint64_t id = rng.nextBounded(keyRange);
        const auto key = keyForId(id);
        const KeyView kv(key.data(), key.size());
        switch (rng.next() % 4) {
          case 0:   // insert / update
          case 1: {
            const std::uint64_t val = (op << 16) | (id & 0xffff);
            if (table.insert(kv, val))
                ref[id] = val;
            else
                EXPECT_GE(ref.size(), capacity * 4 / 5)
                    << "insert failed far from the ceiling";
            break;
          }
          case 2: { // erase
            const bool erased = table.erase(kv);
            EXPECT_EQ(erased, ref.erase(id) != 0) << "id " << id;
            break;
          }
          default: { // lookup
            const auto v = table.lookup(kv);
            const auto it = ref.find(id);
            ASSERT_EQ(v.has_value(), it != ref.end())
                << "id " << id << " op " << op;
            if (v)
                EXPECT_EQ(*v, it->second);
            break;
          }
        }
    }
    EXPECT_EQ(table.size(), ref.size());
    EXPECT_GT(table.cuckooMoves(), 0u)
        << "sequence never displaced; test is too weak";

    // Full sweep: everything the reference holds is findable with
    // its latest value; a sample of absent ids stays absent.
    for (const auto &[id, val] : ref) {
        const auto key = keyForId(id);
        const auto v = table.lookup(KeyView(key.data(), key.size()));
        ASSERT_TRUE(v.has_value()) << "id " << id;
        EXPECT_EQ(*v, val);
    }
    for (std::uint64_t id = keyRange; id < keyRange + 1000; ++id) {
        const auto key = keyForId(id);
        EXPECT_FALSE(
            table.lookup(KeyView(key.data(), key.size()))
                .has_value());
    }
}

/**
 * Traced and untraced lookups must return identical results in every
 * mode — tracing selects the reference-recording twin of the same
 * probe, never a different algorithm outcome.
 */
TEST(CuckooFilters, TracedAndUntracedLookupsAgree)
{
    constexpr std::uint64_t capacity = 8000;
    for (const CuckooFilter mode : allModes) {
        SimMemory mem(64ull << 20);
        CuckooHashTable table = makeTable(mem, capacity, mode);
        for (std::uint64_t id = 0; id < capacity; ++id) {
            const auto key = keyForId(id);
            ASSERT_TRUE(table.insert(KeyView(key.data(), key.size()),
                                     id * 7 + 1));
        }
        AccessTrace trace;
        for (std::uint64_t id = 0; id < 2 * capacity; id += 3) {
            const auto key = keyForId(id);
            const KeyView kv(key.data(), key.size());
            const auto untraced = table.lookup(kv);
            trace.clear();
            const auto traced = table.lookup(kv, &trace, invalidAddr);
            ASSERT_EQ(traced.has_value(), untraced.has_value())
                << "id " << id;
            if (traced)
                EXPECT_EQ(*traced, *untraced);
            EXPECT_FALSE(trace.empty());
        }
    }
}

/**
 * Cuckoo++ negative filtering: while nothing has ever been displaced
 * out of a bucket, its Bloom is empty, so EVERY miss terminates after
 * the primary bucket's signature scan — exactly one bucket read (the
 * Bloom rides the bucket line itself), no key-value probe.
 */
TEST(CuckooFilters, CuckooPPBloomStopsMissesAtThePrimaryBucket)
{
    constexpr std::uint64_t capacity = 20000;
    SimMemory mem(128ull << 20);
    CuckooHashTable table = makeTable(mem, capacity,
                                      CuckooFilter::CuckooPP);
    // Low occupancy: no displacement, so every Bloom stays empty.
    constexpr std::uint64_t fill = capacity / 5;
    for (std::uint64_t id = 0; id < fill; ++id) {
        const auto key = keyForId(id);
        ASSERT_TRUE(
            table.insert(KeyView(key.data(), key.size()), id + 1));
    }
    ASSERT_EQ(table.cuckooMoves(), 0u);

    AccessTrace trace;
    std::uint64_t misses = 0;
    for (std::uint64_t id = fill; id < fill + 5000; ++id) {
        const auto key = keyForId(id);
        trace.clear();
        const auto v = table.lookup(KeyView(key.data(), key.size()),
                                    &trace, invalidAddr);
        ASSERT_FALSE(v.has_value());
        ++misses;
        EXPECT_EQ(readsOf(trace, AccessPhase::Bucket), 1u);
        EXPECT_EQ(readsOf(trace, AccessPhase::KeyValue), 0u);
    }
    ASSERT_GT(misses, 0u);
}

/**
 * The timestamp epoch half of the Cuckoo++ aux bytes: inserts and
 * update-in-place stamp the touched bucket with the current epoch, so
 * a flow-aging scan can skip buckets whose stamp proves every entry
 * older than the horizon.
 */
TEST(CuckooFilters, TimestampEpochStampsTouchedBuckets)
{
    SimMemory mem(32ull << 20);
    CuckooHashTable table = makeTable(mem, 1000, CuckooFilter::CuckooPP);
    const std::uint64_t buckets = table.metadata().numBuckets;

    auto stampedWith = [&](std::uint32_t epoch) {
        std::uint64_t n = 0;
        for (std::uint64_t b = 0; b < buckets; ++b)
            n += table.bucketTimestamp(b) == epoch;
        return n;
    };

    ASSERT_EQ(table.timestampEpoch(), 0u);
    table.setTimestampEpoch(42);
    const auto key = keyForId(1);
    ASSERT_TRUE(table.insert(KeyView(key.data(), key.size()), 7));
    EXPECT_EQ(stampedWith(42), 1u) << "insert must stamp its bucket";

    // Update-in-place re-stamps under the new epoch.
    table.setTimestampEpoch(43);
    ASSERT_TRUE(table.insert(KeyView(key.data(), key.size()), 8));
    EXPECT_EQ(stampedWith(42), 0u);
    EXPECT_EQ(stampedWith(43), 1u);
    EXPECT_EQ(*table.lookup(KeyView(key.data(), key.size())), 8u);
}

/**
 * The bulk pipeline must agree lane-for-lane with scalar lookups in
 * every filter mode, and when traces are requested each lane's stream
 * must be byte-identical to the scalar traced lookup of that key.
 */
TEST(CuckooFilters, BulkAgreesWithScalarInEveryMode)
{
    constexpr std::uint64_t capacity = 8000;
    for (const CuckooFilter mode : allModes) {
        SimMemory mem(64ull << 20);
        CuckooHashTable table = makeTable(mem, capacity, mode);
        for (std::uint64_t id = 0; id < capacity; ++id) {
            const auto key = keyForId(id);
            ASSERT_TRUE(table.insert(KeyView(key.data(), key.size()),
                                     id * 11 + 3));
        }

        Xoshiro256 rng(0xbcd + static_cast<unsigned>(mode));
        for (int batch = 0; batch < 64; ++batch) {
            std::array<std::array<std::uint8_t, keyLen>, maxBulkLanes>
                keys;
            std::array<const std::uint8_t *, maxBulkLanes> ptrs;
            for (unsigned lane = 0; lane < maxBulkLanes; ++lane) {
                keys[lane] = keyForId(rng.nextBounded(2 * capacity));
                ptrs[lane] = keys[lane].data();
            }

            std::uint64_t values[maxBulkLanes];
            const std::uint32_t mask = table.lookupUntracedBulk(
                ptrs.data(), maxBulkLanes, values, nullptr);

            std::array<AccessTrace, maxBulkLanes> laneTraces;
            std::array<AccessTrace *, maxBulkLanes> tracePtrs;
            for (unsigned lane = 0; lane < maxBulkLanes; ++lane)
                tracePtrs[lane] = &laneTraces[lane];
            std::uint64_t tracedValues[maxBulkLanes];
            const std::uint32_t tracedMask = table.lookupUntracedBulk(
                ptrs.data(), maxBulkLanes, tracedValues,
                tracePtrs.data());
            EXPECT_EQ(tracedMask, mask);

            for (unsigned lane = 0; lane < maxBulkLanes; ++lane) {
                AccessTrace scalarTrace;
                const auto v = table.lookup(
                    KeyView(ptrs[lane], keyLen), &scalarTrace,
                    invalidAddr);
                ASSERT_EQ(v.has_value(), (mask >> lane & 1) != 0)
                    << "lane " << lane;
                if (v) {
                    EXPECT_EQ(*v, values[lane]);
                    EXPECT_EQ(*v, tracedValues[lane]);
                }
                // Traced bulk records the scalar reference stream.
                ASSERT_EQ(laneTraces[lane].size(), scalarTrace.size())
                    << "lane " << lane;
                for (std::size_t r = 0; r < scalarTrace.size(); ++r) {
                    EXPECT_EQ(laneTraces[lane][r].addr,
                              scalarTrace[r].addr);
                    EXPECT_EQ(laneTraces[lane][r].size,
                              scalarTrace[r].size);
                    EXPECT_EQ(laneTraces[lane][r].write,
                              scalarTrace[r].write);
                    EXPECT_EQ(laneTraces[lane][r].phase,
                              scalarTrace[r].phase);
                }
            }
        }
    }
}

/**
 * Mode surfaces: the negative filter adds no simulated region (it rides
 * the bucket line), and the CLI/JSON names round-trip.
 */
TEST(CuckooFilters, ModeReportingAndFootprint)
{
    SimMemory mem(64ull << 20);
    CuckooHashTable none = makeTable(mem, 1000, CuckooFilter::None);
    CuckooHashTable pp = makeTable(mem, 1000, CuckooFilter::CuckooPP);

    EXPECT_EQ(none.filterMode(), CuckooFilter::None);
    EXPECT_EQ(pp.filterMode(), CuckooFilter::CuckooPP);
    EXPECT_EQ(pp.footprintBytes(), none.footprintBytes());

    for (const CuckooFilter mode : allModes)
        EXPECT_EQ(parseCuckooFilter(cuckooFilterName(mode)), mode);
    EXPECT_STREQ(cuckooFilterName(CuckooFilter::CuckooPP), "cuckoopp");
    EXPECT_EQ(parseCuckooFilter("bogus"), std::nullopt);
}

/** FNV-1a over the bytes the pinned-path test feeds it. */
struct Digest
{
    std::uint64_t value = 0xcbf29ce484222325ull;

    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            value ^= b[i];
            value *= 0x100000001b3ull;
        }
    }

    void add(std::uint64_t v) { bytes(&v, sizeof(v)); }

    void
    add(const AccessTrace &trace)
    {
        add(trace.size());
        for (const MemRef &r : trace) {
            add(r.addr);
            add(r.size);
            add(r.write);
            add(static_cast<std::uint64_t>(r.phase));
            add(r.dependsOnPrevious);
            add(r.lowEntropyBranch);
        }
    }

    void
    add(const std::optional<std::uint64_t> &v)
    {
        add(v.has_value());
        add(v.value_or(0));
    }
};

/**
 * Digest of a seeded ~200k-op mix on a table filled to 95% load:
 * traced and untraced inserts, erases, scalar lookups and bulk lookups
 * (every result and every recorded MemRef), then the raw bytes of the
 * bucket and key-value regions.
 */
std::uint64_t
mixedOpsDigest(CuckooFilter mode)
{
    // 4096 buckets x 8 ways; the kv array holds 95% of the slots, so
    // the fill below lands at 95% load and keeps it there.
    constexpr std::uint64_t slots = 4096 * entriesPerBucket;
    constexpr std::uint64_t capacity = slots * 95 / 100;
    constexpr std::uint64_t keyRange = capacity * 5 / 4;
    constexpr std::uint64_t ops = 200000;
    constexpr Addr keyAddr = 0x7000;

    SimMemory mem(64ull << 20);
    CuckooHashTable table = makeTable(mem, capacity, mode);
    EXPECT_EQ(table.metadata().numBuckets * entriesPerBucket, slots);
    Digest d;
    AccessTrace trace;
    Xoshiro256 rng(0x91dd1e);

    for (std::uint64_t id = 0; id < capacity; ++id) {
        const auto key = keyForId(id);
        trace.clear();
        d.add(table.insert(KeyView(key.data(), key.size()), id * 5 + 2,
                           id % 7 == 0 ? &trace : nullptr));
        d.add(trace);
    }
    EXPECT_EQ(table.size(), capacity) << "fill stopped short";

    for (std::uint64_t op = 0; op < ops; ++op) {
        const std::uint64_t choice = rng.nextBounded(16);
        const bool traced = rng.next() & 1;
        AccessTrace *tr = traced ? &trace : nullptr;
        trace.clear();
        if (choice < 12) {
            const auto key = keyForId(rng.nextBounded(keyRange));
            const KeyView kv(key.data(), key.size());
            if (choice < 4)
                d.add(table.insert(kv, op, tr));
            else if (choice < 5)
                d.add(table.erase(kv, tr));
            else if (choice < 9)
                d.add(table.lookup(kv, tr, traced ? keyAddr : invalidAddr));
            else
                d.add(table.lookup(kv));
            d.add(trace);
            continue;
        }
        const std::size_t n = 1 + rng.nextBounded(maxBulkLanes);
        std::array<std::array<std::uint8_t, keyLen>, maxBulkLanes> keys;
        std::array<const std::uint8_t *, maxBulkLanes> ptrs;
        std::array<AccessTrace, maxBulkLanes> laneTraces;
        std::array<AccessTrace *, maxBulkLanes> tracePtrs;
        for (std::size_t lane = 0; lane < n; ++lane) {
            keys[lane] = keyForId(rng.nextBounded(keyRange));
            ptrs[lane] = keys[lane].data();
            tracePtrs[lane] = &laneTraces[lane];
        }
        std::uint64_t values[maxBulkLanes];
        const std::uint32_t mask = table.lookupUntracedBulk(
            ptrs.data(), n, values, traced ? tracePtrs.data() : nullptr);
        d.add(mask);
        for (std::size_t lane = 0; lane < n; ++lane) {
            if (mask >> lane & 1)
                d.add(values[lane]);
            d.add(laneTraces[lane]);
        }
    }
    d.add(table.size());
    d.add(table.cuckooMoves());

    const TableMetadata &md = table.metadata();
    std::vector<std::uint8_t> region(md.numBuckets * cacheLineBytes);
    mem.read(md.bucketArrayAddr, region.data(), region.size());
    d.bytes(region.data(), region.size());
    region.resize(md.kvSlots * md.kvSlotBytes);
    mem.read(md.kvArrayAddr, region.data(), region.size());
    d.bytes(region.data(), region.size());
    return d.value;
}

/**
 * The unfiltered and Cuckoo++ paths are pinned to the values this same
 * test code gave while the table still carried a probe-steering filter
 * mode beside them: removing it changed no result, no reference
 * stream and no table byte of the surviving modes.
 */
TEST(CuckooFilters, SurvivingModesMatchPinnedDigests)
{
    EXPECT_EQ(mixedOpsDigest(CuckooFilter::None), 0x3d3b819774b48d20ull);
    EXPECT_EQ(mixedOpsDigest(CuckooFilter::CuckooPP), 0x1b26b4d84682185cull);
}

} // namespace
} // namespace halo
