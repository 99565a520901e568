/**
 * @file
 * Equivalence tests for memoised fixed timing blocks: pricing a
 * FixedBlock must equal pricing its explicitly lowered trace with
 * CoreModel::run, in every RunResult field and in the hierarchy's
 * state and counters, whatever the loads resolve to, wherever the run
 * starts and whatever the issue width was on the previous packet.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cpu/core_model.hh"
#include "cpu/fixed_block.hh"
#include "cpu/trace_builder.hh"
#include "flow/emc.hh"
#include "flow/ruleset.hh"
#include "flow/tuple_space.hh"
#include "net/traffic_gen.hh"
#include "sim/random.hh"
#include "vswitch/vswitch.hh"

namespace halo {
namespace {

void
expectSameRun(const RunResult &got, const RunResult &want,
              const std::string &where)
{
    EXPECT_EQ(got.startCycle, want.startCycle) << where;
    EXPECT_EQ(got.endCycle, want.endCycle) << where;
    EXPECT_EQ(got.instructions, want.instructions) << where;
    EXPECT_EQ(got.mix.loads, want.mix.loads) << where;
    EXPECT_EQ(got.mix.stores, want.mix.stores) << where;
    EXPECT_EQ(got.mix.arith, want.mix.arith) << where;
    EXPECT_EQ(got.mix.others, want.mix.others) << where;
    EXPECT_EQ(got.mix.lookups, want.mix.lookups) << where;
    for (int l = 0; l < 5; ++l) {
        EXPECT_EQ(got.levelHits[l], want.levelHits[l]) << where;
        EXPECT_EQ(got.stallCycles[l], want.stallCycles[l]) << where;
    }
    EXPECT_EQ(got.phaseCycles, want.phaseCycles) << where;
    EXPECT_EQ(got.computeCycles, want.computeCycles) << where;
    EXPECT_EQ(got.lastNbReady, want.lastNbReady) << where;
}

/** Every counter of the hierarchy, its DRAM and every cache array. */
std::vector<std::pair<std::string, std::uint64_t>>
hierarchyCounters(MemoryHierarchy &h)
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    auto add = [&](const std::string &label, const StatGroup &g) {
        g.forEachCounter([&](const std::string &name, const Counter &c) {
            out.emplace_back(label + "." + name, c.value());
        });
    };
    add("hierarchy", h.stats());
    add("dram", h.dram().stats());
    for (SliceId s = 0; s < h.config().llcSlices; ++s)
        add("llc" + std::to_string(s), h.llcSlice(s).stats());
    for (CoreId c = 0; c < h.config().cores; ++c) {
        add("l1." + std::to_string(c), h.l1(c).stats());
        add("l2." + std::to_string(c), h.l2(c).stats());
    }
    return out;
}

/** The datapath's three fixed stages, lowered as VirtualSwitch does. */
struct Blocks
{
    const VSwitchConfig cfg;
    const TraceBuilder b;
    FixedBlock io{lower([&](OpTrace &ops) {
        b.lowerCompute(cfg.ioArith, cfg.ioOthers, cfg.ioScratch, ops);
        b.lowerLoad(0, 16, AccessPhase::Payload, ops);
    })};
    FixedBlock pre{lower([&](OpTrace &ops) {
        b.lowerLoad(0, 48, AccessPhase::Payload, ops);
        b.lowerCompute(cfg.preArith, cfg.preOthers, cfg.preScratch, ops);
    })};
    FixedBlock act{lower([&](OpTrace &ops) {
        b.lowerCompute(cfg.actArith, cfg.actOthers, cfg.actScratch, ops);
    })};

    template <typename Fn>
    static FixedBlock
    lower(Fn &&fn)
    {
        OpTrace ops;
        fn(ops);
        return FixedBlock(std::move(ops));
    }
};

/** A hierarchy and core: one priced through the memo, one explicitly. */
struct Rig
{
    MemoryHierarchy hier;
    CoreModel core{hier, 0};

    /** Put @p line where a core-0 read is serviced by @p level. */
    void
    prepare(Addr line, MemLevel level)
    {
        switch (level) {
          case MemLevel::L1:
            hier.warmLine(line, true, 0);
            break;
          case MemLevel::L2:
            hier.warmLine(line, true, 0);
            hier.l1(0).invalidate(line);
            break;
          case MemLevel::LLC:
            hier.warmLine(line);
            break;
          case MemLevel::RemoteCache:
            // Core 1 holds the line dirty; core 0's read snoops it.
            hier.coreAccess(1, line, true);
            break;
          case MemLevel::DRAM:
            break; // a line no one touched yet
        }
    }
};

TEST(FixedBlock, MemoMatchesExplicitTraceForEveryLoadOutcome)
{
    Blocks blocks;
    Rig memo, ref;
    Xoshiro256 rng(0xb10c);
    // DRAM first: the first block's loads then open closed DRAM banks
    // (row misses) before other levels' set-up touches them.
    const MemLevel levels[] = {MemLevel::DRAM, MemLevel::L1, MemLevel::L2,
                               MemLevel::LLC, MemLevel::RemoteCache};
    std::set<std::pair<MemLevel, SliceId>> covered;
    const char *row_outcomes[] = {"row_hits", "row_misses",
                                  "row_conflicts"};
    std::uint64_t block_row_outcomes[3] = {0, 0, 0};
    Addr next_line = 1ull << 30;

    for (FixedBlock *block : {&blocks.io, &blocks.pre, &blocks.act}) {
        for (const MemLevel level : levels) {
            for (int i = 0; i < 128; ++i) {
                // A fresh line per run; the stride walks DRAM banks and
                // rows as well as every LLC home slice, so the loads
                // take every latency their level can have.
                const Addr line = next_line;
                next_line += 65 * cacheLineBytes;
                memo.prepare(line, level);
                ref.prepare(line, level);
                const Cycles start = rng.next() >> 24;
                std::uint64_t rows_before[3];
                for (int r = 0; r < 3; ++r)
                    rows_before[r] = ref.hier.dram().stats().counterValue(
                        row_outcomes[r]);

                const RunResult got = memo.core.run(*block, line, start);
                const RunResult want =
                    ref.core.run(block->lowered(line), start);
                for (int r = 0; r < 3; ++r)
                    block_row_outcomes[r] +=
                        ref.hier.dram().stats().counterValue(
                            row_outcomes[r]) -
                        rows_before[r];
                expectSameRun(got, want,
                              std::string(memLevelName(level)) + " run " +
                                  std::to_string(i));
                if (block->loads() == 0)
                    continue;
                // The frame line really was serviced where it was put.
                ASSERT_GE(want.levelHits[static_cast<int>(level)], 1u);
                covered.insert({level, ref.hier.sliceOf(line)});
            }
        }
    }
    EXPECT_EQ(hierarchyCounters(memo.hier), hierarchyCounters(ref.hier));

    // Coverage: every level; LLC, RemoteCache and DRAM from every home
    // slice (their latency depends on the mesh distance); and every
    // DRAM row-buffer outcome among the blocks' own loads.
    const SliceId slices = ref.hier.config().llcSlices;
    for (const MemLevel level :
         {MemLevel::LLC, MemLevel::RemoteCache, MemLevel::DRAM}) {
        for (SliceId s = 0; s < slices; ++s)
            EXPECT_TRUE(covered.count({level, s}))
                << memLevelName(level) << " from slice " << s;
    }
    for (const MemLevel level : {MemLevel::L1, MemLevel::L2}) {
        bool any = false;
        for (SliceId s = 0; s < slices; ++s)
            any = any || covered.count({level, s});
        EXPECT_TRUE(any) << memLevelName(level);
    }
    for (int r = 0; r < 3; ++r)
        EXPECT_GT(block_row_outcomes[r], 0u) << row_outcomes[r];
    for (FixedBlock *block : {&blocks.io, &blocks.pre, &blocks.act})
        EXPECT_GT(block->memoHits(), 0u);
}

TEST(FixedBlock, IssueWidthChangeBetweenPacketsRepricesTheBlock)
{
    Blocks blocks;
    Rig memo, ref;
    Xoshiro256 rng(0x1551e);
    Addr line = 1ull << 31;
    Cycles start = 1000;
    for (const unsigned width : {4u, 1u, 4u, 2u, 2u, 8u, 4u}) {
        memo.core.setIssueWidth(width);
        ref.core.setIssueWidth(width);
        for (FixedBlock *block : {&blocks.io, &blocks.pre, &blocks.act}) {
            for (int i = 0; i < 4; ++i) {
                memo.prepare(line, MemLevel::LLC);
                ref.prepare(line, MemLevel::LLC);
                const RunResult got = memo.core.run(*block, line, start);
                const RunResult want =
                    ref.core.run(block->lowered(line), start);
                expectSameRun(got, want,
                              "width " + std::to_string(width));
                start = want.endCycle + rng.nextBounded(5000);
                line += cacheLineBytes;
            }
        }
    }
    EXPECT_EQ(hierarchyCounters(memo.hier), hierarchyCounters(ref.hier));
}

/**
 * Reference Software-mode datapath for processPacket, rebuilt from
 * TraceBuilder and CoreModel::run on explicitly lowered traces: the
 * same SimMemory layout as VirtualSwitch (EMC, MegaFlow and OpenFlow
 * tables, then the RX ring, key staging and result buffers), the same
 * stages in the same order, and no fixed blocks.
 */
struct ReferenceSwitch
{
    SimMemory mem{1ull << 30};
    MemoryHierarchy hier;
    CoreModel core{hier, 0};
    VSwitchConfig cfg;
    ExactMatchCache emc;
    TupleSpace tuples;
    TupleSpace openflow;
    Addr rxRing;
    Addr keyStage;     ///< unused: allocated to keep the layout
    Addr resultBuffer; ///< unused: allocated to keep the layout
    unsigned rxSlot = 0;
    Cycles clock = 0;
    TraceBuilder tableBuilder;
    TraceBuilder emcBuilder;

    explicit ReferenceSwitch(const VSwitchConfig &config)
        : cfg(config),
          emc(mem, config.emcEntries),
          tuples(mem, config.tupleConfig),
          openflow(mem, config.tupleConfig),
          rxRing(mem.allocate(64 * 128, cacheLineBytes)),
          keyStage(mem.allocate(1024 * cacheLineBytes, cacheLineBytes)),
          resultBuffer(mem.allocate(128 * cacheLineBytes, cacheLineBytes)),
          emcBuilder(SoftwareProfile{config.emcProfileInstructions, 0.362,
                                     0.118, 0.210, 0.309, 3})
    {
    }

    PacketResult
    process(const Packet &packet)
    {
        PacketResult res;
        const auto parsed = packet.parseHeaders();
        if (!parsed)
            return res;
        res.tuple = parsed->tuple();
        const Cycles start = clock;
        Cycles now = start;

        const Addr slot = rxRing + (rxSlot++ % 64) * 128;
        mem.write(slot, packet.bytes().data(),
                  std::min<std::size_t>(packet.bytes().size(), 128));
        hier.warmLine(slot);
        hier.warmLine(slot + cacheLineBytes);
        auto stage = [&](const OpTrace &ops) {
            const RunResult rr = core.run(ops, now);
            res.instructions += rr.instructions;
            now = rr.endCycle;
            return rr.elapsed();
        };

        OpTrace ops;
        tableBuilder.lowerCompute(cfg.ioArith, cfg.ioOthers, cfg.ioScratch,
                                  ops);
        tableBuilder.lowerLoad(slot, 16, AccessPhase::Payload, ops);
        res.packetIo = stage(ops);

        ops.clear();
        tableBuilder.lowerLoad(slot, 48, AccessPhase::Payload, ops);
        tableBuilder.lowerCompute(cfg.preArith, cfg.preOthers,
                                  cfg.preScratch, ops);
        res.preprocess = stage(ops);

        const auto key = res.tuple.toKey();
        AccessTrace refs;
        const auto hit = emc.lookup(key, &refs);
        ops.clear();
        emcBuilder.lowerTableOp(refs, ops);
        res.emcCycles = stage(ops);
        if (hit) {
            res.emcHit = true;
            res.matched = true;
            res.action = Action::decode(*hit);
        } else {
            ops.clear();
            std::array<std::uint8_t, FiveTuple::keyBytes> masked{};
            std::optional<std::uint64_t> value;
            for (unsigned t = 0; t < tuples.numTuples() && !value; ++t) {
                tuples.mask(t).applyInto(key, masked.data());
                refs.clear();
                value = tuples.table(t).lookup(
                    KeyView(masked.data(), masked.size()), &refs);
                tableBuilder.lowerCompute(4, 2, 0, ops);
                tableBuilder.lowerTableOp(refs, ops);
                ++res.tuplesSearched;
            }
            res.megaflowCycles = stage(ops);
            if (value) {
                res.matched = true;
                res.action = Action::decode(*value);
                emc.insert(key, *value);
            }
        }

        ops.clear();
        tableBuilder.lowerCompute(cfg.actArith, cfg.actOthers,
                                  cfg.actScratch, ops);
        res.otherCycles = stage(ops);
        res.total = now - start;
        clock = now;
        return res;
    }
};

TEST(FixedBlock, ProcessPacketMatchesExplicitlyLoweredReference)
{
    const std::uint64_t flows = 3000;
    TrafficGenerator gen(TrafficGenerator::scenarioConfig(
        TrafficScenario::ManyFlows, flows));
    const RuleSet rules =
        scenarioRules(TrafficScenario::ManyFlows, gen.flows(), 99);
    VSwitchConfig cfg;
    cfg.mode = LookupMode::Software;
    // A small EMC keeps both outcomes (hit, miss + TSS walk) common.
    cfg.emcEntries = 1024;
    cfg.tupleConfig.tupleCapacity = nextPowerOfTwo(flows + 16);

    SimMemory mem(1ull << 30);
    MemoryHierarchy hier;
    CoreModel core(hier, 0);
    VirtualSwitch vs(mem, hier, core, nullptr, cfg);
    ReferenceSwitch ref(cfg);
    vs.installRules(rules);
    for (const FlowRule &rule : rules)
        ASSERT_TRUE(ref.tuples.addRule(rule));
    vs.warmTables();
    ref.tuples.forEachLine([&](Addr a) { ref.hier.warmLine(a); });
    ref.openflow.forEachLine([&](Addr a) { ref.hier.warmLine(a); });
    ref.emc.forEachLine([&](Addr a) { ref.hier.warmLine(a); });

    std::uint64_t emc_hits = 0;
    for (int i = 0; i < 20000; ++i) {
        const Packet pkt = gen.nextPacket();
        const PacketResult got = vs.processPacket(pkt);
        const PacketResult want = ref.process(pkt);
        const std::string at = "packet " + std::to_string(i);
        ASSERT_EQ(got.matched, want.matched) << at;
        ASSERT_EQ(got.emcHit, want.emcHit) << at;
        ASSERT_TRUE(got.action == want.action) << at;
        ASSERT_EQ(got.tuplesSearched, want.tuplesSearched) << at;
        ASSERT_TRUE(got.tuple == want.tuple) << at;
        ASSERT_EQ(got.slowPathPending, want.slowPathPending) << at;
        ASSERT_EQ(got.emcPromote, want.emcPromote) << at;
        ASSERT_EQ(got.total, want.total) << at;
        ASSERT_EQ(got.packetIo, want.packetIo) << at;
        ASSERT_EQ(got.preprocess, want.preprocess) << at;
        ASSERT_EQ(got.emcCycles, want.emcCycles) << at;
        ASSERT_EQ(got.megaflowCycles, want.megaflowCycles) << at;
        ASSERT_EQ(got.otherCycles, want.otherCycles) << at;
        ASSERT_EQ(got.instructions, want.instructions) << at;
        emc_hits += got.emcHit ? 1 : 0;
    }
    EXPECT_EQ(vs.now(), ref.clock);
    EXPECT_EQ(hierarchyCounters(hier), hierarchyCounters(ref.hier));
    // Both classification outcomes were exercised.
    EXPECT_GT(emc_hits, 1000u);
    EXPECT_LT(emc_hits, 19000u);
}

} // namespace
} // namespace halo
