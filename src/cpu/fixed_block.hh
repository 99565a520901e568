/**
 * @file
 * A fixed timing block: a micro-op stream lowered once and priced on
 * every packet, with a memo of its timing.
 *
 * The datapath's packet-IO, pre-processing and action stages lower the
 * same ops on every packet; only the frame address their loads read
 * changes. CoreModel::run starts each call with empty ROB/LQ/SQ/MSHR
 * rings, so such a block's RunResult is a function of the
 * (latency, level) its addressed loads resolve to, in trace order,
 * shifted by the start cycle. The block therefore keeps a small memo
 * from those resolved loads to a start-relative RunResult. The
 * hierarchy accesses themselves still happen on every call (see
 * CoreModel::run(FixedBlock &, ...)), so cache state and counters are
 * exactly those of pricing the explicit trace.
 *
 * The memo is exact only for blocks whose ops touch nothing but the
 * hierarchy's core-access path in trace order: no LOOKUP_B/LOOKUP_NB
 * (the accelerator's timing depends on absolute time) and no addressed
 * stores. The constructor enforces that.
 */

#ifndef HALO_CPU_FIXED_BLOCK_HH
#define HALO_CPU_FIXED_BLOCK_HH

#include <array>
#include <cstdint>

#include "cpu/core_model.hh"

namespace halo {

class FixedBlock
{
  public:
    /// Most addressed loads one block may carry (the memo key width).
    static constexpr unsigned maxLoads = 4;
    /// Memo entries; when full, the oldest entry is replaced.
    static constexpr unsigned memoEntries = 64;

    /**
     * @param ops the block. An addressed Load/SnapshotRead holds an
     *            offset from the base address passed on each run;
     *            scratch ops keep invalidAddr.
     */
    explicit FixedBlock(OpTrace ops);

    /** Addressed loads in the block (memo key length). */
    unsigned loads() const { return numLoads; }

    /** The explicit trace the block stands for at @p base. */
    OpTrace lowered(Addr base) const;

    /** Runs priced from the memo without running the model. */
    std::uint64_t memoHits() const { return hits; }

  private:
    friend class CoreModel;

    using Key = std::array<AccessResult, maxLoads>;

    struct Entry
    {
        Key key{};
        RunResult rel; ///< priced at start 0
    };

    /** Memoised start-relative result for @p key under @p config, or
     *  null. A config other than the memo's empties it first. */
    const RunResult *find(const CoreConfig &config, const Key &key);

    /** Remember @p rel (priced at start 0) for @p key. */
    const RunResult &store(const Key &key, const RunResult &rel);

    OpTrace trace;
    std::array<std::uint32_t, maxLoads> loadIndex{};
    unsigned numLoads = 0;

    CoreConfig memoConfig;
    std::array<Entry, memoEntries> memo{};
    unsigned used = 0;
    unsigned nextVictim = 0;
    std::uint64_t hits = 0;
};

} // namespace halo

#endif // HALO_CPU_FIXED_BLOCK_HH
