/**
 * @file
 * The software virtual switch datapath (paper SS2, Fig. 1/2a).
 *
 * Pipeline per packet: packet IO (RX ring) -> header pre-processing ->
 * EMC lookup -> MegaFlow tuple-space search -> action execution. Every
 * stage is priced on the core model, giving the Fig. 3 breakdown; the
 * classification stages can run in four modes:
 *
 *   Software        — EMC + cuckoo TSS entirely on the core (baseline);
 *   HaloBlocking    — LOOKUP_B per tuple, result-dependent sequencing;
 *   HaloNonBlocking — LOOKUP_NB fan-out to all tuples + SNAPSHOT_READ;
 *   Hybrid          — flow-register-driven switch between Software and
 *                     HaloNonBlocking (paper SS4.6).
 *
 * Modeling notes: packet buffers are DDIO-resident (the NIC writes RX
 * descriptors into the LLC), and masked-key staging buffers for HALO
 * queries are written with streaming stores (functional write + LLC
 * warm), so accelerator key fetches do not pay dirty-private-copy
 * snoops — matching how DPDK stages lookup batches in practice.
 */

#ifndef HALO_VSWITCH_VSWITCH_HH
#define HALO_VSWITCH_VSWITCH_HH

#include <cstdint>
#include <optional>

#include "core/halo_system.hh"
#include "cpu/core_model.hh"
#include "cpu/fixed_block.hh"
#include "cpu/trace_builder.hh"
#include "flow/emc.hh"
#include "flow/flow_activity.hh"
#include "flow/flow_estimator.hh"
#include "flow/ruleset.hh"
#include "flow/tuple_space.hh"
#include "net/packet.hh"

namespace halo {

/** Which engine performs flow classification. */
enum class LookupMode
{
    Software,
    HaloBlocking,
    HaloNonBlocking,
    Hybrid,
};

/** Datapath configuration. */
struct VSwitchConfig
{
    /**
     * Enable the third datapath layer (paper Fig. 2a): on a MegaFlow
     * miss, search *all* OpenFlow tuples for the highest-priority match
     * and install the result into the MegaFlow layer (OVS upcall
     * behaviour). Without it, MegaFlow misses are reported unmatched.
     */
    bool useOpenflowLayer = false;
    /**
     * Decoupled slow path: a MegaFlow miss does NOT run the OpenFlow
     * upcall inline. The packet is returned with slowPathPending set
     * (a provisional unmatched result) and the caller — the runtime
     * worker — enqueues an upcall for the revalidator thread, the
     * single writer of this shard's megaflow tables and EMC.
     * Megaflow-hit EMC promotions are deferred the same way
     * (emcPromote/promoteValue). Requires useOpenflowLayer.
     */
    bool deferSlowPath = false;
    /**
     * Inline upcalls install an exact-match (microflow) megaflow
     * entry keyed on the full five-tuple instead of the winning
     * OpenFlow rule's own mask — the same entries the decoupled
     * revalidator installs, so inline vs decoupled churn comparisons
     * are apples-to-apples. Off by default: the simulated benches
     * keep the masked-install behaviour bit-for-bit.
     */
    bool exactUpcallInstalls = false;
    LookupMode mode = LookupMode::Software;
    /// EMC entries (OVS default 8192). The EMC runs in software in every
    /// mode; HALO modes can disable it entirely (it mostly misses at
    /// high flow counts and pollutes private caches).
    std::uint64_t emcEntries = 8192;
    bool useEmc = true;
    /// MegaFlow search semantics: first match (OVS MegaFlow layer).
    TupleSpace::Config tupleConfig;
    /// Instruction-cost knobs (arith/others/stack) per stage.
    unsigned ioArith = 90, ioOthers = 220, ioScratch = 70;
    unsigned preArith = 120, preOthers = 150, preScratch = 50;
    unsigned actArith = 24, actOthers = 48, actScratch = 18;
    /// EMC lookups are cheaper than full cuckoo lookups.
    unsigned emcProfileInstructions = 90;
    /**
     * Software-mode burst window: how many packets classifyBurst keeps
     * in flight through the prefetch-pipelined EMC/tuple-space prepass
     * (clamped to [1, maxBulkLanes]). 1 disables the pipeline and
     * reproduces the scalar path exactly, packet for packet.
     */
    unsigned burstLanes = 16;
};

/** Per-packet result + Fig. 3 stage breakdown. */
struct PacketResult
{
    bool matched = false;
    bool emcHit = false;
    Action action;
    unsigned tuplesSearched = 0;

    /// The classified five-tuple, echoed back so callers that defer
    /// slow-path work (cfg.deferSlowPath) can build the upcall.
    FiveTuple tuple{};
    /// MegaFlow miss whose upcall was deferred (cfg.deferSlowPath):
    /// the caller owns enqueueing it to the revalidator.
    bool slowPathPending = false;
    /// MegaFlow hit whose EMC promotion was deferred: the caller may
    /// forward {tuple, promoteValue} as a Promote upcall.
    bool emcPromote = false;
    std::uint64_t promoteValue = 0;

    Cycles total = 0;
    Cycles packetIo = 0;
    Cycles preprocess = 0;
    Cycles emcCycles = 0;
    Cycles megaflowCycles = 0;
    Cycles otherCycles = 0;

    /// Instructions retired for this packet.
    std::uint64_t instructions = 0;
};

/** Aggregate counters over a run. */
struct SwitchTotals
{
    std::uint64_t packets = 0;
    std::uint64_t emcHits = 0;
    std::uint64_t matches = 0;
    Cycles total = 0;
    Cycles packetIo = 0;
    Cycles preprocess = 0;
    Cycles emcCycles = 0;
    Cycles megaflowCycles = 0;
    Cycles otherCycles = 0;
    std::uint64_t instructions = 0;

    void add(const PacketResult &r);
    double cyclesPerPacket() const;
};

/**
 * The virtual switch.
 */
class VirtualSwitch
{
  public:
    /**
     * @param halo_system required for the HALO/Hybrid modes; may be null
     *                    for pure software operation.
     */
    VirtualSwitch(SimMemory &memory, MemoryHierarchy &hierarchy,
                  CoreModel &core_model, HaloSystem *halo_system,
                  const VSwitchConfig &config);

    /** Install the rule table (builds the MegaFlow tuple space). */
    void installRules(const RuleSet &rules);

    /**
     * Install the slow-path OpenFlow rules (priority semantics). Only
     * consulted when cfg.useOpenflowLayer is set and the MegaFlow
     * layer misses.
     */
    void installOpenflowRules(const RuleSet &rules);

    /** Warm the classification tables into the LLC (10K-lookup warmup
     *  equivalent, paper SS5.2). */
    void warmTables();

    /** Process one packet through the full pipeline. */
    PacketResult processPacket(const Packet &packet);

    /** Fast path: classification only, from a pre-parsed tuple. */
    PacketResult classifyTuple(const FiveTuple &tuple);

    /**
     * Classify a burst of pre-parsed tuples into @p results (one per
     * tuple, results.size() >= batch.size()).
     *
     * In Software mode with cfg.burstLanes > 1 the burst runs as a
     * prefetch-pipelined state machine: a host-side prepass probes the
     * EMC and walks the tuple space for up to burstLanes packets at
     * once (hiding each lane's DRAM latency behind the others', DPDK
     * rte_hash_lookup_bulk style), then a sequential replay prices the
     * recorded reference streams and applies every mutation — EMC
     * promotions, upcall rule installs, hybrid-register updates — in
     * exact scalar order. Results are byte-identical to calling
     * classifyTuple per packet; lanes whose prepass was invalidated by
     * an earlier lane's write fall back to the scalar path.
     *
     * HaloNonBlocking mode routes through the LOOKUP_NB burst engine
     * (chunked to the key-staging capacity); Blocking and Hybrid modes
     * classify packet by packet.
     */
    void classifyBurst(std::span<const FiveTuple> batch,
                       std::span<PacketResult> results);

    /**
     * Full pipeline (IO + preprocess + classification + action) over a
     * burst of packets; the Software-mode classification stages share
     * the classifyBurst prepass. Malformed packets are dropped in
     * place, exactly as processPacket drops them.
     */
    void processBurst(std::span<const Packet> batch,
                      std::span<PacketResult> results);

    /**
     * Burst classification in non-blocking HALO mode (DPDK-style): the
     * LOOKUP_NB queries of every packet in the burst are issued before
     * any result is awaited, so accelerator work for packet k+1 overlaps
     * the in-flight queries of packet k. This is the mode that lets the
     * tuple-space search scale (paper SS6.2, Fig. 11). Returns one
     * result per packet; cycle cost is amortized across the burst.
     */
    std::vector<PacketResult>
    classifyBurstNB(std::span<const FiveTuple> batch);

    const SwitchTotals &totals() const { return sums; }
    void resetTotals() { sums = SwitchTotals{}; }

    TupleSpace &tupleSpace() { return tuples; }
    TupleSpace &openflowLayer() { return openflow; }
    ExactMatchCache &emc() { return emcCache; }

    /** MegaFlow misses that were resolved by the OpenFlow layer. */
    std::uint64_t upcalls() const { return upcallCount; }

    /** Route per-match activity stamps into @p activity (null = off).
     *  The decoupled runtime wires the revalidator's aging here; one
     *  relaxed store per matched packet, nothing else changes. */
    void setActivityTracker(FlowActivity *activity)
    {
        activity_ = activity;
    }

    /** Feed per-packet flow hashes into @p estimator (null = off).
     *  The adaptive-EMC runtime wires the shard's linear-counting
     *  estimator here; it shares the activity tracker's hash, so the
     *  data path pays at most one extra sampled bit-set per packet. */
    void setFlowEstimator(ShardFlowEstimator *estimator)
    {
        estimator_ = estimator;
    }

    /** Mode selected for the *next* packet (Hybrid consults the flow
     *  register). */
    LookupMode effectiveMode() const;

    /** Current datapath time (advances with every packet). */
    Cycles now() const { return clock; }

  private:
    /**
     * Prepass state of one burst lane: the EMC probe outcome (with the
     * two candidate slot indices used for write-conflict detection) and
     * the tuple-space walk, both with reference streams byte-identical
     * to what the scalar path would have recorded against the same
     * memory state.
     */
    struct SoftLane
    {
        std::array<std::uint8_t, FiveTuple::keyBytes> key{};
        bool emcProbed = false;
        bool emcHit = false;
        std::uint64_t emcValue = 0;
        std::uint64_t emcSlots[2] = {0, 0};
        AccessTrace emcTrace;
        bool walked = false;
        TupleSpace::BulkWalkLane walk;
    };

    PacketResult classifyTupleAt(const FiveTuple &tuple,
                                 bool charge_io_stages,
                                 const Packet *packet,
                                 const SoftLane *lane = nullptr);

    /** Software-mode classification (EMC + TSS traces on the core).
     *  @p lane optionally carries burst-prepass results to replay. */
    void softwareClassify(const FiveTuple &tuple, PacketResult &res,
                          Cycles &now, const SoftLane *lane = nullptr);

    /** One software-mode burst chunk (<= maxBulkLanes lanes): pipelined
     *  prepass, then in-order replay into out[0..batch.size()). */
    void burstChunkSoftware(std::span<const FiveTuple> batch,
                            PacketResult *out, bool charge_io_stages,
                            const Packet *const *packets);

    /** Did an earlier lane's EMC promotion write one of this lane's
     *  candidate slots (prepass probe no longer valid)? */
    bool emcPrepassConflicts(const SoftLane &lane) const;

    /** Chunked LOOKUP_NB burst engine shared by classifyBurst and
     *  classifyBurstNB. */
    void nbBurst(std::span<const FiveTuple> batch, PacketResult *out);
    void nbBurstChunk(std::span<const FiveTuple> batch,
                      PacketResult *out);

    /** LOOKUP_B sequential tuple search. */
    void haloBlockingClassify(const FiveTuple &tuple, PacketResult &res,
                              Cycles &now);

    /** LOOKUP_NB fan-out + SNAPSHOT_READ completion check. */
    void haloNonBlockingClassify(const FiveTuple &tuple,
                                 PacketResult &res, Cycles &now);

    /** Stage a key into the streaming buffer (see file comment). */
    Addr stageKey(std::span<const std::uint8_t> key, unsigned slot);

    /** OpenFlow slow path: search all tuples, best priority wins, and
     *  promote the result into the MegaFlow layer. */
    void openflowUpcall(const FiveTuple &tuple, PacketResult &res,
                        Cycles &now);

    SimMemory &mem;
    MemoryHierarchy &hier;
    CoreModel &core;
    HaloSystem *haloSys;
    VSwitchConfig cfg;

    ExactMatchCache emcCache;
    TupleSpace tuples;   ///< MegaFlow layer
    TupleSpace openflow; ///< OpenFlow layer (slow path)
    std::uint64_t upcallCount = 0;
    FlowActivity *activity_ = nullptr; ///< aging stamps (may be null)
    ShardFlowEstimator *estimator_ = nullptr; ///< flow-count bits
    TraceBuilder tableBuilder; ///< Table-1 profile (cuckoo lookups)
    TraceBuilder emcBuilder;   ///< lighter profile for EMC probes

    /// The stages every packet prices identically, lowered once: packet
    /// IO and pre-processing (frame loads at offsets from the packet's
    /// RX slot) and action execution (no memory references).
    FixedBlock ioBlock;
    FixedBlock preBlock;
    FixedBlock actBlock;

    /// Per-packet scratch reused across packets (cleared, never
    /// reallocated) so steady-state classification does zero heap
    /// allocation: one AccessTrace for functional reference streams,
    /// one OpTrace for the lowered micro-ops of the current stage, one
    /// for SNAPSHOT_READ poll rounds, and a masked-key buffer.
    AccessTrace refScratch;
    OpTrace opScratch;
    OpTrace pollScratch;
    std::array<std::uint8_t, FiveTuple::keyBytes> maskScratch{};

    /// Burst-classification scratch: per-lane prepass state plus the
    /// chunk-wide conflict log the replay consults (EMC slots written
    /// so far, and whether an upcall dirtied the tuple space).
    struct BurstScratch
    {
        std::array<SoftLane, maxBulkLanes> lanes;
        std::vector<std::uint64_t> writtenEmcSlots;
        bool tssDirty = false;
    };
    BurstScratch burst;
    /// True while a burst replay runs: routes EMC-insert victim slots
    /// and upcall installs into the conflict log above.
    bool burstActive = false;

    /// Monotonic datapath clock: accelerator and cache reservation
    /// state advances in absolute time, so packets must too.
    Cycles clock = 0;
    Addr rxRing = invalidAddr;         ///< DDIO-resident packet buffers
    Addr keyStage = invalidAddr;       ///< streaming key buffers
    Addr resultBuffer = invalidAddr;   ///< LOOKUP_NB result lines
    unsigned rxSlot = 0;

    SwitchTotals sums;
};

} // namespace halo

#endif // HALO_VSWITCH_VSWITCH_HH
