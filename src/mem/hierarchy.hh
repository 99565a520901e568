/**
 * @file
 * The full simulated memory hierarchy of the Table-2 machine:
 * per-core L1D and L2, a 16-slice NUCA last-level cache with one CHA per
 * slice, a mesh interconnect, and DDR4 behind the CHAs.
 *
 * Two access paths exist, mirroring the paper:
 *
 *  - coreAccess(): a load/store issued by a CPU core. Walks L1 -> L2 ->
 *    LLC slice (via the mesh) -> DRAM, maintains inclusion, and performs
 *    MSI-style snooping of other cores' private caches.
 *
 *  - chaAccess(): a data request issued by a HALO accelerator sitting at
 *    a CHA. It touches no private cache, reaches its local slice in a
 *    few cycles, and crosses slice-to-slice hops for lines homed
 *    elsewhere. This is what makes HALO's data access ~4.1x faster than
 *    a core's LLC access (Figure 10).
 */

#ifndef HALO_MEM_HIERARCHY_HH
#define HALO_MEM_HIERARCHY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace halo {

/** Geometry and latency parameters of the simulated socket. */
struct HierarchyConfig
{
    /// At most maxSharerCores: the LLC tracks sharers in a 32-bit mask.
    unsigned cores = 16;

    std::uint64_t l1Bytes = 32 * 1024;
    unsigned l1Assoc = 8;
    Cycles l1Latency = 4;

    std::uint64_t l2Bytes = 1024 * 1024;
    unsigned l2Assoc = 16;
    Cycles l2Latency = 14;

    unsigned llcSlices = 16;
    std::uint64_t llcSliceBytes = 2 * 1024 * 1024;
    unsigned llcAssoc = 16;
    /// Tag+data access time inside one slice.
    Cycles llcSliceLatency = 8;
    /// Fixed cost for a core request to enter/leave the mesh.
    Cycles coreToLlcBase = 26;
    /// Per mesh hop, each direction.
    Cycles hopCycles = 2;
    /// Extra cycles when a dirty copy must be forwarded from another
    /// core's private cache (core-to-core transfer, paper SS3.4).
    Cycles remoteSnoopPenalty = 60;
    /// Retry cost when a write hits a HALO-locked LLC line (snoop-miss
    /// NACK + reissue, paper SS4.4).
    Cycles lockRetryPenalty = 24;
    /// Miss-handling overhead (MSHR allocate, fill, replay) charged to a
    /// core request that goes all the way to DRAM.
    Cycles coreDramExtra = 40;
    /// Slice-to-slice hop cost for CHA-side accesses to remote slices.
    Cycles chaHopCycles = 1;

    DramConfig dram;
};

/** Outcome of a timed memory access. */
struct AccessResult
{
    Cycles latency = 0;
    MemLevel level = MemLevel::L1;

    bool operator==(const AccessResult &) const = default;
};

/**
 * Full-socket memory hierarchy model. All functional data lives in
 * SimMemory; this class models only where lines are and what touching
 * them costs.
 */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const HierarchyConfig &config =
                                 HierarchyConfig());

    const HierarchyConfig &config() const { return cfg; }

    /** Home LLC slice of an address (line-hash interleaving). */
    SliceId sliceOf(Addr addr) const;

    /** Mesh hop distance between a core and an LLC slice. */
    unsigned coreSliceHops(CoreId core, SliceId slice) const;

    /** Mesh hop distance between two LLC slices. */
    unsigned sliceSliceHops(SliceId a, SliceId b) const;

    /** Timed access from a CPU core. */
    AccessResult coreAccess(CoreId core, Addr addr, bool is_write);

    /**
     * Register an observer invoked for every core write (line address).
     * This models the snoop-filter core-valid bit the paper adds for
     * the accelerator metadata caches (SS4.3): a Read-for-Ownership on
     * a line cached by a CHA's metadata cache invalidates that copy.
     */
    void
    setWriteObserver(std::function<void(Addr)> observer)
    {
        writeObserver = std::move(observer);
    }

    /**
     * Timed access from the CHA at @p requester (a HALO accelerator).
     * Private caches are snooped for dirty copies but never filled.
     */
    AccessResult chaAccess(SliceId requester, Addr addr, bool is_write);

    /**
     * Prefill a line into the LLC (and optionally a core's private
     * caches) without charging time — used to warm tables before
     * measurement, as the paper does with 10K warmup lookups.
     */
    void warmLine(Addr addr, bool into_private = false, CoreId core = 0);

    /** @name HALO hardware lock (paper SS4.4) */
    /**@{*/
    /** Set the lock bit on the line's LLC copy; fills the line first. */
    bool lockLine(SliceId requester, Addr addr);
    /** Clear the lock bit. */
    void unlockLine(Addr addr);
    /** True when the line's LLC copy is currently locked. */
    bool isLineLocked(Addr addr) const;
    /**@}*/

    /** Drop all cached state (tables stay intact in SimMemory). */
    void flushAll();

    Cache &l1(CoreId core) { return *l1s.at(core); }
    Cache &l2(CoreId core) { return *l2s.at(core); }
    Cache &llcSlice(SliceId slice) { return *slices.at(slice); }
    DramModel &dram() { return dramModel; }

    /** Average core->LLC round-trip latency (for calibration tests). */
    Cycles averageCoreLlcLatency(CoreId core) const;

    StatGroup &stats() { return statGroup; }

  private:
    /** Invalidate the private copies held by the cores in @p sharers and
     *  clear their bits on the LLC line in @p slice; report whether any
     *  copy existed and whether one was dirty. */
    bool snoopInvalidatePrivate(Cache &slice, Addr line,
                                std::uint32_t sharers, bool &was_dirty);

    /** Maintain inclusion: LLC eviction back-invalidates the private
     *  copies of the cores in the victim's sharer mask. */
    void handleLlcEviction(Addr evicted_line, std::uint32_t sharers);

    HierarchyConfig cfg;
    std::function<void(Addr)> writeObserver;
    std::vector<std::unique_ptr<Cache>> l1s;
    std::vector<std::unique_ptr<Cache>> l2s;
    std::vector<std::unique_ptr<Cache>> slices;
    DramModel dramModel;
    unsigned meshDim;

    StatGroup statGroup;
    Counter &coreAccesses;
    Counter &chaAccesses;
    Counter &snoopForwards;
    Counter &lockRetries;
    Counter &backInvalidations;
};

} // namespace halo

#endif // HALO_MEM_HIERARCHY_HH
