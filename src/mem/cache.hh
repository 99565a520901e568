/**
 * @file
 * Set-associative tag-array cache model.
 *
 * Data never lives here — SimMemory is the single functional store — so
 * the cache tracks presence, dirtiness, the HALO lock bit, and LRU state
 * per line. The model is deliberately data-less, which is sufficient for
 * every effect the paper measures (residency, miss rates, lock conflicts).
 */

#ifndef HALO_MEM_CACHE_HH
#define HALO_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace halo {

/** Which level of the hierarchy serviced an access. */
enum class MemLevel : std::uint8_t
{
    L1,
    L2,
    LLC,
    RemoteCache, ///< dirty line forwarded from another core's private cache
    DRAM,
};

/** Human-readable level name. */
const char *memLevelName(MemLevel level);

/** Width of CacheLineState::sharers: the most cores an LLC can track. */
constexpr unsigned maxSharerCores = 32;

/**
 * The state of one cache way apart from its tag (the tags live in a
 * dense array of their own, scanned first). The lockBit is the reserved
 * metadata bit HALO uses for its hardware-assisted concurrency lock
 * (paper §4.4); it is only ever set on LLC lines. The sharer mask holds
 * the snoop filter's core-valid bits, also LLC only: bit c is set
 * whenever core c's private caches may hold the line. It may
 * over-approximate (a private eviction leaves the bit set) but never
 * misses a holder.
 */
struct CacheLineState
{
    bool dirty = false;
    bool lockBit = false;     ///< HALO hardware lock (LLC only)
    std::uint32_t sharers = 0; ///< core-valid bits (LLC only)
    std::uint64_t lruStamp = 0;
};

static_assert(sizeof(CacheLineState) == 16,
              "the sharer mask must stay in the way's padding");

/** Result of a single cache probe. */
struct CacheProbe
{
    bool hit = false;
    bool locked = false;          ///< hit line's lock bit
    bool evictedValid = false;
    bool evictedDirty = false;
    std::uint32_t sharers = 0;    ///< hit line's sharer mask before the access
    Addr evictedLine = invalidAddr;
    std::uint32_t evictedSharers = 0; ///< victim's sharer mask
};

/**
 * A single set-associative cache (used for L1, L2, and each LLC slice).
 */
class Cache
{
  public:
    /**
     * @param cache_name  Stats group name.
     * @param size_bytes  Total capacity.
     * @param assoc       Associativity.
     * @param latency     Hit latency in cycles.
     */
    Cache(const std::string &cache_name, std::uint64_t size_bytes,
          unsigned assoc, Cycles latency);

    /** Hit latency of this array. */
    Cycles latency() const { return hitLatency; }

    /** Number of sets. */
    std::uint64_t numSets() const { return sets; }

    /** Capacity in bytes. */
    std::uint64_t capacity() const { return sizeBytes; }

    /** True when the line is present (no state change, no stats). */
    bool contains(Addr line_addr) const;

    /**
     * Probe for a line; on hit refresh LRU, on miss allocate (possibly
     * evicting). The caller decides what a miss costs.
     *
     * @param line_addr line-aligned address
     * @param is_write  marks the line dirty on hit/fill
     * @param allocate_on_miss fill the line on miss (false = probe only)
     * @param add_sharers OR-ed into the line's sharer mask (hit or fill)
     */
    CacheProbe access(Addr line_addr, bool is_write,
                      bool allocate_on_miss = true,
                      std::uint32_t add_sharers = 0);

    /**
     * Allocate a line the caller has just probed and missed with
     * allocate_on_miss=false, without counting that miss again. The line
     * must be absent.
     */
    CacheProbe fill(Addr line_addr, bool is_write,
                    std::uint32_t add_sharers = 0);

    /** Sharer mask of a line; absent lines report 0. */
    std::uint32_t sharers(Addr line_addr) const;

    /**
     * Record a snoop that invalidated the private copies of the cores in
     * @p sharers: clear their bits, and mark the line dirty when one of
     * the copies was (the LLC absorbs its data).
     */
    void clearSharers(Addr line_addr, std::uint32_t sharers,
                      bool absorb_dirty);

    /**
     * Remove a line (back-invalidation from an inclusive LLC or a snoop).
     * @return true when the line was present and dirty.
     */
    bool invalidate(Addr line_addr);

    /** Try to set the HALO lock bit. Fails when the line is absent. */
    bool setLockBit(Addr line_addr, bool locked);

    /**
     * Set the HALO lock bit with one probe of the set: a present,
     * unlocked line is locked in place; an absent line is filled first
     * (counted as a miss, as access() counts it) and then locked. Fails,
     * changing nothing, when the line is already locked.
     * @param filled the fill's eviction report (untouched on a hit)
     */
    bool lock(Addr line_addr, CacheProbe &filled);

    /** Read the lock bit; absent lines report unlocked. */
    bool lockBit(Addr line_addr) const;

    /** Lines currently valid (O(capacity); for tests). */
    std::uint64_t validLines() const;

    /** Drop every line. */
    void flushAll();

    /** Call @p fn with the address of every valid line (for tests). */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        for (const Addr tag : tags)
            if (tag != invalidAddr)
                fn(tag);
    }

    StatGroup &stats() { return statGroup; }
    const StatGroup &stats() const { return statGroup; }

  private:
    static constexpr std::uint64_t absent = ~std::uint64_t{0};

    /** Way slot (set base + way) holding @p line_addr, or absent. */
    std::uint64_t findSlot(Addr line_addr) const;
    /** Allocate @p line_addr (absent) into its set's victim way. */
    std::uint64_t fillSlot(Addr line_addr, bool is_write,
                           std::uint32_t add_sharers, CacheProbe &probe);
    std::uint64_t setIndex(Addr line_addr) const;

    std::uint64_t sizeBytes;
    unsigned associativity;
    std::uint64_t sets;
    Cycles hitLatency;
    std::uint64_t lruCounter = 0;
    /// Line address per way, invalidAddr when the way is invalid; one
    /// set's ways are contiguous, so a lookup scans one dense run.
    std::vector<Addr> tags;
    /// Everything else about each way, in the same slot order.
    std::vector<CacheLineState> state;

    StatGroup statGroup;
    Counter &hits;
    Counter &misses;
    Counter &evictions;
    Counter &writebacks;
};

} // namespace halo

#endif // HALO_MEM_CACHE_HH
