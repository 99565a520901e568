#include "mem/hierarchy.hh"

#include <bit>
#include <cmath>

namespace halo {

namespace {

/** Cheap line-address mix used for slice interleaving (models the CPU's
 *  undocumented slice-hash; only uniformity matters). */
std::uint64_t
mixLine(std::uint64_t line)
{
    line ^= line >> 17;
    line *= 0xed5ad4bbu;
    line ^= line >> 11;
    line *= 0xac4c1b51u;
    line ^= line >> 15;
    return line;
}

} // namespace

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig &config)
    : cfg(config),
      dramModel(config.dram),
      statGroup("hierarchy"),
      coreAccesses(statGroup.counter("core_accesses")),
      chaAccesses(statGroup.counter("cha_accesses")),
      snoopForwards(statGroup.counter("snoop_forwards")),
      lockRetries(statGroup.counter("lock_retries")),
      backInvalidations(statGroup.counter("back_invalidations"))
{
    HALO_ASSERT(cfg.cores > 0 && cfg.llcSlices > 0);
    HALO_ASSERT(cfg.cores <= maxSharerCores,
                "the LLC sharer mask tracks at most ", maxSharerCores,
                " cores");
    meshDim = static_cast<unsigned>(
        std::ceil(std::sqrt(static_cast<double>(cfg.llcSlices))));

    for (unsigned c = 0; c < cfg.cores; ++c) {
        l1s.push_back(std::make_unique<Cache>(
            "l1d." + std::to_string(c), cfg.l1Bytes, cfg.l1Assoc,
            cfg.l1Latency));
        l2s.push_back(std::make_unique<Cache>(
            "l2." + std::to_string(c), cfg.l2Bytes, cfg.l2Assoc,
            cfg.l2Latency));
    }
    for (unsigned s = 0; s < cfg.llcSlices; ++s) {
        slices.push_back(std::make_unique<Cache>(
            "llc." + std::to_string(s), cfg.llcSliceBytes, cfg.llcAssoc,
            cfg.llcSliceLatency));
    }
}

SliceId
MemoryHierarchy::sliceOf(Addr addr) const
{
    return static_cast<SliceId>(mixLine(addr / cacheLineBytes) %
                                cfg.llcSlices);
}

unsigned
MemoryHierarchy::coreSliceHops(CoreId core, SliceId slice) const
{
    // Cores and slices are co-located tile-by-tile on a meshDim x meshDim
    // grid (Skylake-SP style).
    const unsigned tile_a = core % cfg.llcSlices;
    const unsigned ax = tile_a % meshDim, ay = tile_a / meshDim;
    const unsigned bx = slice % meshDim, by = slice / meshDim;
    return (ax > bx ? ax - bx : bx - ax) + (ay > by ? ay - by : by - ay);
}

unsigned
MemoryHierarchy::sliceSliceHops(SliceId a, SliceId b) const
{
    const unsigned ax = a % meshDim, ay = a / meshDim;
    const unsigned bx = b % meshDim, by = b / meshDim;
    return (ax > bx ? ax - bx : bx - ax) + (ay > by ? ay - by : by - ay);
}

bool
MemoryHierarchy::snoopInvalidatePrivate(Cache &slice, Addr line,
                                        std::uint32_t sharers,
                                        bool &was_dirty)
{
    was_dirty = false;
    if (sharers == 0)
        return false;
    // The LLC line's core-valid bits name every core that may hold a
    // copy; the others cannot, so only these are probed.
    bool found = false;
    for (std::uint32_t m = sharers; m != 0; m &= m - 1) {
        const unsigned c = static_cast<unsigned>(std::countr_zero(m));
        if (l1s[c]->contains(line)) {
            was_dirty |= l1s[c]->invalidate(line);
            found = true;
        }
        if (l2s[c]->contains(line)) {
            was_dirty |= l2s[c]->invalidate(line);
            found = true;
        }
    }
    slice.clearSharers(line, sharers, was_dirty);
    return found;
}

void
MemoryHierarchy::handleLlcEviction(Addr evicted_line, std::uint32_t sharers)
{
    // Inclusive LLC: evicting a line removes private copies too.
    for (std::uint32_t m = sharers; m != 0; m &= m - 1) {
        const unsigned c = static_cast<unsigned>(std::countr_zero(m));
        const bool present = l1s[c]->contains(evicted_line) ||
                             l2s[c]->contains(evicted_line);
        l1s[c]->invalidate(evicted_line);
        l2s[c]->invalidate(evicted_line);
        if (present)
            ++backInvalidations;
    }
}

AccessResult
MemoryHierarchy::coreAccess(CoreId core, Addr addr, bool is_write)
{
    ++coreAccesses;
    HALO_ASSERT(core < cfg.cores, "bad core id");
    const Addr line = lineAlign(addr);
    if (is_write && writeObserver)
        writeObserver(line);

    // L1 (probe only; fills happen once the servicing level is known and
    // do not count the probe's miss again).
    if (l1s[core]->access(line, is_write, /*allocate=*/false).hit)
        return {cfg.l1Latency, MemLevel::L1};

    // L2
    if (l2s[core]->access(line, is_write, /*allocate=*/false).hit) {
        l1s[core]->fill(line, is_write);
        return {cfg.l1Latency + cfg.l2Latency, MemLevel::L2};
    }

    // LLC slice over the mesh. The requester becomes a sharer; every
    // other sharer is snooped below.
    const SliceId home = sliceOf(line);
    const Cycles mesh = cfg.coreToLlcBase +
                        2ull * cfg.hopCycles * coreSliceHops(core, home);
    Cycles latency = cfg.l1Latency + cfg.l2Latency + mesh +
                     cfg.llcSliceLatency;
    const std::uint32_t self = 1u << core;
    CacheProbe llc = slices[home]->access(line, is_write,
                                          /*allocate=*/true, self);
    if (llc.evictedValid)
        handleLlcEviction(llc.evictedLine, llc.evictedSharers);

    // Writes must wait for a HALO-locked line to unlock (snoop-miss NACK
    // and retry). Functionally the lock holder is an accelerator whose
    // query completes in bounded time, so one retry round is charged.
    if (is_write && llc.locked) {
        ++lockRetries;
        latency += cfg.lockRetryPenalty;
    }

    bool remote_dirty = false;
    const bool in_remote = snoopInvalidatePrivate(
        *slices[home], line, llc.sharers & ~self, remote_dirty);

    MemLevel level;
    if (llc.hit) {
        if (in_remote && remote_dirty) {
            // Dirty copy forwarded core-to-core.
            ++snoopForwards;
            latency += cfg.remoteSnoopPenalty;
            level = MemLevel::RemoteCache;
        } else {
            level = MemLevel::LLC;
        }
    } else {
        latency += dramModel.access(line) + cfg.coreDramExtra;
        level = MemLevel::DRAM;
    }

    // Fill private caches (inclusion already guaranteed by LLC fill).
    l2s[core]->fill(line, is_write);
    l1s[core]->fill(line, is_write);
    return {latency, level};
}

AccessResult
MemoryHierarchy::chaAccess(SliceId requester, Addr addr, bool is_write)
{
    ++chaAccesses;
    HALO_ASSERT(requester < cfg.llcSlices, "bad slice id");
    const Addr line = lineAlign(addr);
    const SliceId home = sliceOf(line);

    Cycles latency = cfg.llcSliceLatency +
                     2ull * cfg.chaHopCycles *
                         sliceSliceHops(requester, home);

    // The CHA owns the directory for its lines: snoop out any private
    // copy so the accelerator reads coherent data.
    CacheProbe llc = slices[home]->access(line, is_write);
    if (llc.evictedValid)
        handleLlcEviction(llc.evictedLine, llc.evictedSharers);

    bool remote_dirty = false;
    const bool in_private = snoopInvalidatePrivate(*slices[home], line,
                                                   llc.sharers,
                                                   remote_dirty);

    if (llc.hit) {
        if (in_private && remote_dirty) {
            ++snoopForwards;
            latency += cfg.remoteSnoopPenalty;
            return {latency, MemLevel::RemoteCache};
        }
        return {latency, MemLevel::LLC};
    }

    // CHA goes straight to memory — no core-side miss handling overhead.
    latency += dramModel.access(line);
    return {latency, MemLevel::DRAM};
}

void
MemoryHierarchy::warmLine(Addr addr, bool into_private, CoreId core)
{
    HALO_ASSERT(!into_private || core < cfg.cores, "bad core id");
    const Addr line = lineAlign(addr);
    const std::uint32_t sharer = into_private ? 1u << core : 0u;
    CacheProbe llc = slices[sliceOf(line)]->access(line, false,
                                                   /*allocate=*/true, sharer);
    if (llc.evictedValid)
        handleLlcEviction(llc.evictedLine, llc.evictedSharers);
    if (into_private) {
        l2s[core]->access(line, false);
        l1s[core]->access(line, false);
    }
}

bool
MemoryHierarchy::lockLine(SliceId requester, Addr addr)
{
    (void)requester;
    const Addr line = lineAlign(addr);
    // An absent line is first brought into the LLC by the accelerator.
    CacheProbe filled;
    const bool locked = slices[sliceOf(line)]->lock(line, filled);
    if (filled.evictedValid)
        handleLlcEviction(filled.evictedLine, filled.evictedSharers);
    return locked;
}

void
MemoryHierarchy::unlockLine(Addr addr)
{
    const Addr line = lineAlign(addr);
    slices[sliceOf(line)]->setLockBit(line, false);
}

bool
MemoryHierarchy::isLineLocked(Addr addr) const
{
    const Addr line = lineAlign(addr);
    const SliceId home = sliceOf(line);
    return const_cast<MemoryHierarchy *>(this)
        ->slices[home]
        ->lockBit(line);
}

void
MemoryHierarchy::flushAll()
{
    for (auto &c : l1s)
        c->flushAll();
    for (auto &c : l2s)
        c->flushAll();
    for (auto &s : slices)
        s->flushAll();
}

Cycles
MemoryHierarchy::averageCoreLlcLatency(CoreId core) const
{
    std::uint64_t total = 0;
    for (unsigned s = 0; s < cfg.llcSlices; ++s) {
        total += cfg.l1Latency + cfg.l2Latency + cfg.coreToLlcBase +
                 2ull * cfg.hopCycles * coreSliceHops(core, s) +
                 cfg.llcSliceLatency;
    }
    return total / cfg.llcSlices;
}

} // namespace halo
