#include "mem/cache.hh"

#include <algorithm>

namespace halo {

const char *
memLevelName(MemLevel level)
{
    switch (level) {
      case MemLevel::L1:
        return "L1";
      case MemLevel::L2:
        return "L2";
      case MemLevel::LLC:
        return "LLC";
      case MemLevel::RemoteCache:
        return "RemoteCache";
      case MemLevel::DRAM:
        return "DRAM";
    }
    return "?";
}

Cache::Cache(const std::string &cache_name, std::uint64_t size_bytes,
             unsigned assoc, Cycles latency)
    : sizeBytes(size_bytes),
      associativity(assoc),
      sets(size_bytes / (static_cast<std::uint64_t>(assoc) *
                         cacheLineBytes)),
      hitLatency(latency),
      statGroup(cache_name),
      hits(statGroup.counter("hits")),
      misses(statGroup.counter("misses")),
      evictions(statGroup.counter("evictions")),
      writebacks(statGroup.counter("writebacks"))
{
    HALO_ASSERT(sets > 0, "cache too small for its associativity");
    HALO_ASSERT(isPowerOfTwo(sets), "set count must be a power of two");
    tags.assign(sets * associativity, invalidAddr);
    state.resize(sets * associativity);
}

std::uint64_t
Cache::setIndex(Addr line_addr) const
{
    return (line_addr / cacheLineBytes) & (sets - 1);
}

std::uint64_t
Cache::findSlot(Addr line_addr) const
{
    // Line addresses are line-aligned, so an invalid way's invalidAddr
    // never matches.
    const std::uint64_t base = setIndex(line_addr) * associativity;
    const Addr *set = tags.data() + base;
    for (unsigned way = 0; way < associativity; ++way) {
        if (set[way] == line_addr)
            return base + way;
    }
    return absent;
}

bool
Cache::contains(Addr line_addr) const
{
    return findSlot(lineAlign(line_addr)) != absent;
}

CacheProbe
Cache::access(Addr line_addr, bool is_write, bool allocate_on_miss,
              std::uint32_t add_sharers)
{
    line_addr = lineAlign(line_addr);

    const std::uint64_t slot = findSlot(line_addr);
    if (slot != absent) {
        ++hits;
        CacheLineState &line = state[slot];
        CacheProbe probe;
        probe.hit = true;
        probe.locked = line.lockBit;
        probe.sharers = line.sharers;
        line.lruStamp = ++lruCounter;
        line.dirty = line.dirty || is_write;
        line.sharers |= add_sharers;
        return probe;
    }

    ++misses;
    if (!allocate_on_miss)
        return CacheProbe{};
    CacheProbe probe;
    fillSlot(line_addr, is_write, add_sharers, probe);
    return probe;
}

CacheProbe
Cache::fill(Addr line_addr, bool is_write, std::uint32_t add_sharers)
{
    CacheProbe probe;
    fillSlot(lineAlign(line_addr), is_write, add_sharers, probe);
    return probe;
}

std::uint64_t
Cache::fillSlot(Addr line_addr, bool is_write, std::uint32_t add_sharers,
                CacheProbe &probe)
{
    // Choose a victim: first invalid way, else LRU. A locked line is never
    // chosen while an unlocked candidate exists (the HALO lock pins the
    // line for the duration of a query).
    const std::uint64_t base = setIndex(line_addr) * associativity;
    std::uint64_t victim = absent;
    std::uint64_t lockedVictim = absent;
    for (unsigned way = 0; way < associativity; ++way) {
        const std::uint64_t slot = base + way;
        if (tags[slot] == invalidAddr) {
            victim = slot;
            break;
        }
        const CacheLineState &line = state[slot];
        if (line.lockBit) {
            if (lockedVictim == absent ||
                line.lruStamp < state[lockedVictim].lruStamp)
                lockedVictim = slot;
            continue;
        }
        if (victim == absent || line.lruStamp < state[victim].lruStamp)
            victim = slot;
    }
    if (victim == absent)
        victim = lockedVictim; // whole set locked: extremely rare fallback

    CacheLineState &line = state[victim];
    if (tags[victim] != invalidAddr) {
        ++evictions;
        probe.evictedValid = true;
        probe.evictedDirty = line.dirty;
        probe.evictedLine = tags[victim];
        probe.evictedSharers = line.sharers;
        if (line.dirty)
            ++writebacks;
    }

    tags[victim] = line_addr;
    line.dirty = is_write;
    line.lockBit = false;
    line.sharers = add_sharers;
    line.lruStamp = ++lruCounter;
    return victim;
}

std::uint32_t
Cache::sharers(Addr line_addr) const
{
    const std::uint64_t slot = findSlot(lineAlign(line_addr));
    return slot != absent ? state[slot].sharers : 0;
}

void
Cache::clearSharers(Addr line_addr, std::uint32_t sharers,
                    bool absorb_dirty)
{
    const std::uint64_t slot = findSlot(lineAlign(line_addr));
    if (slot != absent) {
        state[slot].sharers &= ~sharers;
        state[slot].dirty = state[slot].dirty || absorb_dirty;
    }
}

bool
Cache::invalidate(Addr line_addr)
{
    const std::uint64_t slot = findSlot(lineAlign(line_addr));
    if (slot == absent)
        return false;
    const bool was_dirty = state[slot].dirty;
    tags[slot] = invalidAddr;
    state[slot].dirty = false;
    state[slot].lockBit = false;
    return was_dirty;
}

bool
Cache::setLockBit(Addr line_addr, bool locked)
{
    const std::uint64_t slot = findSlot(lineAlign(line_addr));
    if (slot == absent)
        return false;
    state[slot].lockBit = locked;
    return true;
}

bool
Cache::lockBit(Addr line_addr) const
{
    const std::uint64_t slot = findSlot(lineAlign(line_addr));
    return slot != absent && state[slot].lockBit;
}

bool
Cache::lock(Addr line_addr, CacheProbe &filled)
{
    line_addr = lineAlign(line_addr);
    std::uint64_t slot = findSlot(line_addr);
    if (slot != absent && state[slot].lockBit)
        return false; // already held by another query
    if (slot == absent) {
        ++misses;
        slot = fillSlot(line_addr, false, 0, filled);
    }
    state[slot].lockBit = true;
    return true;
}

std::uint64_t
Cache::validLines() const
{
    std::uint64_t n = 0;
    for (const Addr tag : tags)
        if (tag != invalidAddr)
            ++n;
    return n;
}

void
Cache::flushAll()
{
    std::fill(tags.begin(), tags.end(), invalidAddr);
    std::fill(state.begin(), state.end(), CacheLineState{});
}

} // namespace halo
