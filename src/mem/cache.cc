#include "mem/cache.hh"

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
    lines.resize(sets * associativity);
}

std::uint64_t
Cache::setIndex(Addr line_addr) const
{
    return (line_addr / cacheLineBytes) & (sets - 1);
}

CacheLineState *
Cache::findLine(Addr line_addr)
{
    const std::uint64_t base = setIndex(line_addr) * associativity;
    for (unsigned way = 0; way < associativity; ++way) {
        CacheLineState &line = lines[base + way];
        if (line.valid && line.tag == line_addr)
            return &line;
    }
    return nullptr;
}

const CacheLineState *
Cache::findLine(Addr line_addr) const
{
    const std::uint64_t base = setIndex(line_addr) * associativity;
    for (unsigned way = 0; way < associativity; ++way) {
        const CacheLineState &line = lines[base + way];
        if (line.valid && line.tag == line_addr)
            return &line;
    }
    return nullptr;
}

bool
Cache::contains(Addr line_addr) const
{
    return findLine(lineAlign(line_addr)) != nullptr;
}

CacheProbe
Cache::access(Addr line_addr, bool is_write, bool allocate_on_miss,
              std::uint32_t add_sharers)
{
    line_addr = lineAlign(line_addr);

    if (CacheLineState *line = findLine(line_addr)) {
        ++hits;
        CacheProbe probe;
        probe.hit = true;
        probe.locked = line->lockBit;
        probe.sharers = line->sharers;
        line->lruStamp = ++lruCounter;
        line->dirty = line->dirty || is_write;
        line->sharers |= add_sharers;
        return probe;
    }

    ++misses;
    if (!allocate_on_miss)
        return CacheProbe{};
    return fill(line_addr, is_write, add_sharers);
}

CacheProbe
Cache::fill(Addr line_addr, bool is_write, std::uint32_t add_sharers)
{
    line_addr = lineAlign(line_addr);

    // Choose a victim: first invalid way, else LRU. A locked line is never
    // chosen while an unlocked candidate exists (the HALO lock pins the
    // line for the duration of a query).
    const std::uint64_t base = setIndex(line_addr) * associativity;
    CacheLineState *victim = nullptr;
    CacheLineState *lockedVictim = nullptr;
    for (unsigned way = 0; way < associativity; ++way) {
        CacheLineState &line = lines[base + way];
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (line.lockBit) {
            if (!lockedVictim || line.lruStamp < lockedVictim->lruStamp)
                lockedVictim = &line;
            continue;
        }
        if (!victim || line.lruStamp < victim->lruStamp)
            victim = &line;
    }
    if (!victim)
        victim = lockedVictim; // whole set locked: extremely rare fallback

    CacheProbe probe;
    if (victim->valid) {
        ++evictions;
        probe.evictedValid = true;
        probe.evictedDirty = victim->dirty;
        probe.evictedLine = victim->tag;
        probe.evictedSharers = victim->sharers;
        if (victim->dirty)
            ++writebacks;
    }

    victim->tag = line_addr;
    victim->valid = true;
    victim->dirty = is_write;
    victim->lockBit = false;
    victim->sharers = add_sharers;
    victim->lruStamp = ++lruCounter;
    return probe;
}

std::uint32_t
Cache::sharers(Addr line_addr) const
{
    const CacheLineState *line = findLine(lineAlign(line_addr));
    return line != nullptr ? line->sharers : 0;
}

void
Cache::clearSharers(Addr line_addr, std::uint32_t sharers,
                    bool absorb_dirty)
{
    if (CacheLineState *line = findLine(lineAlign(line_addr))) {
        line->sharers &= ~sharers;
        line->dirty = line->dirty || absorb_dirty;
    }
}

bool
Cache::invalidate(Addr line_addr)
{
    if (CacheLineState *line = findLine(lineAlign(line_addr))) {
        const bool was_dirty = line->dirty;
        line->valid = false;
        line->dirty = false;
        line->lockBit = false;
        return was_dirty;
    }
    return false;
}

bool
Cache::setLockBit(Addr line_addr, bool locked)
{
    if (CacheLineState *line = findLine(lineAlign(line_addr))) {
        line->lockBit = locked;
        return true;
    }
    return false;
}

bool
Cache::lockBit(Addr line_addr) const
{
    const CacheLineState *line = findLine(lineAlign(line_addr));
    return line != nullptr && line->lockBit;
}

std::uint64_t
Cache::validLines() const
{
    std::uint64_t n = 0;
    for (const auto &line : lines)
        if (line.valid)
            ++n;
    return n;
}

void
Cache::flushAll()
{
    for (auto &line : lines)
        line = CacheLineState{};
}

} // namespace halo
