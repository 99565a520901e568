#include "cpu/fixed_block.hh"

#include <utility>

#include "sim/logging.hh"

namespace halo {

FixedBlock::FixedBlock(OpTrace ops) : trace(std::move(ops))
{
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const MicroOp &op = trace[i];
        HALO_ASSERT(op.kind != OpKind::LookupB &&
                        op.kind != OpKind::LookupNB,
                    "a fixed block cannot issue accelerator lookups");
        HALO_ASSERT(op.kind != OpKind::Store || op.addr == invalidAddr,
                    "a fixed block cannot store to memory");
        const bool addressed_load = (op.kind == OpKind::Load ||
                                     op.kind == OpKind::SnapshotRead) &&
                                    op.addr != invalidAddr;
        if (!addressed_load)
            continue;
        HALO_ASSERT(numLoads < maxLoads, "fixed block has more than ",
                    maxLoads, " addressed loads");
        loadIndex[numLoads++] = static_cast<std::uint32_t>(i);
    }
}

OpTrace
FixedBlock::lowered(Addr base) const
{
    OpTrace out = trace;
    for (unsigned i = 0; i < numLoads; ++i)
        out[loadIndex[i]].addr += base;
    return out;
}

const RunResult *
FixedBlock::find(const CoreConfig &config, const Key &key)
{
    if (config != memoConfig) {
        memoConfig = config;
        used = 0;
        nextVictim = 0;
    }
    for (unsigned e = 0; e < used; ++e) {
        if (memo[e].key == key) {
            ++hits;
            return &memo[e].rel;
        }
    }
    return nullptr;
}

const RunResult &
FixedBlock::store(const Key &key, const RunResult &rel)
{
    unsigned slot;
    if (used < memoEntries) {
        slot = used++;
    } else {
        slot = nextVictim;
        nextVictim = (nextVictim + 1) % memoEntries;
    }
    memo[slot].key = key;
    memo[slot].rel = rel;
    return memo[slot].rel;
}

} // namespace halo
