/**
 * @file
 * The repository benchmark: wall-clock packets/s, per-packet sojourn
 * and unclassified packets on three workloads.
 *
 *   hotspot   — 2 workers, inline slow path, elastic controller on;
 *               ~16k flows with rules installed, Zipf 1.1, the hottest
 *               flows colliding in one RSS bucket. EMC-heavy; the
 *               imbalance makes the elastic layer act.
 *   churn_1m  — 2 workers, decoupled slow path + adaptive EMC; 1M
 *               flows at Zipf 0.5 installed as the starting steady
 *               state, 10% of packets start a new flow. Megaflow
 *               probes walk 2^20-entry tables while the revalidator
 *               installs and ages beside them.
 *   tss_accel — single thread, no runtime: the Fig. 11 tuple space
 *               (20 tuples x 1024 entries, half the probes unknown)
 *               through HALO non-blocking bursts of 16.
 *
 * The program is driven only through its public API. Every packet is
 * generated here from --seed. RuntimeConfig defaults apply except for
 * the settings a workload names, so a changed default is measured.
 *
 * A run with --trace 0 prints the end-to-end metrics: a closed-loop
 * saturation phase (the producer waits on a full ring, never drops)
 * gives pps, an open-loop phase at a fixed rate gives sojourn from
 * each packet's due time to the batch publish that completed it. A
 * run with --trace 1 prints the per-layer metrics: it records spans
 * around the calls it makes into each layer, replays the packet
 * stream through one worker's shard from this thread to time the
 * layers that otherwise run on workers, and reads the counters the
 * program publishes. Spans are kept in memory and written at exit.
 *
 * Output: human-readable lines, then one JSON line
 * {"correct", "attempted", "failed", "metrics"}. `failed` counts
 * packets lost to full rings; packets processed without a verdict are
 * charged to classified_ratio (1 - failed_ratio). The run exits 1 when
 * an output check fails.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "flow/ruleset.hh"
#include "obs/json.hh"
#include "obs/meta.hh"
#include "runtime/runtime.hh"
#include "vswitch/shard.hh"

#include "alloc_count.hh"
#include "metric_math.hh"

namespace {

using namespace halo;
using perfbench::median;
using perfbench::percentile;

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
secondsSince(std::uint64_t t0)
{
    return static_cast<double>(nowNs() - t0) / 1e9;
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/** Layer boundaries the benchmark wraps. */
enum class Layer : std::uint8_t
{
    Build,          ///< Packet::fromTuple
    Parse,          ///< Packet::parseHeaders
    RssBucket,      ///< RssDispatcher::bucketFor
    Offer,          ///< Runtime::offer
    ReplayPacket,   ///< one replayed packet (parent of the next four)
    EmcLookup,      ///< ExactMatchCache::lookup
    MegaflowLookup, ///< TupleSpace::lookupFirst
    Process,        ///< VirtualSwitch::processPacket
    Burst,          ///< VirtualSwitch::classifyBurstNB
    Count,
};

const char *
layerName(Layer l)
{
    static const char *const names[] = {
        "net/build",       "net/parse",         "runtime/rss_bucket",
        "runtime/offer",   "replay/packet",     "flow/emc_lookup",
        "flow/megaflow_lookup", "vswitch/process", "core/burst_nb",
    };
    return names[static_cast<unsigned>(l)];
}

/** One-line {"meta": {...}} provenance object (obs::writeMetaBlock). */
std::string
metaJson()
{
    std::ostringstream os;
    {
        obs::JsonWriter j(os, 0);
        j.beginObject();
        obs::writeMetaBlock(j);
        j.endObject();
    }
    std::string m = os.str();
    std::replace(m.begin(), m.end(), '\n', ' ');
    return m;
}

/**
 * In-memory span log: name, start, end, parent and packet id. The
 * first perLayer spans of each layer are kept (32 B each); later ones
 * are counted as dropped.
 */
class SpanLog
{
  public:
    static constexpr std::uint32_t noParent = ~0u;
    static constexpr std::size_t perLayer = 1u << 15;

    struct Span
    {
        std::uint64_t start = 0;
        std::uint64_t end = 0;
        std::uint64_t packet = 0;
        std::uint32_t parent = noParent;
        Layer layer = Layer::Build;
    };

    std::uint32_t
    begin(Layer layer, std::uint64_t packet, std::uint32_t parent)
    {
        std::size_t &n = kept_[static_cast<unsigned>(layer)];
        if (n >= perLayer) {
            ++dropped_;
            return noParent;
        }
        ++n;
        spans_.push_back(Span{nowNs(), 0, packet, parent, layer});
        return static_cast<std::uint32_t>(spans_.size() - 1);
    }

    void
    end(std::uint32_t id)
    {
        if (id != noParent)
            spans_[id].end = nowNs();
    }

    /** Durations in ns of every closed span of @p layer. */
    std::vector<double>
    durations(Layer layer) const
    {
        std::vector<double> d;
        for (const Span &s : spans_)
            if (s.layer == layer && s.end)
                d.push_back(static_cast<double>(s.end - s.start));
        return d;
    }

    double
    total(Layer layer) const
    {
        double t = 0;
        for (const double d : durations(layer))
            t += d;
        return t;
    }

    /** Chrome trace_event JSON, one "X" event per line; span id,
     *  parent (-1 for none) and packet id ride in args. */
    void
    write(std::ostream &os, const std::string &workload) const
    {
        os << "{\"workload\": \"" << workload << "\", \"provenance\": "
           << metaJson() << ", \"spans_dropped\": " << dropped_
           << ", \"traceEvents\": [\n";
        const std::uint64_t t0 = spans_.empty() ? 0 : spans_[0].start;
        char buf[256];
        bool first = true;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            if (!s.end)
                continue;
            std::snprintf(
                buf, sizeof(buf),
                "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 0, "
                "\"tid\": 0, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                "{\"id\": %zu, \"parent\": %lld, \"packet\": %llu}}\n",
                first ? "" : ",", layerName(s.layer),
                static_cast<double>(s.start - t0) / 1e3,
                static_cast<double>(s.end - s.start) / 1e3, i,
                s.parent == noParent ? -1LL
                                     : static_cast<long long>(s.parent),
                static_cast<unsigned long long>(s.packet));
            os << buf;
            first = false;
        }
        os << "]}\n";
    }

  private:
    std::vector<Span> spans_;
    std::size_t kept_[static_cast<unsigned>(Layer::Count)] = {};
    std::uint64_t dropped_ = 0;
};

/** RAII span; a null log records nothing. */
class Scope
{
  public:
    Scope(SpanLog *log, Layer layer, std::uint64_t packet,
          std::uint32_t parent = SpanLog::noParent)
        : log_(log),
          id_(log ? log->begin(layer, packet, parent) : SpanLog::noParent)
    {
    }
    ~Scope()
    {
        if (log_)
            log_->end(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::uint32_t id() const { return id_; }

  private:
    SpanLog *log_;
    std::uint32_t id_;
};

// ---------------------------------------------------------------------
// Results and provenance
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Result
{
    std::vector<std::string> violations;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::map<std::string, double> layers;

    void
    check(bool ok, const std::string &what)
    {
        if (!ok)
            violations.push_back(what);
    }
    void
    put(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back(Metric{name, value, unit});
    }
    void layer(const std::string &name, double value) { layers[name] = value; }
};

/**
 * Every per-layer metric, in BENCHMARK.json order, with its unit. A
 * traced run prints all of them; a layer its workload does not
 * exercise reads 0 (see layers.json for which workload moves which).
 */
const std::pair<const char *, const char *> layerMetrics[] = {
    {"net.build_ns", "ns"},
    {"net.parse_ns", "ns"},
    {"net.allocs_per_pkt", "count"},
    {"runtime.offer_ns_p50", "ns"},
    {"runtime.offer_ns_p99", "ns"},
    {"runtime.rss_bucket_ns", "ns"},
    {"vswitch.process_ns", "ns"},
    {"cpu.model_share", "ratio"},
    {"vswitch.sim_cycles_per_pkt", "cycles"},
    {"flow.emc_hit_ratio", "ratio"},
    {"flow.emc_probe_ns", "ns"},
    {"flow.megaflow_lookup_ns", "ns"},
    {"flow.megaflow_hit_ratio", "ratio"},
    {"hash.seqlock_retries_per_kpkt", "count/kpkt"},
    {"hash.cuckoo_moves", "count"},
    {"hash.load_factor", "ratio"},
    {"runtime.reval.upcalls_per_kpkt", "count/kpkt"},
    {"runtime.reval.install_yield", "ratio"},
    {"runtime.reval.aged_per_install", "ratio"},
    {"runtime.reval.upcall_drops", "count"},
    {"runtime.reval.ring_depth_max", "count"},
    {"runtime.emcctl.disables", "count"},
    {"runtime.emcctl.resizes", "count"},
    {"runtime.emcctl.promotes_throttled", "count"},
    {"runtime.elastic.migrations", "count"},
    {"runtime.elastic.splits", "count"},
    {"runtime.elastic.gate_timeouts", "count"},
    {"runtime.worker_imbalance", "ratio"},
    {"runtime.queue_wait_us_p50", "us"},
    {"runtime.queue_wait_us_p99", "us"},
    {"runtime.batch_service_us", "us"},
    {"runtime.ring_depth_p99", "count"},
    {"runtime.worker_busy_frac", "ratio"},
    {"runtime.backlog_growth", "ratio"},
    {"core.burst_ns_per_pkt", "ns"},
    {"core.sim_cycles_per_pkt", "cycles"},
    {"mem.llc_misses_per_pkt", "count"},
    {"bench.gen_late_us_p99", "us"},
    {"bench.sojourn_samples", "count"},
    {"bench.sojourn_p99_us", "us"},
    {"bench.trace_overhead", "ratio"},
    {"bench.failed_ratio", "ratio"},
    {"bench.threads_max", "count"},
};

/** CPUs this process may run on (what nproc prints). */
unsigned
hostCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

/** Live threads of this process (/proc/self/status). */
unsigned
threadCount()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("Threads:", 0) == 0)
            return static_cast<unsigned>(
                std::strtoul(line.c_str() + 8, nullptr, 10));
    return 0;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(colon + 2);
        }
    return "unknown";
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void
printProvenance(const std::string &workload, unsigned threads_planned)
{
    std::printf("provenance: %s\n", metaJson().c_str());
    std::printf("host: nproc %u, cpu \"%s\"; benchmark build flags \"%s\"\n",
                hostCpus(), cpuModel().c_str(), PERFBENCH_BUILD_FLAGS);
    std::printf("workload %s: %u threads planned\n", workload.c_str(),
                threads_planned);
}

// ---------------------------------------------------------------------
// Traffic
// ---------------------------------------------------------------------

/** Distinct five-tuple for (@p seed, @p id): srcIp is a bijection of
 *  the id, the rest is hashed from both. */
FiveTuple
flowTuple(std::uint64_t seed, std::uint64_t id)
{
    SplitMix64 mix(seed * 0x9e3779b97f4a7c15ull ^ id);
    const std::uint64_t h = mix.next();
    const std::uint64_t salt = SplitMix64(seed).next();
    FiveTuple t;
    t.srcIp = static_cast<std::uint32_t>(id) ^
              static_cast<std::uint32_t>(salt);
    t.dstIp = 0xac100000u | static_cast<std::uint32_t>(h & 0xfffff);
    t.srcPort = static_cast<std::uint16_t>(1024 + (h >> 20) % 60000);
    t.dstPort = (h >> 40) & 1 ? 443 : 80;
    t.proto = static_cast<std::uint8_t>((h >> 41) & 1 ? IpProto::Tcp
                                                       : IpProto::Udp);
    return t;
}

/**
 * Zipf draws over a slot table. With probability churn a packet
 * starts a new flow: its slot's flow ends and a never-seen flow takes
 * the slot (and its popularity), starting with this packet.
 */
class Traffic
{
  public:
    Traffic(std::vector<FiveTuple> slots, double skew, double churn,
            std::uint64_t seed)
        : slots_(std::move(slots)),
          zipf_(slots_.size(), skew),
          rng_(seed ^ 0x7a1f),
          churn_(churn),
          seed_(seed),
          nextId_(slots_.size()),
          seq_(slots_.size(), 0)
    {
    }

    /** Next packet's tuple; @p slot receives its slot index. */
    const FiveTuple &
    next(std::size_t &slot)
    {
        slot = zipf_.sample(rng_);
        if (churn_ > 0.0 && rng_.nextBool(churn_)) {
            slots_[slot] = flowTuple(seed_, nextId_++);
            ++newFlows_;
        }
        return slots_[slot];
    }

    /** Order tag for the next packet of the flow in @p slot: flow id
     *  (slot + 1, so no tag is 0) over a per-flow sequence. */
    std::uint64_t
    tag(std::size_t slot)
    {
        return (static_cast<std::uint64_t>(slot + 1) << 32) |
               (seq_[slot]++ & 0xffffffffull);
    }

    const std::vector<FiveTuple> &slots() const { return slots_; }
    std::uint64_t newFlows() const { return newFlows_; }

  private:
    std::vector<FiveTuple> slots_;
    ZipfDistribution zipf_;
    Xoshiro256 rng_;
    double churn_;
    std::uint64_t seed_;
    std::uint64_t nextId_;
    std::uint64_t newFlows_ = 0;
    std::vector<std::uint32_t> seq_;
};

// ---------------------------------------------------------------------
// Runtime workloads
// ---------------------------------------------------------------------

struct RuntimeSpec
{
    std::string name;
    /// Threads the workload spawns, the benchmark thread included.
    unsigned threads = 0;
    /// Setups per run; setup_s is their median.
    unsigned setups = 3;
    /// Fixed open-loop rate: a third to a half of the saturation pps
    /// measured on a shared 4-vCPU Xeon VM when the workload was
    /// defined, low enough that co-tenant slowdowns do not saturate it.
    double openLoopPps = 0.0;
    double zipfSkew = 0.0;
    double churn = 0.0;
    bool orderCheck = false;
    RuntimeConfig cfg;
    RuleSet rules;
    RuleSet openflow;
    /// Flows installed as exact-match megaflow entries in their own
    /// shard after construction (the starting steady state).
    std::vector<FiveTuple> steadyState;
    std::vector<FiveTuple> flows;
};

RuntimeSpec
hotspotSpec(std::uint64_t seed)
{
    constexpr std::uint64_t numFlows = 16384;
    constexpr std::size_t hotFlows = 8;
    RuntimeSpec s;
    s.name = "hotspot";
    s.threads = 4; // benchmark, 2 workers, elastic controller
    s.setups = 9;
    s.openLoopPps = 25000.0;
    s.zipfSkew = 1.1;
    s.orderCheck = true;
    s.cfg.elastic.enabled = true;

    // Flows are drawn until they land in a chosen RSS bucket: the
    // hottest Zipf ranks all in rank 0's bucket (colliding elephant
    // flows), every other rank dealt round-robin over the remaining
    // buckets. The load each bucket carries then depends on the rank
    // structure alone, not on where a seed's hashes happen to fall.
    const RssDispatcher rss(s.cfg.rss);
    const unsigned buckets = rss.tableEntries();
    std::uint64_t id = 0;
    s.flows.push_back(flowTuple(seed, id++));
    const unsigned hot = rss.bucketFor(s.flows[0]);
    for (std::uint64_t i = 1; i < numFlows; ++i) {
        const unsigned want =
            i < hotFlows ? hot
                         : (hot + 1 + i % (buckets - 1)) % buckets;
        FiveTuple t = flowTuple(seed, id++);
        while (rss.bucketFor(t) != want)
            t = flowTuple(seed, id++);
        s.flows.push_back(t);
    }
    s.rules = deriveRules(s.flows, canonicalMasks(4), 0, seed);
    return s;
}

RuntimeSpec
churnSpec(std::uint64_t seed)
{
    constexpr std::uint64_t numFlows = 1u << 20;
    RuntimeSpec s;
    s.name = "churn_1m";
    s.threads = 4; // benchmark, 2 workers, revalidator
    s.setups = 3;
    s.openLoopPps = 15000.0;
    s.zipfSkew = 0.5;
    s.churn = 0.10;
    s.cfg.decoupled = true;
    s.cfg.emcPolicy.adaptive = true;
    // Each shard's exact-match tuple must hold its half of the steady
    // state plus the flows churn installs before aging removes them.
    s.cfg.shard.vswitch.tupleConfig.tupleCapacity = numFlows;
    for (std::uint64_t i = 0; i < numFlows; ++i)
        s.flows.push_back(flowTuple(seed, i));
    s.steadyState = s.flows;
    // Slow path: one match-all rule, so every new flow resolves.
    FlowRule fallback;
    fallback.priority = 1;
    fallback.action = Action{ActionKind::Forward, 1};
    s.openflow.push_back(fallback);
    return s;
}

/** Construct, install the steady state and start: the timed setup. */
std::unique_ptr<Runtime>
setUp(RuntimeSpec &spec, FlowOrderValidator *validator, Result &res)
{
    RuntimeConfig cfg = spec.cfg;
    cfg.orderValidator = validator;
    cfg.openflowRules = spec.openflow.empty() ? nullptr : &spec.openflow;
    auto rt = std::make_unique<Runtime>(cfg, spec.rules);
    if (!spec.steadyState.empty()) {
        const FlowRule &fallback = spec.openflow.back();
        std::uint64_t refused = 0;
        for (const FiveTuple &t : spec.steadyState) {
            FlowRule r;
            r.mask = FlowMask::exact();
            r.maskedKey = t.toKey();
            r.priority = fallback.priority;
            r.action = fallback.action;
            const unsigned shard = rt->dispatcher().shardFor(t);
            if (!rt->worker(shard).vswitch().tupleSpace().addRule(r))
                ++refused;
        }
        res.check(refused == 0, "steady-state install refused " +
                                    std::to_string(refused) + " flows");
    }
    rt->start();
    return rt;
}

std::uint64_t
processedTotal(Runtime &rt)
{
    std::uint64_t p = 0;
    for (unsigned w = 0; w < rt.numWorkers(); ++w)
        p += rt.worker(w).counters().packets;
    return p;
}

/** Wait until every packet pushed so far has been processed and
 *  published, so the next phase starts from exact counters. */
void
quiesce(Runtime &rt)
{
    for (unsigned w = 0; w < rt.numWorkers(); ++w) {
        Worker &wk = rt.worker(w);
        while (wk.counters().packets != wk.ring().pushedCount())
            std::this_thread::yield();
    }
}

/** Observations every phase shares. */
struct Probe
{
    unsigned maxThreads = 0;
    std::uint64_t upcallRingMax = 0;

    void
    sample(Runtime &rt)
    {
        maxThreads = std::max(maxThreads, threadCount());
        if (const auto *ring = rt.upcallRing())
            upcallRingMax = std::max<std::uint64_t>(upcallRingMax,
                                                    ring->size());
    }
};

/// Rates and percentiles are taken per short window and the median
/// over windows is reported, so a scheduling stall of the VM moves a
/// few windows, not the result.
constexpr double windowSeconds = 0.1;

/** Windows of about windowSeconds in a phase of @p seconds. */
unsigned
windowCount(double seconds, double window_seconds = windowSeconds)
{
    return std::max(1u, static_cast<unsigned>(seconds / window_seconds));
}

/**
 * Closed loop: offer as fast as the rings accept; a full destination
 * ring makes the benchmark wait, never drop. Returns the median
 * packets/s over windows of windowSeconds.
 */
double
closedLoop(Runtime &rt, RuntimeSpec &spec, Traffic &traffic,
           double seconds, SpanLog *spans, Probe &probe,
           std::uint64_t &packet_id)
{
    const unsigned windows = windowCount(seconds);
    RssDispatcher &rss = rt.dispatcher();
    quiesce(rt);
    const std::uint64_t t0 = nowNs();
    const auto window = static_cast<std::uint64_t>(seconds * 1e9 / windows);
    std::uint64_t mark = t0, last = processedTotal(rt);
    std::vector<double> pps;
    while (pps.size() < windows) {
        const std::uint64_t now = nowNs();
        if (now >= mark + window) {
            const std::uint64_t p = processedTotal(rt);
            pps.push_back(static_cast<double>(p - last) * 1e9 /
                          static_cast<double>(now - mark));
            last = p;
            mark = now;
            probe.sample(rt);
            continue;
        }
        const std::uint64_t id = packet_id++;
        std::size_t slot = 0;
        const FiveTuple &t = traffic.next(slot);
        Packet pkt = [&] {
            Scope s(spans, Layer::Build, id);
            return Packet::fromTuple(t);
        }();
        if (spec.orderCheck)
            pkt.stampOrderTag(traffic.tag(slot));
        unsigned bucket = 0;
        {
            Scope s(spans, Layer::RssBucket, id);
            bucket = rss.bucketFor(t);
        }
        SpscRing<Packet> &ring = rt.worker(rss.entry(bucket)).ring();
        while (ring.size() >= ring.capacity())
            std::this_thread::yield();
        Scope s(spans, Layer::Offer, id);
        rt.offer(std::move(pkt), t);
    }
    return median(pps);
}

/** What the open-loop phase measured. */
struct OpenLoop
{
    explicit OpenLoop(unsigned rings) : tracker(rings) {}

    perfbench::SojournTracker tracker;
    /// Sojourn percentiles are medians over this many windows.
    unsigned windows = 1;
    std::uint64_t t0 = 0;
    std::uint64_t windowNs = 0;
    std::vector<double> lateUs;
    std::vector<double> ringDepth;
    std::vector<std::pair<double, double>> backlog;
    double busyFrac = 0.0;
    double growth = 0.0;
    bool drained = true;
};

/**
 * Open loop at a fixed rate: packet i is due at t0 + i / rate and is
 * offered when due, whatever the rings hold (a full ring drops it, as
 * the runtime's default enqueueRetries says). Between sends the
 * benchmark polls each worker's published packet counter to stamp
 * completions.
 */
void
openLoop(Runtime &rt, RuntimeSpec &spec, Traffic &traffic, double seconds,
         SpanLog *spans, Probe &probe, std::uint64_t &packet_id,
         OpenLoop &out)
{
    quiesce(rt);
    const unsigned nw = rt.numWorkers();
    std::vector<std::uint64_t> pushed(nw), base(nw);
    std::uint64_t busy0 = 0;
    for (unsigned w = 0; w < nw; ++w) {
        const WorkerCounters c = rt.worker(w).counters();
        base[w] = c.packets;
        busy0 += c.busyNanos;
        out.tracker.setBase(w, c.packets);
        pushed[w] = rt.worker(w).ring().pushedCount();
    }
    const double period = 1e9 / spec.openLoopPps;
    const std::uint64_t t0 = nowNs();
    const std::uint64_t end = t0 + static_cast<std::uint64_t>(seconds * 1e9);
    out.t0 = t0;
    // Each window is expected to hold at least 2000 samples (p99 needs
    // 1000 to have ten beyond it).
    out.windows = windowCount(
        seconds, std::max(windowSeconds, 2000.0 / spec.openLoopPps));
    out.windowNs = (end - t0) / out.windows;
    std::uint64_t sent = 0, accepted = 0, next_sample = t0;
    auto poll = [&] {
        for (unsigned w = 0; w < nw; ++w)
            out.tracker.observe(w, rt.worker(w).counters().packets,
                                nowNs());
    };
    while (true) {
        const std::uint64_t now = nowNs();
        if (now >= end)
            break;
        const std::uint64_t due =
            t0 + static_cast<std::uint64_t>(static_cast<double>(sent) *
                                            period);
        if (due <= now) {
            const std::uint64_t id = packet_id++;
            std::size_t slot = 0;
            const FiveTuple &t = traffic.next(slot);
            Packet pkt = [&] {
                Scope s(spans, Layer::Build, id);
                return Packet::fromTuple(t);
            }();
            if (spec.orderCheck)
                pkt.stampOrderTag(traffic.tag(slot));
            {
                Scope s(spans, Layer::Offer, id);
                rt.offer(std::move(pkt), t);
            }
            const std::uint64_t push = nowNs();
            ++sent;
            for (unsigned w = 0; w < nw; ++w) {
                const std::uint64_t pc = rt.worker(w).ring().pushedCount();
                if (pc != pushed[w]) {
                    pushed[w] = pc;
                    out.tracker.logOffer(w, due, push);
                    ++accepted;
                }
            }
            out.lateUs.push_back(static_cast<double>(push - due) / 1e3);
            continue;
        }
        poll();
        if (now >= next_sample) {
            std::uint64_t processed = 0;
            for (unsigned w = 0; w < nw; ++w) {
                out.ringDepth.push_back(
                    static_cast<double>(rt.worker(w).ring().size()));
                processed += rt.worker(w).counters().packets - base[w];
            }
            out.backlog.emplace_back(
                static_cast<double>(now - t0) / 1e9,
                static_cast<double>(accepted) -
                    static_cast<double>(processed));
            probe.sample(rt);
            next_sample += 1000000; // 1 ms
        }
    }
    const double wall = static_cast<double>(nowNs() - t0);
    std::uint64_t busy1 = 0;
    for (unsigned w = 0; w < nw; ++w)
        busy1 += rt.worker(w).counters().busyNanos;
    out.busyFrac = static_cast<double>(busy1 - busy0) / (wall * nw);
    out.growth = perfbench::backlogGrowth(out.backlog, spec.openLoopPps);
    // Complete the stragglers; a backlog that never drains is reported.
    const std::uint64_t give_up = nowNs() + 10'000'000'000ull;
    while (out.tracker.pending() && nowNs() < give_up)
        poll();
    out.drained = out.tracker.pending() == 0;
}

/** Per-layer timings replayed through one worker's shard after stop. */
struct Replay
{
    std::uint64_t packets = 0;
    std::uint64_t allocs = 0;
    std::uint64_t megaflowLookups = 0;
    std::uint64_t megaflowHits = 0;
    double simCycles = 0.0;
};

/**
 * Replay the workload's stream through the shard that owns the
 * hottest flow, from this thread (the workers are joined, so the
 * shard is single-threaded again). Packets steered to other shards
 * are skipped.
 */
Replay
replay(Runtime &rt, Traffic &traffic, double seconds, SpanLog &spans,
       std::uint64_t &packet_id)
{
    RssDispatcher &rss = rt.dispatcher();
    const unsigned shard = rss.shardFor(traffic.slots()[0]);
    VirtualSwitch &vs = rt.worker(shard).vswitch();
    const TupleSpace &ts = vs.tupleSpace();
    const ExactMatchCache &emc = vs.emc();
    const SwitchTotals before = vs.totals();
    Replay r;
    const std::uint64_t end =
        nowNs() + static_cast<std::uint64_t>(seconds * 1e9);
    while (nowNs() < end) {
        std::size_t slot = 0;
        const FiveTuple &t = traffic.next(slot);
        const std::uint64_t id = packet_id++;
        Scope top(&spans, Layer::ReplayPacket, id);
        // Children are kept only while their parent is.
        SpanLog *log = top.id() != SpanLog::noParent ? &spans : nullptr;
        const std::uint64_t a0 = perfbench::allocations();
        Packet pkt = [&] {
            Scope s(log, Layer::Build, id, top.id());
            return Packet::fromTuple(t);
        }();
        std::optional<ParsedHeaders> hdr;
        {
            Scope s(log, Layer::Parse, id, top.id());
            hdr = pkt.parseHeaders();
        }
        r.allocs += perfbench::allocations() - a0;
        unsigned bucket = 0;
        {
            Scope s(log, Layer::RssBucket, id, top.id());
            bucket = rss.bucketFor(hdr->tuple());
        }
        ++r.packets;
        if (rss.entry(bucket) != shard)
            continue;
        const auto key = t.toKey();
        {
            Scope s(log, Layer::EmcLookup, id, top.id());
            (void)emc.lookup(key);
        }
        {
            Scope s(log, Layer::MegaflowLookup, id, top.id());
            ++r.megaflowLookups;
            if (ts.lookupFirst(key))
                ++r.megaflowHits;
        }
        Scope s(log, Layer::Process, id, top.id());
        (void)vs.processPacket(pkt);
    }
    const SwitchTotals &after = vs.totals();
    const std::uint64_t processed = after.packets - before.packets;
    r.simCycles = processed ? static_cast<double>(after.total -
                                                  before.total) /
                                  static_cast<double>(processed)
                            : 0.0;
    return r;
}

/** Sum of megaflow-table and EMC seqlock retries, cuckoo moves, and
 *  the fullest megaflow table's load factor, over every shard. */
struct TableStats
{
    std::uint64_t seqlockRetries = 0;
    std::uint64_t moves = 0;
    double loadFactor = 0.0;
};

TableStats
tableStats(Runtime &rt)
{
    TableStats s;
    for (unsigned w = 0; w < rt.numWorkers(); ++w) {
        VirtualSwitch &vs = rt.worker(w).vswitch();
        for (unsigned t = 0; t < vs.tupleSpace().numTuples(); ++t) {
            const CuckooHashTable &tab = vs.tupleSpace().table(t);
            s.seqlockRetries += tab.seqlockRetries();
            s.moves += tab.cuckooMoves();
            s.loadFactor = std::max(s.loadFactor, tab.loadFactor());
        }
        s.seqlockRetries += vs.emc().seqlockRetries();
    }
    return s;
}

Result
runRuntime(RuntimeSpec &spec, std::uint64_t seed, double seconds,
           bool traced, SpanLog &spans)
{
    Result res;
    printProvenance(spec.name, spec.threads);
    const unsigned cpus = hostCpus();
    res.check(spec.threads <= cpus,
              "workload plans " + std::to_string(spec.threads) +
                  " threads on " + std::to_string(cpus) + " CPUs");

    std::unique_ptr<FlowOrderValidator> validator;
    if (spec.orderCheck)
        validator =
            std::make_unique<FlowOrderValidator>(spec.flows.size() + 1);

    Traffic traffic(spec.flows, spec.zipfSkew, spec.churn, seed);
    // Free the spec's copy: the traffic's slot table is the live one.
    spec.flows = {};

    std::vector<double> setup;
    std::unique_ptr<Runtime> rt;
    for (unsigned i = 0; i < spec.setups; ++i) {
        if (rt) {
            rt->stop();
            rt.reset();
        }
        const std::uint64_t t0 = nowNs();
        rt = setUp(spec, validator.get(), res);
        setup.push_back(secondsSince(t0));
    }
    spec.steadyState = {};

    Probe probe;
    std::uint64_t packet_id = 0;
    double pps = 0.0, pps_untraced = 0.0;
    OpenLoop ol(rt->numWorkers());
    if (!traced) {
        pps = closedLoop(*rt, spec, traffic, seconds * 0.5, nullptr, probe,
                         packet_id);
        openLoop(*rt, spec, traffic, seconds * 0.5, nullptr, probe,
                 packet_id, ol);
    } else {
        pps_untraced = closedLoop(*rt, spec, traffic, seconds * 0.25,
                                  nullptr, probe, packet_id);
        pps = closedLoop(*rt, spec, traffic, seconds * 0.25, &spans, probe,
                         packet_id);
        openLoop(*rt, spec, traffic, seconds * 0.25, &spans, probe,
                 packet_id, ol);
    }
    rt->drain();
    const ElasticCounters elastic =
        rt->elastic() ? rt->elastic()->counters() : ElasticCounters{};
    rt->stop();
    const RuntimeSnapshot snap = rt->snapshot();
    const RuntimeReport report = rt->report();

    // Output checks.
    res.check(snap.offered == snap.processed + snap.ringFullDrops,
              "offered " + std::to_string(snap.offered) +
                  " != processed " + std::to_string(snap.processed) +
                  " + ring-full drops " +
                  std::to_string(snap.ringFullDrops));
    if (validator) {
        res.check(validator->violations() == 0,
                  std::to_string(validator->violations()) +
                      " intra-flow reorder violations");
        res.check(validator->observed() > 0, "order validator saw nothing");
    }
    if (spec.cfg.decoupled)
        res.check(snap.revalidator.unresolved == 0,
                  std::to_string(snap.revalidator.unresolved) +
                      " unresolved upcalls");
    res.check(ol.drained, "open-loop packets never completed");
    res.check(probe.maxThreads <= cpus,
              "workload ran " + std::to_string(probe.maxThreads) +
                  " threads on " + std::to_string(cpus) + " CPUs");
    const std::vector<double> &soj = ol.tracker.sojournUs();
    auto windowed = [&](double p) {
        return perfbench::windowedPercentile(ol.tracker.dueNs(), soj, ol.t0,
                                             ol.windowNs, ol.windows,
                                             p);
    };
    const double soj_p50 = windowed(50), soj_p90 = windowed(90);
    res.check(windowed(99) > 0.0,
              "only " + std::to_string(soj.size()) +
                  " sojourn samples: no window supports p99");

    res.attempted = snap.offered;
    res.failed = snap.ringFullDrops;
    const double failed_ratio =
        perfbench::failedRatio(snap.offered, snap.matched);
    const double setup_s = median(setup);

    std::printf("pps %.1f 1/s (closed loop, median of %.0f ms windows)\n",
                pps, windowSeconds * 1e3);
    std::printf("sojourn p50 %.2f us, p90 %.2f us, p99 %.2f us (medians "
                "over %u windows) at %.0f pkt/s; whole phase p50 %.2f, p90 "
                "%.2f, p99 %.2f, p99.9 %.2f us (n=%zu, highest supported "
                "percentile p%g)\n",
                soj_p50, soj_p90, windowed(99), ol.windows,
                spec.openLoopPps, percentile(soj, 50), percentile(soj, 90),
                percentile(soj, 99), percentile(soj, 99.9), soj.size(),
                perfbench::highestSupportedPercentile(soj.size()));
    std::printf("generator lateness p50 %.2f us, p99 %.2f us (n=%zu)\n",
                percentile(ol.lateUs, 50), percentile(ol.lateUs, 99),
                ol.lateUs.size());
    if (spec.churn > 0.0)
        std::printf("new flows %llu (%.1f%% of offered packets)\n",
                    static_cast<unsigned long long>(traffic.newFlows()),
                    100.0 * static_cast<double>(traffic.newFlows()) /
                        static_cast<double>(std::max<std::uint64_t>(
                            snap.offered, 1)));
    std::printf("failed_ratio %.6f (offered %llu, matched %llu, ring-full "
                "drops %llu)\n",
                failed_ratio, static_cast<unsigned long long>(snap.offered),
                static_cast<unsigned long long>(snap.matched),
                static_cast<unsigned long long>(snap.ringFullDrops));
    std::printf("setup_s %.4f s (median of %u), peak_rss_mib %.1f MiB, "
                "threads max %u of nproc %u\n",
                setup_s, spec.setups, peakRssMiB(), probe.maxThreads, cpus);
    if (rt->elastic())
        std::printf("elastic: %llu migrations, %llu splits, %llu parks, "
                    "%llu unparks, %llu gate timeouts\n",
                    static_cast<unsigned long long>(elastic.migrations),
                    static_cast<unsigned long long>(elastic.splits),
                    static_cast<unsigned long long>(elastic.parks),
                    static_cast<unsigned long long>(elastic.unparks),
                    static_cast<unsigned long long>(elastic.gateTimeouts));
    std::printf("backlog growth %.4f of offered rate%s\n", ol.growth,
                perfbench::backlogGrowing(ol.growth) ? " (GROWING)" : "");

    if (!traced) {
        res.put("pps", pps, "1/s");
        res.put("sojourn_p50_us", soj_p50, "us");
        res.put("sojourn_p90_us", soj_p90, "us");
        res.put("classified_ratio", 1.0 - failed_ratio, "ratio");
        res.put("setup_s", setup_s, "s");
        res.put("peak_rss_mib", peakRssMiB(), "MiB");
        return res;
    }

    // Traced run: replay through one shard, then assemble the layers.
    const Replay rp = replay(*rt, traffic, seconds * 0.25, spans, packet_id);
    const TableStats ts = tableStats(*rt);
    const RevalidatorCounters &rv = snap.revalidator;
    auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double kpkt = count(snap.processed) / 1e3;
    const std::vector<double> offer_ns = spans.durations(Layer::Offer);
    const std::vector<double> &qwait = ol.tracker.queueWaitUs();
    auto p50 = [&](Layer l) { return median(spans.durations(l)); };
    double wmax = 0, wsum = 0;
    for (const WorkerCounters &c : snap.perWorker) {
        wmax = std::max(wmax, count(c.packets));
        wsum += count(c.packets);
    }

    res.layer("net.build_ns", p50(Layer::Build));
    res.layer("net.parse_ns", p50(Layer::Parse));
    res.layer("net.allocs_per_pkt",
              ratio(count(rp.allocs), count(rp.packets)));
    res.layer("runtime.offer_ns_p50", percentile(offer_ns, 50));
    res.layer("runtime.offer_ns_p99", percentile(offer_ns, 99));
    res.layer("runtime.rss_bucket_ns", p50(Layer::RssBucket));
    res.layer("vswitch.process_ns", p50(Layer::Process));
    res.layer("cpu.model_share",
              1.0 - ratio(spans.total(Layer::EmcLookup) +
                              spans.total(Layer::MegaflowLookup),
                          spans.total(Layer::Process)));
    res.layer("vswitch.sim_cycles_per_pkt", rp.simCycles);
    res.layer("flow.emc_hit_ratio",
              ratio(count(snap.emcHits), count(snap.processed)));
    res.layer("flow.emc_probe_ns", p50(Layer::EmcLookup));
    res.layer("flow.megaflow_lookup_ns", p50(Layer::MegaflowLookup));
    res.layer("flow.megaflow_hit_ratio",
              ratio(count(rp.megaflowHits), count(rp.megaflowLookups)));
    res.layer("hash.seqlock_retries_per_kpkt",
              ratio(count(ts.seqlockRetries), kpkt));
    res.layer("hash.cuckoo_moves", count(ts.moves));
    res.layer("hash.load_factor", ts.loadFactor);
    res.layer("runtime.reval.upcalls_per_kpkt",
              ratio(count(rv.upcallsProcessed), kpkt));
    res.layer("runtime.reval.install_yield",
              ratio(count(rv.installs), count(rv.upcallsProcessed)));
    res.layer("runtime.reval.aged_per_install",
              ratio(count(rv.agedFlows), count(rv.installs)));
    res.layer("runtime.reval.upcall_drops", count(snap.upcallDrops));
    res.layer("runtime.reval.ring_depth_max", count(probe.upcallRingMax));
    res.layer("runtime.emcctl.disables", count(rv.ctrlDisables));
    res.layer("runtime.emcctl.resizes", count(rv.ctrlResizes));
    res.layer("runtime.emcctl.promotes_throttled",
              count(rv.promotesThrottled));
    res.layer("runtime.elastic.migrations", count(elastic.migrations));
    res.layer("runtime.elastic.splits", count(elastic.splits));
    res.layer("runtime.elastic.gate_timeouts", count(elastic.gateTimeouts));
    res.layer("runtime.worker_imbalance",
              ratio(wmax, wsum / static_cast<double>(snap.perWorker.size())));
    res.layer("runtime.queue_wait_us_p50", percentile(qwait, 50));
    res.layer("runtime.queue_wait_us_p99", percentile(qwait, 99));
    res.layer("runtime.batch_service_us", report.batchP50Nanos / 1e3);
    res.layer("runtime.ring_depth_p99", percentile(ol.ringDepth, 99));
    res.layer("runtime.worker_busy_frac", ol.busyFrac);
    res.layer("runtime.backlog_growth", ol.growth);
    res.layer("bench.gen_late_us_p99", percentile(ol.lateUs, 99));
    res.layer("bench.sojourn_samples", count(soj.size()));
    res.layer("bench.sojourn_p99_us", windowed(99));
    res.layer("bench.trace_overhead",
              ratio(pps_untraced - pps, pps_untraced));
    res.layer("bench.failed_ratio", failed_ratio);
    res.layer("bench.threads_max", count(probe.maxThreads));
    return res;
}

// ---------------------------------------------------------------------
// tss_accel
// ---------------------------------------------------------------------

constexpr unsigned tssTuples = 20;
constexpr std::uint64_t tssEntriesPerTuple = 1024;
constexpr unsigned tssBurst = 16;
/// Packets whose simulated cycles and matches are checked against the
/// values the benchmark's defining commit produced.
constexpr std::uint64_t tssCheckPackets = 2048;

struct TssGolden
{
    std::uint64_t seed;
    std::uint64_t cycles;
    std::uint64_t matches;
};

/// Golden values for seeds 0..N-1 (generate with --tss-golden N).
const TssGolden tssGolden[] = {
#include "tss_golden.inc"
};
constexpr std::size_t tssGoldenSeeds = std::size(tssGolden);

/** Fig. 11 workload: rules over 20 masks x 1024 entries and a probe
 *  set of half known, half unknown flows. */
struct TssInputs
{
    RuleSet rules;
    std::vector<FiveTuple> probes;

    explicit TssInputs(std::uint64_t seed)
    {
        TrafficConfig tcfg;
        tcfg.numFlows = tssEntriesPerTuple * tssTuples * 4;
        tcfg.seed = seed;
        TrafficGenerator gen(tcfg);
        rules = deriveRules(gen.flows(), canonicalMasks(tssTuples),
                            tssEntriesPerTuple * tssTuples, seed);
        Xoshiro256 rng(seed ^ 0x5050);
        for (std::size_t i = 0; i < gen.flows().size(); ++i) {
            if (i % 2 == 0) {
                probes.push_back(gen.flows()[i]);
                continue;
            }
            FiveTuple alien;
            alien.srcIp = 0xc0000000u | static_cast<std::uint32_t>(rng.next());
            alien.dstIp = 0xd0000000u | static_cast<std::uint32_t>(rng.next());
            alien.srcPort = static_cast<std::uint16_t>(rng.next());
            alien.dstPort = static_cast<std::uint16_t>(rng.next());
            alien.proto = 17;
            probes.push_back(alien);
        }
    }
};

/** One simulated machine running the Fig. 11 vswitch. */
struct TssMachine
{
    SimMemory mem{2ull << 30};
    std::unique_ptr<SwitchShard> shard;

    explicit TssMachine(const RuleSet &rules)
    {
        ShardConfig cfg;
        cfg.useHalo = true;
        cfg.vswitch.mode = LookupMode::HaloNonBlocking;
        cfg.vswitch.useEmc = false;
        cfg.vswitch.tupleConfig.tupleCapacity = tssEntriesPerTuple * 2;
        shard = std::make_unique<SwitchShard>(mem, cfg);
        shard->install(rules, true);
    }
};

/** Bursts of probes drawn from the seeded stream. */
class TssStream
{
  public:
    TssStream(const TssInputs &in, std::uint64_t seed)
        : in_(in), rng_(seed ^ 0xb0057), batch_(tssBurst)
    {
    }
    std::span<const FiveTuple>
    next()
    {
        for (FiveTuple &t : batch_)
            t = in_.probes[rng_.nextBounded(in_.probes.size())];
        return batch_;
    }

  private:
    const TssInputs &in_;
    Xoshiro256 rng_;
    std::vector<FiveTuple> batch_;
};

std::uint64_t
countMatched(const std::vector<PacketResult> &r)
{
    std::uint64_t m = 0;
    for (const PacketResult &p : r)
        m += p.matched ? 1 : 0;
    return m;
}

/** Simulated cycles and matches of the first tssCheckPackets packets
 *  of @p seed's stream on a fresh machine. */
TssGolden
tssCheck(std::uint64_t seed)
{
    const TssInputs in(seed);
    TssMachine m(in.rules);
    TssStream stream(in, seed);
    VirtualSwitch &vs = m.shard->vswitch();
    const Cycles c0 = vs.now();
    std::uint64_t matches = 0;
    for (std::uint64_t p = 0; p < tssCheckPackets; p += tssBurst)
        matches += countMatched(vs.classifyBurstNB(stream.next()));
    return TssGolden{seed, vs.now() - c0, matches};
}

std::uint64_t
llcMisses(MemoryHierarchy &h, const HierarchyConfig &cfg)
{
    std::uint64_t m = 0;
    for (unsigned s = 0; s < cfg.llcSlices; ++s)
        m += h.llcSlice(s).stats().counterValue("misses");
    return m;
}

Result
runTss(std::uint64_t seed, double seconds, bool traced, SpanLog &spans)
{
    Result res;
    printProvenance("tss_accel", 1);
    const unsigned cpus = hostCpus();
    const TssInputs in(seed);

    constexpr unsigned setups = 9;
    std::vector<double> setup;
    std::unique_ptr<TssMachine> m;
    for (unsigned i = 0; i < setups; ++i) {
        m.reset();
        const std::uint64_t t0 = nowNs();
        m = std::make_unique<TssMachine>(in.rules);
        setup.push_back(secondsSince(t0));
    }
    VirtualSwitch &vs = m->shard->vswitch();
    MemoryHierarchy &hier = m->shard->hierarchy();
    const HierarchyConfig hcfg;
    TssStream stream(in, seed);

    const Cycles c0 = vs.now();
    std::uint64_t packets = 0, matches = 0, id = 0;
    std::optional<TssGolden> checkpoint;
    std::vector<double> burst_us;
    unsigned max_threads = 0;

    // Timed bursts for @p secs; returns the median pps over windows of
    // 0.2 s (a burst takes milliseconds, so 0.1 s is too coarse).
    auto phase = [&](double secs, SpanLog *log) {
        const unsigned windows = windowCount(secs, 0.2);
        const auto window = static_cast<std::uint64_t>(secs * 1e9 / windows);
        std::uint64_t mark = nowNs(), last = packets;
        std::vector<double> pps;
        while (pps.size() < windows) {
            const std::span<const FiveTuple> batch = stream.next();
            const std::uint64_t b0 = nowNs();
            std::vector<PacketResult> r;
            {
                Scope s(log, Layer::Burst, id);
                r = vs.classifyBurstNB(batch);
            }
            const std::uint64_t b1 = nowNs();
            id += tssBurst;
            burst_us.push_back(static_cast<double>(b1 - b0) / 1e3);
            packets += r.size();
            matches += countMatched(r);
            if (packets == tssCheckPackets)
                checkpoint = TssGolden{seed, vs.now() - c0, matches};
            if (b1 >= mark + window) {
                pps.push_back(static_cast<double>(packets - last) * 1e9 /
                              static_cast<double>(b1 - mark));
                last = packets;
                mark = b1;
                max_threads = std::max(max_threads, threadCount());
            }
        }
        return median(pps);
    };

    double pps = 0.0, pps_untraced = 0.0;
    const std::uint64_t llc0 = llcMisses(hier, hcfg);
    if (!traced) {
        pps = phase(seconds, nullptr);
    } else {
        pps_untraced = phase(seconds * 0.5, nullptr);
        pps = phase(seconds * 0.5, &spans);
    }
    const double cycles_per_pkt =
        static_cast<double>(vs.now() - c0) / static_cast<double>(packets);
    const double llc_per_pkt =
        static_cast<double>(llcMisses(hier, hcfg) - llc0) /
        static_cast<double>(packets);

    // The simulated-cycle total and match count must equal what the
    // defining commit produced for this seed's stream.
    TssGolden got{};
    if (seed < tssGoldenSeeds) {
        res.check(checkpoint.has_value(),
                  "run ended before the checked packet count");
        got = checkpoint.value_or(TssGolden{});
    } else {
        got = tssCheck(seed % tssGoldenSeeds);
    }
    const TssGolden &want = tssGolden[got.seed % tssGoldenSeeds];
    res.check(want.seed == got.seed % tssGoldenSeeds &&
                  got.cycles == want.cycles && got.matches == want.matches,
              "tss_accel check (seed " + std::to_string(got.seed) +
                  "): " + std::to_string(got.cycles) + " cycles, " +
                  std::to_string(got.matches) + " matches; expected " +
                  std::to_string(want.cycles) + " cycles, " +
                  std::to_string(want.matches) + " matches");
    res.check(max_threads <= cpus, "workload ran " +
                                       std::to_string(max_threads) +
                                       " threads on " + std::to_string(cpus));

    // Each packet's sojourn is its burst's latency; bursts are the
    // independent samples.
    res.check(perfbench::highestSupportedPercentile(burst_us.size()) >= 99.0,
              "too few bursts for p99");
    const double failed_ratio = perfbench::failedRatio(packets, matches);
    const double setup_s = median(setup);
    res.attempted = packets;
    res.failed = 0;

    std::printf("pps %.1f 1/s (classifications, median of 200 ms windows)\n",
                pps);
    std::printf("sojourn (burst latency) p50 %.2f us, p90 %.2f us, p99 "
                "%.2f us (n=%zu bursts)\n",
                percentile(burst_us, 50), percentile(burst_us, 90),
                percentile(burst_us, 99), burst_us.size());
    std::printf("failed_ratio %.6f (%llu of %llu matched; half the probes "
                "are unknown flows)\n",
                failed_ratio, static_cast<unsigned long long>(matches),
                static_cast<unsigned long long>(packets));
    std::printf("simulated %.2f cycles/packet, %.3f LLC misses/packet; "
                "check: %llu cycles, %llu matches over %llu packets\n",
                cycles_per_pkt, llc_per_pkt,
                static_cast<unsigned long long>(got.cycles),
                static_cast<unsigned long long>(got.matches),
                static_cast<unsigned long long>(tssCheckPackets));
    std::printf("setup_s %.4f s (median of %u), peak_rss_mib %.1f MiB, "
                "threads max %u of nproc %u\n",
                setup_s, setups, peakRssMiB(), max_threads, cpus);

    if (!traced) {
        res.put("pps", pps, "1/s");
        res.put("sojourn_p50_us", percentile(burst_us, 50), "us");
        res.put("sojourn_p90_us", percentile(burst_us, 90), "us");
        res.put("classified_ratio", 1.0 - failed_ratio, "ratio");
        res.put("setup_s", setup_s, "s");
        res.put("peak_rss_mib", peakRssMiB(), "MiB");
        return res;
    }
    const std::vector<double> burst_ns = spans.durations(Layer::Burst);
    res.layer("core.burst_ns_per_pkt", median(burst_ns) / tssBurst);
    res.layer("core.sim_cycles_per_pkt", cycles_per_pkt);
    res.layer("mem.llc_misses_per_pkt", llc_per_pkt);
    res.layer("bench.sojourn_samples", static_cast<double>(packets));
    res.layer("bench.sojourn_p99_us", percentile(burst_us, 99));
    res.layer("bench.trace_overhead",
              pps_untraced > 0 ? (pps_untraced - pps) / pps_untraced : 0.0);
    res.layer("bench.failed_ratio", failed_ratio);
    res.layer("bench.threads_max", static_cast<double>(max_threads));
    return res;
}

// ---------------------------------------------------------------------
// main
// ---------------------------------------------------------------------

void
printResult(Result &res)
{
    if (!res.layers.empty())
        for (const auto &[name, unit] : layerMetrics)
            res.put(name, res.layers[name], unit);
    for (const std::string &v : res.violations)
        std::printf("CHECK FAILED: %s\n", v.c_str());
    std::string line = "{\"correct\": ";
    line += res.violations.empty() ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(res.attempted);
    line += ", \"failed\": " + std::to_string(res.failed);
    line += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < res.metrics.size(); ++i) {
        const Metric &m = res.metrics[i];
        std::snprintf(buf, sizeof(buf), "%.17g", m.value);
        line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload hotspot|churn_1m|tss_accel "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n"
                 "       %s --tss-golden N\n",
                 argv0, argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, trace_out;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    long golden = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string a = argv[i], v = argv[i + 1];
        if (a == "--workload")
            workload = v;
        else if (a == "--seed")
            seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            seconds = std::strtod(v.c_str(), nullptr);
        else if (a == "--trace")
            trace = v == "1" ? 1 : v == "0" ? 0 : -1;
        else if (a == "--trace-out")
            trace_out = v;
        else if (a == "--tss-golden")
            golden = std::strtol(v.c_str(), nullptr, 10);
        else
            return usage(argv[0]);
    }
    if (argc % 2 == 0)
        return usage(argv[0]);

    if (golden > 0) {
        for (long s = 0; s < golden; ++s) {
            const TssGolden g = tssCheck(static_cast<std::uint64_t>(s));
            std::printf("{%llu, %llu, %llu},\n",
                        static_cast<unsigned long long>(g.seed),
                        static_cast<unsigned long long>(g.cycles),
                        static_cast<unsigned long long>(g.matches));
            std::fflush(stdout);
        }
        return 0;
    }
    if (trace < 0 || seconds <= 0.0 || workload.empty())
        return usage(argv[0]);

    SpanLog spans;
    Result res;
    if (workload == "hotspot") {
        RuntimeSpec spec = hotspotSpec(seed);
        res = runRuntime(spec, seed, seconds, trace == 1, spans);
    } else if (workload == "churn_1m") {
        RuntimeSpec spec = churnSpec(seed);
        res = runRuntime(spec, seed, seconds, trace == 1, spans);
    } else if (workload == "tss_accel") {
        res = runTss(seed, seconds, trace == 1, spans);
    } else {
        return usage(argv[0]);
    }

    if (trace == 1 && !trace_out.empty()) {
        std::ofstream out(trace_out);
        spans.write(out, workload);
        std::printf("spans written to %s\n", trace_out.c_str());
    }
    printResult(res);
    return res.violations.empty() ? 0 : 1;
}
