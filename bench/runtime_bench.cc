/**
 * @file
 * Host-runtime benchmarks: one driver, four presets.
 *
 * Every preset pushes packets through the multi-worker runtime (RSS
 * producer, SPSC rings, N shared-nothing VirtualSwitch shards). The
 * flag table, the run wrapper (sampler, live Prometheus exporter,
 * Chrome trace, --prom dump, report reduction), the JSON header and
 * the shared gates are written once; each preset keeps its traffic
 * loop, sweep, headline math and gates as plain code:
 *
 *   multiworker  ManyFlows over 1/2/4/8 workers; smoke runs 2 workers
 *                scalar then burst (DESIGN.md §9-§10)
 *   churn        Zipf(0.9) over rotating flow slots, inline vs
 *                decoupled slow path per churn level (§12)
 *   flowscale    pre-installed flow populations, EMC policy
 *                off/fixed/adaptive as alternating pairs (§16)
 *   elastic      hottest flows colocated in RSS bucket 0, static RSS
 *                vs the elastic controller, order-checked (§17)
 *
 * aggregate_cpu_pps sums per-worker packet rates over
 * CLOCK_THREAD_CPUTIME_ID nanoseconds spent inside batches, so it is
 * immune to preemption on CPU-constrained hosts; wall_pps is processed
 * / wall seconds on this host, for reference.
 *
 * Usage: runtime_bench --preset NAME [flags]; the usage line lists the
 * flags, and a flag a preset does not take is an error. Counts are
 * plain decimals; a malformed, zero or out-of-range count (--workers
 * takes 1-64) exits 2 with the usage line before any thread starts.
 * --sample-us 0 turns the sampler off, --prom-port 0 picks an
 * ephemeral port. --trace, --prom and --prom-port apply to the export
 * run: the sweep's last run (flowscale: the last cell's first adaptive
 * run; elastic: the elastic run when both modes run).
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "flow/flow_estimator.hh"
#include "flow/ruleset.hh"
#include "hash/table_layout.hh"
#include "obs/json.hh"
#include "obs/meta.hh"
#include "obs/metrics.hh"
#include "obs/prom_http.hh"
#include "runtime/order_validator.hh"
#include "runtime/runtime.hh"

using namespace halo;
using namespace halo::bench;

namespace {

/** @name Options */
/**@{*/

enum Preset : unsigned
{
    Multiworker,
    Churn,
    Flowscale,
    Elastic,
    NoPreset,
};
const char *const presetNames[] = {"multiworker", "churn", "flowscale",
                                   "elastic"};

struct Options
{
    Preset preset = NoPreset;
    std::string outPath;
    std::string tracePath;
    std::string promPath;
    std::uint64_t packets = 0;
    std::uint64_t flows = 0;
    std::uint64_t sampleMicros = 0;
    std::uint64_t emcEntries = 0;
    std::uint64_t workers = 0;
    std::uint64_t burst = 16;
    std::uint64_t hotKeys = 0;
    std::uint64_t promPort = 0;
    double skew = 0.0;
    bool smoke = false;
    bool perf = false;
    bool onlyElastic = false;
    bool onlyStatic = false;
    CuckooFilter filter = CuckooFilter::None;
    /// Flags named on the command line; the rest take preset defaults.
    std::set<std::string> given;

    bool has(const std::string &flag) const { return given.count(flag); }
    /// The preset takes --perf, --trace and --prom-port.
    bool perfPreset() const { return preset != Elastic; }
};

/** One command-line flag; counts must lie in [lo, hi]. */
struct Flag
{
    const char *name;
    const char *metavar; ///< "N" for counts; null for switches
    unsigned presets;    ///< bit (1 << Preset) per preset taking it
    std::uint64_t lo = 0;
    std::uint64_t hi = UINT64_MAX;
};

constexpr unsigned anyPreset = 0xf, notElastic = 0x7, notMultiworker = 0xe;

const Flag flags[] = {
    {"--out", "FILE", anyPreset},
    {"--packets", "N", anyPreset, 1},
    {"--smoke", nullptr, anyPreset},
    {"--prom", "FILE", anyPreset},
    {"--sample-us", "N", anyPreset},
    {"--trace", "FILE", notElastic},
    {"--prom-port", "N", notElastic, 0, 65535},
    {"--perf", nullptr, notElastic},
    {"--burst", "N", 1u << Multiworker, 1},
    {"--flows", "N", notMultiworker, 1},
    {"--workers", "N", notMultiworker, 1, 64},
    {"--cuckoo-filter", "none|cuckoopp", 1u << Churn},
    {"--emc-entries", "N", 1u << Flowscale, 1},
    {"--skew", "S", 1u << Elastic},
    {"--hot-keys", "N", 1u << Elastic, 0, 65536},
    {"--elastic", nullptr, 1u << Elastic},
    {"--static", nullptr, 1u << Elastic},
};

/** Decimal in [lo, hi], digits only: no sign, no trailing text. */
bool
parseCount(const char *s, std::uint64_t lo, std::uint64_t hi,
           std::uint64_t &out)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (*s < '0' || *s > '9' || *end || errno == ERANGE || v < lo ||
        v > hi)
        return false;
    out = v;
    return true;
}

/** Stores flag @p f's value @p v; false when the value is bad. */
bool
setFlag(Options &o, const Flag &f, const char *v)
{
    const std::string name = f.name;
    std::uint64_t n = 0;
    if (f.metavar && f.metavar == std::string("N") &&
        !parseCount(v, f.lo, f.hi, n))
        return false;
    if (name == "--out") o.outPath = v;
    else if (name == "--trace") o.tracePath = v;
    else if (name == "--prom") o.promPath = v;
    else if (name == "--packets") o.packets = n;
    else if (name == "--flows") o.flows = n;
    else if (name == "--workers") o.workers = n;
    else if (name == "--sample-us") o.sampleMicros = n;
    else if (name == "--emc-entries") o.emcEntries = n;
    else if (name == "--hot-keys") o.hotKeys = n;
    else if (name == "--prom-port") o.promPort = n;
    else if (name == "--burst")
        o.burst = std::min<std::uint64_t>(n, maxBulkLanes);
    else if (name == "--smoke") o.smoke = true;
    else if (name == "--perf") o.perf = true;
    else if (name == "--elastic") o.onlyElastic = true;
    else if (name == "--static") o.onlyStatic = true;
    else if (name == "--cuckoo-filter") {
        const auto mode = parseCuckooFilter(v);
        o.filter = mode.value_or(CuckooFilter::None);
        return mode.has_value();
    } else if (name == "--skew") {
        char *end = nullptr;
        o.skew = std::strtod(v, &end);
        return end != v && !*end && o.skew >= 0.0 && std::isfinite(o.skew);
    }
    return true;
}

[[noreturn]] void
usage(const char *argv0, const std::string &error = {})
{
    if (!error.empty())
        std::fprintf(stderr, "error: %s\n", error.c_str());
    std::string line = std::string("usage: ") + argv0 +
                       " --preset multiworker|churn|flowscale|elastic";
    for (const Flag &f : flags)
        line += std::string(" [") + f.name +
                (f.metavar ? std::string(" ") + f.metavar : "") + "]";
    std::fprintf(stderr, "%s\n", line.c_str());
    std::exit(2);
}

/** Parses argv and fills in preset defaults; exits 2 on a bad flag. */
Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--preset" && i + 1 < argc) {
            const char *const *p = std::find(
                std::begin(presetNames), std::end(presetNames),
                std::string(argv[++i]));
            o.preset = static_cast<Preset>(p - std::begin(presetNames));
            if (o.preset == NoPreset)
                usage(argv[0], "unknown preset " + std::string(argv[i]));
            continue;
        }
        const Flag *f = std::find_if(
            std::begin(flags), std::end(flags),
            [&](const Flag &flag) { return arg == flag.name; });
        if (f == std::end(flags) || (f->metavar && i + 1 >= argc))
            usage(argv[0], "unknown flag or missing value: " + arg);
        const char *value = f->metavar ? argv[++i] : "";
        if (!setFlag(o, *f, value))
            usage(argv[0], "bad value '" + std::string(value) + "' for " +
                               arg);
        o.given.insert(arg);
    }
    if (o.preset == NoPreset)
        usage(argv[0], "--preset is required");
    for (const Flag &f : flags)
        if (o.has(f.name) && !(f.presets >> o.preset & 1))
            usage(argv[0], std::string(f.name) + " does not apply to " +
                               presetNames[o.preset]);
    if (o.onlyElastic && o.onlyStatic)
        usage(argv[0], "--elastic and --static are exclusive");

    // Defaults of every flag not given, as (smoke, full) values.
    const auto dflt = [&o](std::uint64_t &field, const char *flag,
                           std::uint64_t smoke, std::uint64_t full) {
        if (!o.has(flag))
            field = o.smoke ? smoke : full;
    };
    if (!o.has("--out"))
        o.outPath = std::string("BENCH_") + presetNames[o.preset] + ".json";
    const std::uint64_t sampleMicros = o.preset == Elastic ? 0 : 2000;
    dflt(o.sampleMicros, "--sample-us", sampleMicros, sampleMicros);
    switch (o.preset) {
    case Multiworker:
        dflt(o.packets, "--packets", 20000, 200000);
        dflt(o.flows, "--flows", 10000, 100000);
        break;
    case Churn:
        dflt(o.packets, "--packets", 40000, 200000);
        dflt(o.flows, "--flows", 5000, 20000);
        dflt(o.workers, "--workers", 2, 4);
        break;
    case Flowscale:
        dflt(o.packets, "--packets", 80000, 500000);
        dflt(o.workers, "--workers", 2, 2);
        dflt(o.emcEntries, "--emc-entries", 4096, 65536);
        break;
    default:
        dflt(o.packets, "--packets", 30000, 200000);
        dflt(o.flows, "--flows", 512, 4096);
        dflt(o.hotKeys, "--hot-keys", 8, 16);
        break;
    }
    return o;
}

/**@}*/

/** @name Flow population */
/**@{*/

/** Deterministic, never-repeating five-tuple for flow @p id. */
FiveTuple
tupleForId(std::uint64_t id)
{
    const std::uint64_t m = id * 0x9e3779b97f4a7c15ull;
    FiveTuple t;
    // Low 24 id bits in srcIp keep tuples unique for any id < 2^24.
    t.srcIp = 0x0a000000u | static_cast<std::uint32_t>(id & 0xffffff);
    t.dstIp = 0xac100000u |
              static_cast<std::uint32_t>((m >> 24) & 0xfffff);
    t.srcPort = static_cast<std::uint16_t>(1024 + (m & 0xffff) % 60000);
    t.dstPort = (m >> 40) & 1 ? 443 : 80;
    t.proto = static_cast<std::uint8_t>(IpProto::Udp);
    return t;
}

/** All-wildcard slow-path rule: every flow resolves through it. */
FlowRule
matchAllRule()
{
    FlowRule fallback;
    fallback.mask = FlowMask{};
    fallback.priority = 1;
    fallback.action = Action{ActionKind::Forward, 1};
    return fallback;
}

/**
 * Installs flows 0..@p n-1 as exact-match megaflow entries resolving
 * to @p rule in their owning shards: the entries the revalidator would
 * install one upcall at a time. Runs before start(), so plain inserts
 * are safe; @p noteFlows also charges the dispatcher for each flow.
 */
void
preinstall(Runtime &rt, const FlowRule &rule, std::uint64_t n,
           const std::function<FiveTuple(std::uint64_t)> &tupleAt,
           bool noteFlows)
{
    const std::uint64_t value = encodeRuleValue(rule.action, rule.priority);
    std::vector<unsigned> exact(rt.numWorkers());
    for (unsigned w = 0; w < rt.numWorkers(); ++w)
        exact[w] = rt.worker(w).vswitch().tupleSpace().ensureTuple(
            FlowMask::exact());
    for (std::uint64_t id = 0; id < n; ++id) {
        const FiveTuple t = tupleAt(id);
        const unsigned shard = rt.dispatcher().shardFor(t);
        const auto key = t.toKey();
        if (!rt.worker(shard).vswitch().tupleSpace().table(exact[shard])
                 .insert(KeyView(key.data(), key.size()), value)) {
            std::fprintf(stderr,
                         "error: pre-install failed at flow %llu of %llu "
                         "(shard %u)\n",
                         static_cast<unsigned long long>(id),
                         static_cast<unsigned long long>(n), shard);
            std::exit(1);
        }
        if (noteFlows)
            rt.dispatcher().noteNewFlow(t);
    }
}

/**@}*/

/** @name Run wrapper and shared gates */
/**@{*/

bool gateFailed = false;

/** Records a failed gate with a printf-style reason. */
[[gnu::format(printf, 2, 3)]] void
gate(bool ok, const char *fmt, ...)
{
    if (ok)
        return;
    gateFailed = true;
    std::fputs("GATE FAILED: ", stderr);
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fputc('\n', stderr);
}

/** What every preset reads off one runtime run. */
struct RunResult
{
    std::string label; ///< names the run on the console and in gates
    RuntimeReport rep;
    double aggregateCpuPps = 0.0; ///< sum of the workers' cpuPps()
    double wallPps = 0.0;
    std::uint64_t traceEvents = 0;

    const RuntimeSnapshot &agg() const { return rep.aggregate; }
};

/** Packets per CPU-second spent inside batches. */
double
cpuPps(const WorkerCounters &c)
{
    return c.busyNanos > 0 ? double(c.packets) * 1e9 / double(c.busyNanos)
                           : 0.0;
}

/** Batch latency percentile @p i (p50, p90, p99, p99.9) of a
 *  RuntimeReport or WorkerReport, in microseconds. */
template <class Report>
double
batchUs(const Report &r, unsigned i)
{
    const double nanos[4] = {r.batchP50Nanos, r.batchP90Nanos,
                             r.batchP99Nanos, r.batchP999Nanos};
    return nanos[i] / 1e3;
}

/** The RuntimeConfig fields every preset shares. */
RuntimeConfig
baseConfig(const Options &opt, unsigned workers)
{
    RuntimeConfig cfg;
    cfg.numWorkers = workers;
    cfg.ringCapacity = 1024;
    cfg.batchSize = 32;
    cfg.shardMemBytes = 2ull << 30; // lazily paged; bound, not footprint
    cfg.shard.vswitch.tupleConfig.filter = opt.filter;
    cfg.rss.symmetric = true;
    // Single-CPU hosts: bounded yields hand the core to starved workers
    // instead of spinning the producer; overflow still drops, counted.
    cfg.enqueueRetries = 65536;
    cfg.samplerIntervalMicros = opt.sampleMicros;
    cfg.perfEnabled = opt.perf;
    return cfg;
}

/**
 * Megaflow misses resolve through @p ofRules: on the worker, or with
 * @p decoupled on the revalidator thread over the upcall ring. The
 * megaflow layer starts empty or pre-installed, never warmed.
 */
void
slowPath(RuntimeConfig &cfg, const Options &opt, const RuleSet &ofRules,
         bool decoupled)
{
    cfg.shard.vswitch.useOpenflowLayer = true;
    cfg.warmTables = false;
    cfg.openflowRules = &ofRules;
    cfg.decoupled = decoupled;
    cfg.revalidator.ringCapacity = 8192;
    // Short smoke runs still have to observe aging: sweep faster.
    if (opt.smoke)
        cfg.revalidator.sweepIntervalMicros = 200;
}

struct Hooks
{
    /// Fills tables before the workers start.
    std::function<void(Runtime &)> prepare = nullptr;
    /// Offers the traffic; timed together with the drain.
    std::function<void(Runtime &)> produce = nullptr;
    /// Reads preset state off the stopped runtime.
    std::function<void(Runtime &)> inspect = nullptr;
};

void
writeFile(const std::string &path,
          const std::function<void(std::ostream &)> &emit)
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
        std::exit(1);
    }
    emit(os);
    std::printf("wrote %s\n", path.c_str());
}

/**
 * One measured run into @p res. The export run also serves
 * --prom-port and writes --trace and --prom. The shared gates hold on
 * every run: every offered packet is processed or a counted ring-full
 * drop, and --perf attributes cycles to worker/batch.
 */
void
measure(RunResult &res, RuntimeConfig cfg, const RuleSet &rules,
        const Options &opt, bool exportRun, const Hooks &hooks)
{
    using SteadyClock = std::chrono::steady_clock;

    if (exportRun && !opt.tracePath.empty()) {
        cfg.traceCapacity = 1 << 15; // 512 KiB per worker
        cfg.revalidator.traceCapacity = 1 << 14;
    }
    Runtime rt(cfg, rules);
    if (hooks.prepare)
        hooks.prepare(rt);

    // Live telemetry: the registry's sources are relaxed atomics inside
    // the runtime, so the exporter may render it while workers run. The
    // same registry backs the --prom file afterwards.
    obs::MetricsRegistry reg;
    std::unique_ptr<obs::PromHttpExporter> exporter;
    if (exportRun && (!opt.promPath.empty() || opt.has("--prom-port")))
        rt.registerMetrics(reg);
    if (exportRun && opt.has("--prom-port")) {
        obs::PromHttpExporter::Options eo;
        eo.port = static_cast<std::uint16_t>(opt.promPort);
        exporter = std::make_unique<obs::PromHttpExporter>(
            eo, [&reg] { return reg.renderPrometheus(); });
        if (exporter->start())
            std::printf("serving GET http://127.0.0.1:%u/metrics\n",
                        exporter->port());
        else
            std::fprintf(stderr, "warning: prom exporter: %s\n",
                         exporter->lastError().c_str());
    }

    rt.start();
    rt.startSampler();
    const auto t0 = SteadyClock::now();
    hooks.produce(rt);
    rt.drain();
    const auto t1 = SteadyClock::now();
    rt.stopSampler();
    rt.stop();
    if (exporter) {
        exporter->stop();
        std::printf("prom exporter served %llu scrape(s)\n",
                    static_cast<unsigned long long>(
                        exporter->scrapesServed()));
    }
    if (cfg.traceCapacity)
        writeFile(opt.tracePath,
                  [&](std::ostream &os) { rt.writeChromeTrace(os); });

    res.rep = rt.report();
    const double wallSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    res.wallPps =
        wallSeconds > 0.0 ? double(res.agg().processed) / wallSeconds : 0.0;
    for (const WorkerReport &w : res.rep.workers)
        res.aggregateCpuPps += cpuPps(w.counters);
    for (unsigned w = 0; w < rt.numWorkers(); ++w)
        if (const obs::TraceRecorder *rec = rt.worker(w).traceRecorder())
            res.traceEvents += rec->recorded();
    if (hooks.inspect)
        hooks.inspect(rt);

    if (exportRun && !opt.promPath.empty()) {
        // The live registry, final now the workers are joined, plus the
        // bench-derived rates and each shard's hierarchy StatGroups.
        reg.gauge("halo_rt_aggregate_cpu_pps", {}, res.aggregateCpuPps);
        for (unsigned w = 0; w < rt.numWorkers(); ++w) {
            const std::string id = std::to_string(w);
            reg.gauge("halo_worker_cpu_pps", {{"worker", id}},
                      cpuPps(res.rep.workers[w].counters));
            reg.gauge("halo_worker_batch_p99_us", {{"worker", id}},
                      batchUs(res.rep.workers[w], 2));
            reg.addStatGroup(rt.worker(w).shard().hierarchy().stats(),
                             {{"worker", id}});
        }
        writeFile(opt.promPath,
                  [&](std::ostream &os) { reg.writePrometheus(os); });
    }

    const RuntimeSnapshot &a = res.agg();
    std::printf("%-28s %10.0f pkt/s cpu %9.0f wall | offered %llu "
                "matched %llu drops %llu\n",
                res.label.c_str(), res.aggregateCpuPps, res.wallPps,
                static_cast<unsigned long long>(a.offered),
                static_cast<unsigned long long>(a.matched),
                static_cast<unsigned long long>(a.ringFullDrops));
    gate(res.aggregateCpuPps > 0.0 && a.processed > 0 &&
             a.processed == a.enqueued &&
             a.enqueued + a.ringFullDrops == a.offered,
         "%s: packet accounting (pps %.1f offered %llu enqueued %llu "
         "processed %llu ring-full drops %llu)",
         res.label.c_str(), res.aggregateCpuPps,
         static_cast<unsigned long long>(a.offered),
         static_cast<unsigned long long>(a.enqueued),
         static_cast<unsigned long long>(a.processed),
         static_cast<unsigned long long>(a.ringFullDrops));
    // Degraded runs (perf_event_open refused) still keep rdtsc cycles.
    if (opt.perf && obs::perfCompiledIn())
        gate(std::any_of(res.rep.perfStages.begin(),
                         res.rep.perfStages.end(),
                         [](const obs::PerfStageTotals &s) {
                             return s.stage == "worker/batch" &&
                                    s.entries > 0 && s.tscCycles > 0;
                         }),
             "%s: --perf recorded no worker/batch stage cycles "
             "(degraded=%d)",
             res.label.c_str(), int(res.rep.perfDegraded));
}

/**@}*/

/** @name JSON */
/**@{*/

/**
 * Writes --out: the common header, then @p body's preset fields. The
 * "benchmark" value names the preset's original harness, so
 * tools/bench_diff.py and committed baselines keep matching.
 */
void
writeJson(const Options &opt, bool perfDegraded, const char *methodology,
          const std::function<void(obs::JsonWriter &)> &body)
{
    writeFile(opt.outPath, [&](std::ostream &os) {
        obs::JsonWriter j(os);
        j.beginObject();
        j.kv("benchmark",
             std::string(presetNames[opt.preset]) + "_throughput");
        obs::writeMetaBlock(j);
        j.kv("packets_per_run", opt.packets);
        j.kv("smoke", opt.smoke);
        j.kv("host_cpus", std::thread::hardware_concurrency());
        if (opt.perfPreset()) {
            j.kv("perf_compiled_in", obs::perfCompiledIn());
            j.kv("perf_enabled", opt.perf && obs::perfCompiledIn());
            j.kv("perf_degraded", perfDegraded);
        }
        j.kv("methodology", methodology);
        body(j);
        j.endObject();
    });
}

const char *const batchKeys[4] = {"batch_p50_us", "batch_p90_us",
                                  "batch_p99_us", "batch_p999_us"};

/** The fields every runs[] entry carries, the batch percentiles
 *  picked by @p batchMask (bit i = batchKeys[i]), the sampler series
 *  and the perf block. */
void
writeRunCommon(obs::JsonWriter &j, const RunResult &r, unsigned batchMask)
{
    j.kv("aggregate_cpu_pps", r.aggregateCpuPps, 1);
    j.kv("wall_pps", r.wallPps, 1);
    j.kv("offered", r.agg().offered);
    j.kv("processed", r.agg().processed);
    j.kv("ring_full_drops", r.agg().ringFullDrops);
    for (unsigned i = 0; i < 4; ++i)
        if (batchMask >> i & 1)
            j.kv(batchKeys[i], batchUs(r.rep, i), 1);
    if (!r.rep.samples.columns.empty()) {
        j.key("samples");
        writeSampleSeries(j, r.rep.samples);
    }
    if (r.rep.perfEnabled) {
        j.key("perf");
        writePerfBlock(j, true, r.rep.perfDegraded, r.rep.perfStages);
    }
}

/**@}*/

/** @name multiworker: shared-nothing scaling over ManyFlows */
/**@{*/

struct MultiworkerRun : RunResult
{
    unsigned workers = 0;
    unsigned burst = 1;
};

void
runMultiworker(const Options &opt)
{
    banner("Multi-worker host throughput",
           "shared-nothing runtime scaling over ManyFlows");
    // Each pass is (workers, classify burst). Smoke runs one 2-worker
    // config scalar then burst, so the gate below compares the two
    // paths on identical load.
    std::vector<std::pair<unsigned, unsigned>> passes;
    if (opt.smoke) {
        passes.emplace_back(2u, 1u);
        if (opt.burst > 1)
            passes.emplace_back(2u, opt.burst);
    } else {
        for (unsigned w : {1u, 2u, 4u, 8u})
            passes.emplace_back(w, opt.burst);
    }
    const TrafficConfig traffic = TrafficGenerator::scenarioConfig(
        TrafficScenario::ManyFlows, opt.flows);
    const RuleSet rules = scenarioRules(
        TrafficScenario::ManyFlows, TrafficGenerator(traffic).flows(),
        0x303);

    std::vector<MultiworkerRun> runs(passes.size());
    for (std::size_t i = 0; i < passes.size(); ++i) {
        MultiworkerRun &r = runs[i];
        r.workers = passes[i].first;
        r.burst = passes[i].second;
        r.label = std::to_string(r.workers) + " workers burst " +
                  std::to_string(r.burst);
        RuntimeConfig cfg = baseConfig(opt, r.workers);
        cfg.shard.vswitch.tupleConfig.tupleCapacity =
            nextPowerOfTwo(maxRulesPerMask(rules) + 64);
        cfg.classifyBurst = r.burst;
        measure(r, cfg, rules, opt, i + 1 == passes.size(),
                {.produce = [&](Runtime &rt) {
                    rt.startProducer(traffic, opt.packets);
                    rt.joinProducer();
                }});
    }

    const double base =
        runs[0].workers == 1 ? runs[0].aggregateCpuPps : 0.0;
    writeJson(
        opt, runs.back().rep.perfDegraded,
        "aggregate_cpu_pps sums per-worker CLOCK_THREAD_CPUTIME_ID "
        "packet rates: the shared-nothing throughput when each worker "
        "owns a core. batch_p* come from merged per-worker "
        "HdrHistograms; samples is the background sampler series.",
        [&](obs::JsonWriter &j) {
            j.kv("scenario", "ManyFlows");
            j.kv("flows", opt.flows);
            j.kv("sampler_interval_us", opt.sampleMicros);
            j.kv("tracing_compiled_in", obs::traceCompiledIn());
            j.key("runs").beginArray();
            for (const MultiworkerRun &r : runs) {
                j.beginObject();
                j.kv("workers", r.workers);
                j.kv("classify_burst", r.burst);
                j.kv("speedup_vs_1worker",
                     base > 0.0 ? r.aggregateCpuPps / base : 0.0, 2);
                writeRunCommon(j, r, 0xf);
                if (r.traceEvents)
                    j.kv("trace_events", r.traceEvents);
                j.key("per_worker").beginArray();
                for (const WorkerReport &w : r.rep.workers) {
                    j.beginObject();
                    j.kv("packets", w.counters.packets);
                    j.kv("busy_nanos", w.counters.busyNanos);
                    j.kv("cpu_pps", cpuPps(w.counters), 1);
                    for (unsigned i = 0; i < 4; ++i)
                        j.kv(batchKeys[i], batchUs(w, i), 1);
                    j.endObject();
                }
                j.endArray();
                j.endObject();
            }
            j.endArray();
        });

    if (!opt.smoke)
        return;
    for (const MultiworkerRun &r : runs) {
        gate(opt.sampleMicros == 0 || r.rep.samples.samples() > 0,
             "%s: the sampler recorded no samples", r.label.c_str());
        // Only the last pass writes the Chrome trace.
        gate(&r != &runs.back() || opt.tracePath.empty() ||
                 !obs::traceCompiledIn() || r.traceEvents > 0,
             "%s: the trace recorded no events", r.label.c_str());
    }
    // Burst must not regress below the scalar path. Per-packet cost is
    // dominated by NF work, so parity with 10% headroom for noise is
    // the bar, not a speedup.
    gate(runs.size() != 2 ||
             runs[1].aggregateCpuPps >= 0.9 * runs[0].aggregateCpuPps,
         "burst %u aggregate %.1f pps < 90%% of scalar %.1f pps",
         runs.back().burst, runs.back().aggregateCpuPps,
         runs[0].aggregateCpuPps);
}

/**@}*/

/** @name churn: inline vs decoupled slow path under flow churn
 *
 * Flow slots hold live five-tuples; packets draw a slot from a
 * Zipf(0.9) popularity distribution. With churn probability c, each
 * packet first rotates one uniformly chosen slot to a new tuple: the
 * old flow dies (the revalidator ages it out), the new one faults in
 * through the slow path. Both modes install the same exact-match
 * megaflow entries. A decoupled miss gets no verdict (matched counts
 * verdicts), so the decoupled/inline ratio counts packets, not
 * verdicts; perfbench's classified_ratio measures the difference. */
/**@{*/

struct ChurnRun : RunResult
{
    bool decoupled = false;
    double churn = 0.0;
    std::uint64_t newFlows = 0;
    double upcallRingDepthMax = 0.0;
};

/**
 * Slow-path OpenFlow rules: a spread of wildcard masks seeded from the
 * initial flow population (each mask is one tuple table the upcall
 * search must probe — the cost inline mode pays on the worker), capped
 * by the match-all rule so every churned-in flow resolves.
 */
RuleSet
openflowRules(const std::vector<FiveTuple> &slots, unsigned masks)
{
    RuleSet rules;
    const std::vector<FlowMask> lib = canonicalMasks(masks);
    for (unsigned i = 0; i < masks && i < slots.size(); ++i) {
        FlowRule r;
        r.mask = lib[i];
        r.maskedKey = r.mask.apply(slots[i].toKey());
        r.priority = static_cast<std::uint16_t>(10 + i);
        r.action = Action{ActionKind::Forward,
                          static_cast<std::uint16_t>(2 + i)};
        rules.push_back(r);
    }
    rules.push_back(matchAllRule());
    return rules;
}

ChurnRun
churnRun(bool decoupled, double churn, const Options &opt, bool exportRun)
{
    ChurnRun r;
    r.decoupled = decoupled;
    r.churn = churn;
    r.label = std::string(decoupled ? "decoupled" : "inline") +
              " churn " + std::to_string(int(churn * 100)) + "%";
    std::vector<FiveTuple> slots;
    for (std::uint64_t i = 0; i < opt.flows; ++i)
        slots.push_back(tupleForId(i));
    const RuleSet ofRules = openflowRules(slots, 16);

    RuntimeConfig cfg = baseConfig(opt, unsigned(opt.workers));
    // Upper bound on distinct flows the run can create: the inline
    // baseline never evicts, so the exact-match tuple must hold them
    // all (each shard sees only its RSS share — generous slack).
    cfg.shard.vswitch.tupleConfig.tupleCapacity = nextPowerOfTwo(
        opt.flows + std::uint64_t(churn * double(opt.packets)) + 4096);
    slowPath(cfg, opt, ofRules, decoupled);
    // Inline installs the same exact-match microflows the revalidator
    // would, from the worker thread.
    cfg.shard.vswitch.exactUpcallInstalls = !decoupled;
    if (opt.smoke)
        cfg.revalidator.idleTimeoutEpochs = 2; // age after ~0.4 ms idle

    Xoshiro256 rng(0xc402u);
    ZipfDistribution zipf(slots.size(), 0.9);
    std::uint64_t nextFlowId = opt.flows;
    measure(r, cfg, RuleSet{}, opt, exportRun,
            {.prepare =
                 [&](Runtime &rt) {
                     for (const FiveTuple &t : slots)
                         rt.dispatcher().noteNewFlow(t);
                 },
             .produce = [&](Runtime &rt) {
                 for (std::uint64_t p = 0; p < opt.packets; ++p) {
                     if (churn > 0.0 && rng.nextBool(churn)) {
                         FiveTuple &victim =
                             slots[rng.nextBounded(slots.size())];
                         rt.dispatcher().noteFlowEnd(victim);
                         victim = tupleForId(nextFlowId++);
                         rt.dispatcher().noteNewFlow(victim);
                     }
                     const FiveTuple &t =
                         slots[zipf.sample(rng) % slots.size()];
                     rt.offer(Packet::fromTuple(t), t);
                 }
             }});
    r.newFlows = nextFlowId - opt.flows;
    const auto &cols = r.rep.samples.columns;
    const auto col = std::find(cols.begin(), cols.end(),
                               "upcall_ring_depth") - cols.begin();
    for (const auto &row : r.rep.samples.rows)
        if (col < std::ptrdiff_t(row.size()))
            r.upcallRingDepthMax = std::max(r.upcallRingDepthMax, row[col]);
    return r;
}

void
runChurn(const Options &opt)
{
    banner("Flow-churn throughput",
           "inline vs decoupled slow path under Zipf churn");
    const std::vector<double> churns =
        opt.smoke ? std::vector<double>{0.0, 0.1}
                  : std::vector<double>{0.0, 0.1, 0.5};
    std::vector<ChurnRun> runs;
    for (const double churn : churns)
        for (const bool decoupled : {false, true})
            runs.push_back(churnRun(decoupled, churn, opt,
                                    churn == churns.back() && decoupled));

    double pps[2] = {}; // inline, decoupled at 10% churn
    for (const ChurnRun &r : runs)
        if (r.churn == 0.1)
            pps[r.decoupled] = r.aggregateCpuPps;
    const double speedup = pps[0] > 0.0 ? pps[1] / pps[0] : 0.0;

    writeJson(
        opt, runs.back().rep.perfDegraded,
        "Each churn level runs an identical Zipf(0.9) stream inline "
        "(the worker resolves misses) and decoupled (misses go to the "
        "revalidator over the upcall ring). aggregate_cpu_pps counts "
        "packets, not verdicts: decoupled misses get none (matched).",
        [&](obs::JsonWriter &j) {
            j.kv("flows", opt.flows);
            j.kv("workers", opt.workers);
            j.kv("cuckoo_filter", cuckooFilterName(opt.filter));
            j.kv("zipf_skew", 0.9, 2);
            j.kv("headline_speedup_10pct_churn", speedup, 2);
            j.key("runs").beginArray();
            for (const ChurnRun &r : runs) {
                j.beginObject();
                j.kv("mode", r.decoupled ? "decoupled" : "inline");
                j.kv("churn", r.churn, 2);
                j.kv("matched", r.agg().matched);
                j.kv("new_flows", r.newFlows);
                writeRunCommon(j, r, 0xd);
                if (r.decoupled) {
                    const RevalidatorCounters &rv = r.agg().revalidator;
                    j.kv("upcalls_enqueued", r.agg().upcallsEnqueued);
                    j.kv("promotes_enqueued", r.agg().promotesEnqueued);
                    j.kv("upcall_drops", r.agg().upcallDrops);
                    j.kv("upcall_ring_depth_max", r.upcallRingDepthMax, 0);
                    j.kv("upcalls_processed", rv.upcallsProcessed);
                    j.kv("dedup_hits", rv.dedupHits);
                    j.kv("installs", rv.installs);
                    j.kv("install_failures", rv.installFailures);
                    j.kv("unresolved", rv.unresolved);
                    j.kv("promotes", rv.promotes);
                    j.kv("sweeps", rv.sweeps);
                    j.kv("aged_flows", rv.agedFlows);
                    j.kv("aged_emc", rv.agedEmc);
                }
                j.endObject();
            }
            j.endArray();
        });
    std::printf("decoupled/inline @ 10%% churn: %.2fx (packets, not "
                "verdicts: compare each run's matched)\n",
                speedup);

    if (!opt.smoke)
        return;
    // Offload must happen, the revalidator must install, and
    // background aging must reclaim idle flows.
    for (const ChurnRun &r : runs) {
        if (!r.decoupled)
            continue;
        const char *l = r.label.c_str();
        gate(r.agg().upcallsEnqueued > 0, "%s: no upcalls enqueued", l);
        gate(r.agg().revalidator.installs > 0, "%s: nothing installed", l);
        gate(r.agg().revalidator.agedFlows > 0, "%s: no flows aged", l);
    }
    gate(speedup >= 1.0, "decoupled %.2fx inline at 10%% churn (< 1.0x)",
         speedup);
}

/**@}*/

/** @name flowscale: EMC policy vs concurrent-flow scale
 *
 * The paper's §3.5 point: at high flow counts the EMC probe mostly
 * misses and its promotions compete with real work, hence the hybrid
 * mode that turns it off. Each (flows, skew) cell pre-installs every
 * flow as an exact-match megaflow entry, then pushes the same Zipf
 * stream through the decoupled runtime once per EMC policy: off,
 * fixed (always on) and adaptive (the DESIGN.md §16 controller). A
 * host-side replay of the stream through a linear-counting estimator
 * gives deterministic accuracy fields that baselines gate. */
/**@{*/

enum class EmcPolicy
{
    Off,
    Fixed,
    Adaptive,
};
const char *const policyNames[] = {"off", "fixed", "adaptive"};

/** One (flows, skew) workload cell. */
struct Cell
{
    std::uint64_t flows = 0;
    double skew = 0.0;
    bool smallCase = false; ///< EMC-friendly reference cell
    /// adaptive/fixed aggregate cpu-pps of each fixed/adaptive pair.
    std::vector<double> pairRatios;

    double medianRatio() const
    {
        std::vector<double> r = pairRatios;
        std::sort(r.begin(), r.end());
        const std::size_t mid = r.size() / 2;
        return r.empty()       ? 0.0
               : r.size() % 2 ? r[mid]
                               : (r[mid - 1] + r[mid]) / 2.0;
    }
};

struct FlowscaleRun : RunResult
{
    EmcPolicy policy = EmcPolicy::Fixed;
    const Cell *cell = nullptr;
    /// End-of-run EMC state summed over shards.
    std::uint64_t emcLookupHits = 0;
    std::uint64_t emcLookupMisses = 0;
    std::uint64_t emcEvictOverwrites = 0;
    std::uint64_t emcActiveEntries = 0;
    unsigned emcEnabledShards = 0;
    double estimatedFlows = 0.0; ///< adaptive only: sum of lastEstimate
    /// Deterministic reference replay of the identical packet stream.
    std::uint64_t streamDistinctFlows = 0;
    double refEstimate = 0.0;
    double refRelError = 0.0;
    bool refSaturated = false;
};

FlowscaleRun
flowscaleRun(const Cell &cell, EmcPolicy policy, const Options &opt,
             bool exportRun)
{
    FlowscaleRun r;
    r.policy = policy;
    r.cell = &cell;
    r.label = std::string(policyNames[int(policy)]) + " " +
              std::to_string(cell.flows) + " flows";
    const RuleSet ofRules{matchAllRule()};
    // Every shard holds only its RSS share of the population; x2 slack
    // keeps the cuckoo tables comfortably below their max load factor.
    const std::uint64_t perShardCap = nextPowerOfTwo(
        std::max<std::uint64_t>(cell.flows / opt.workers, 1024) * 2);

    RuntimeConfig cfg = baseConfig(opt, unsigned(opt.workers));
    // Sized so a 10M-flow shard's tuple tables + EMC never hit the
    // SimMemory exhaustion fatal.
    cfg.shardMemBytes =
        std::max<std::uint64_t>(cfg.shardMemBytes, perShardCap * 512);
    cfg.shard.vswitch.tupleConfig.tupleCapacity = perShardCap;
    cfg.shard.vswitch.emcEntries = opt.emcEntries;
    cfg.shard.vswitch.useEmc = policy != EmcPolicy::Off;
    slowPath(cfg, opt, ofRules, true);
    cfg.revalidator.idleTimeoutEpochs = 4;
    if (policy == EmcPolicy::Adaptive) {
        cfg.emcPolicy.adaptive = true;
        // A short window's repeat fraction underestimates the long-run
        // EMC hit rate, so the stock 0.25/0.40 band flaps on
        // EMC-friendly cells whose windowed repeat hovers near 0.3.
        // Hostile cells still measure near-zero repeat and disable.
        cfg.emcPolicy.disableRepeatFraction = 0.15;
        cfg.emcPolicy.enableRepeatFraction = 0.30;
        if (opt.smoke) {
            // Short runs, perhaps under TSan: small estimator windows
            // still give the controller enough qualified windows.
            cfg.emcPolicy.minWindowSamples = 32;
            cfg.emcPolicy.estimatorSampleShift = 0;
        } else {
            // 16-sweep control epochs (~8 ms) collect enough samples
            // per window even on oversubscribed single-core hosts.
            cfg.emcPolicy.controlIntervalSweeps = 16;
            cfg.emcPolicy.minWindowSamples = 64;
        }
    }

    // One stream per cell: the seed depends only on (flows, skew), so
    // every policy classifies the identical packet sequence and the
    // replay (an exact distinct count plus an unsampled
    // linear-counting estimator) is policy-invariant.
    Xoshiro256 rng(0xf10a5ca1eull);
    ZipfDistribution zipf(cell.flows, cell.skew);
    std::vector<bool> seen(cell.flows);
    ShardFlowEstimator refEst(1ull << 20, 0);
    measure(
        r, cfg, RuleSet{}, opt, exportRun,
        {.prepare =
             [&](Runtime &rt) {
                 preinstall(rt, ofRules.front(), cell.flows, tupleForId,
                            false);
             },
         .produce =
             [&](Runtime &rt) {
                 for (std::uint64_t p = 0; p < opt.packets; ++p) {
                     const std::uint64_t id = zipf.sample(rng);
                     r.streamDistinctFlows += !seen[id];
                     seen[id] = true;
                     refEst.observe(
                         SplitMix64(id ^ 0x5ca1ab1e5eedull).next());
                     const FiveTuple t = tupleForId(id);
                     rt.offer(Packet::fromTuple(t), t);
                 }
             },
         .inspect = [&](Runtime &rt) {
             for (unsigned w = 0; w < rt.numWorkers(); ++w) {
                 ExactMatchCache &emc = rt.worker(w).vswitch().emc();
                 r.emcLookupHits += emc.lookupHits();
                 r.emcLookupMisses += emc.lookupMisses();
                 r.emcEvictOverwrites += emc.evictOverwrites();
                 r.emcActiveEntries += emc.activeEntries();
                 r.emcEnabledShards +=
                     policy != EmcPolicy::Off && emc.enabled();
                 if (const ShardFlowEstimator *est = rt.flowEstimator(w))
                     r.estimatedFlows += est->lastEstimate();
             }
         }});

    const ShardFlowEstimator::Window refWin = refEst.closeWindow();
    const double distinct = double(r.streamDistinctFlows);
    r.refEstimate = refWin.estimate;
    r.refSaturated = refWin.saturated;
    r.refRelError =
        distinct > 0 ? std::fabs(refWin.estimate - distinct) / distinct
                     : 0.0;
    return r;
}

double
cpuPpsRatio(const RunResult *n, const RunResult *d)
{
    return n && d && d->aggregateCpuPps > 0.0
               ? n->aggregateCpuPps / d->aggregateCpuPps
               : 0.0;
}

void
runFlowscale(const Options &opt)
{
    banner("Flow-scale throughput",
           "EMC policy (fixed/adaptive/off) at 1M-10M concurrent flows");
    std::vector<Cell> cells;
    if (opt.smoke) {
        cells.push_back({2000, 1.1, true, {}});
        cells.push_back({30000, 0.5, false, {}});
    } else if (opt.has("--flows")) {
        cells.push_back({opt.flows, 0.5, false, {}});
        cells.push_back({opt.flows, 1.1, false, {}});
    } else {
        cells.push_back({20000, 1.1, true, {}});
        for (const std::uint64_t flows : {1000000, 4000000, 10000000}) {
            cells.push_back({flows, 0.5, false, {}});
            cells.push_back({flows, 1.1, false, {}});
        }
    }

    // A short smoke run's adaptive/fixed ratio swings by 20-25% with
    // host load, so the gated ratios are medians over alternating
    // pairs. runs[] keeps each cell's first pair; the deterministic
    // replay fields are identical in every pair.
    const unsigned ratioPairs = opt.smoke ? 7 : 1;
    std::vector<FlowscaleRun> runs, repeats;
    for (Cell &cell : cells) {
        runs.push_back(flowscaleRun(cell, EmcPolicy::Off, opt, false));
        for (unsigned pair = 0; pair < ratioPairs; ++pair) {
            const bool adaptiveFirst = pair % 2 == 1;
            FlowscaleRun first = flowscaleRun(
                cell, adaptiveFirst ? EmcPolicy::Adaptive : EmcPolicy::Fixed,
                opt, false);
            FlowscaleRun second = flowscaleRun(
                cell, adaptiveFirst ? EmcPolicy::Fixed : EmcPolicy::Adaptive,
                opt, &cell == &cells.back() && pair == 0);
            FlowscaleRun &fixed = adaptiveFirst ? second : first;
            FlowscaleRun &adaptive = adaptiveFirst ? first : second;
            cell.pairRatios.push_back(cpuPpsRatio(&adaptive, &fixed));
            std::vector<FlowscaleRun> &keep = pair == 0 ? runs : repeats;
            keep.push_back(std::move(fixed));
            keep.push_back(std::move(adaptive));
        }
    }

    // Headline cells: the largest population at its least-skewed (most
    // EMC-hostile) setting, and the small-case reference cell.
    const Cell *big = nullptr, *small = nullptr;
    for (const Cell &c : cells) {
        if (c.smallCase)
            small = &c;
        else if (!big || c.flows > big->flows ||
                 (c.flows == big->flows && c.skew < big->skew))
            big = &c;
    }
    const auto find = [&runs](const Cell *cell, EmcPolicy policy) {
        const auto it = std::find_if(
            runs.begin(), runs.end(), [&](const FlowscaleRun &r) {
                return r.cell == cell && r.policy == policy;
            });
        return it == runs.end() ? nullptr : &*it;
    };
    const double bigRatio = big ? big->medianRatio() : 0.0;
    const double smallRatio = small ? small->medianRatio() : 0.0;

    writeJson(
        opt, runs.back().rep.perfDegraded,
        "Each (flows, skew) cell pre-installs every flow, then runs an "
        "identical Zipf stream once per EMC policy; fixed and adaptive "
        "run as alternating pairs (runs[] keeps the first) and the "
        "headlines are median pair ratios. stream_distinct_flows and "
        "ref_estimate are a deterministic replay of the stream.",
        [&](obs::JsonWriter &j) {
            j.kv("workers", opt.workers);
            j.kv("emc_entries", opt.emcEntries);
            j.kv("headline_adaptive_over_fixed", bigRatio, 3);
            j.kv("headline_off_over_fixed",
                 cpuPpsRatio(find(big, EmcPolicy::Off),
                             find(big, EmcPolicy::Fixed)),
                 3);
            j.kv("small_case_adaptive_over_fixed", smallRatio, 3);
            j.key("runs").beginArray();
            for (const FlowscaleRun &r : runs) {
                const RevalidatorCounters &rv = r.agg().revalidator;
                j.beginObject();
                j.kv("policy", policyNames[int(r.policy)]);
                j.kv("flows", r.cell->flows);
                j.kv("zipf_skew", r.cell->skew, 2);
                j.kv("small_case", r.cell->smallCase);
                j.kv("preinstalled", r.cell->flows);
                writeRunCommon(j, r, 0x5);
                j.kv("matched", r.agg().matched);
                j.kv("emc_hits", r.agg().emcHits);
                j.kv("upcalls_enqueued", r.agg().upcallsEnqueued);
                j.kv("promotes_enqueued", r.agg().promotesEnqueued);
                j.kv("upcall_drops", r.agg().upcallDrops);
                j.kv("promotes", rv.promotes);
                j.kv("promotes_throttled", rv.promotesThrottled);
                j.kv("ctrl_disables", rv.ctrlDisables);
                j.kv("ctrl_enables", rv.ctrlEnables);
                j.kv("ctrl_resizes", rv.ctrlResizes);
                j.kv("emc_lookup_hits", r.emcLookupHits);
                j.kv("emc_lookup_misses", r.emcLookupMisses);
                j.kv("emc_evict_overwrites", r.emcEvictOverwrites);
                j.kv("emc_active_entries_end", r.emcActiveEntries);
                j.kv("emc_enabled_shards_end", r.emcEnabledShards);
                j.kv("estimated_flows_end", r.estimatedFlows, 1);
                j.kv("stream_distinct_flows", r.streamDistinctFlows);
                j.kv("ref_estimate", r.refEstimate, 1);
                j.kv("ref_rel_error", r.refRelError, 4);
                j.kv("ref_saturated", r.refSaturated);
                j.endObject();
            }
            j.endArray();
            j.key("pair_ratios").beginArray();
            for (const Cell &c : cells) {
                j.beginObject();
                j.kv("flows", c.flows);
                j.kv("zipf_skew", c.skew, 2);
                j.key("adaptive_over_fixed").beginArray();
                for (const double ratio : c.pairRatios)
                    j.value(ratio, 3);
                j.endArray();
                j.kv("median", c.medianRatio(), 3);
                j.endObject();
            }
            j.endArray();
        });
    std::printf("adaptive/fixed @ %llu flows: %.3fx (median of %u "
                "pair(s))\n",
                static_cast<unsigned long long>(big ? big->flows : 0),
                bigRatio, ratioPairs);

    if (!opt.smoke)
        return;
    runs.insert(runs.end(), repeats.begin(), repeats.end());
    for (const FlowscaleRun &r : runs)
        gate(r.streamDistinctFlows > 0 && !r.refSaturated &&
                 r.refRelError <= 0.05,
             "%s: reference estimator rel_error %.4f saturated %d "
             "(distinct %llu, estimate %.0f)",
             r.label.c_str(), r.refRelError, int(r.refSaturated),
             static_cast<unsigned long long>(r.streamDistinctFlows),
             r.refEstimate);
    const FlowscaleRun *adaptBig = find(big, EmcPolicy::Adaptive);
    gate(adaptBig && adaptBig->agg().revalidator.ctrlDisables +
                             adaptBig->agg().revalidator.ctrlEnables +
                             adaptBig->agg().revalidator.ctrlResizes >
                         0,
         "adaptive controller never acted at the high-flow cell");
    gate(bigRatio >= 1.0, "adaptive %.3fx fixed at the high-flow cell "
                          "(< 1.0x)", bigRatio);
    gate(!small || smallRatio >= 0.85,
         "adaptive %.3fx fixed at the small-case cell (< 0.85x)",
         smallRatio);
}

/**@}*/

/** @name elastic: elastic vs static workers under skew
 *
 * The hottest hot_keys Zipf ranks get tuples that all hash into RSS
 * bucket 0 (initially shard 0): colocated elephants that static RSS
 * cannot escape. The identical stream runs with static RSS and with
 * the elastic controller (load-aware bucket migration, hot-bucket
 * splitting, parking). Migrated flows take one megaflow miss at their
 * new shard through the upcall/revalidator path.
 *
 * effective_pps = processed * 1e9 / max per-worker busyNanos: a
 * makespan rate, preemption-immune yet sensitive to imbalance. Every
 * packet carries a (flow, seq) tag checked by a FlowOrderValidator:
 * migrations may delay packets, never reorder them. Gate timeouts
 * (controller waits that expired on an oversubscribed host; the gate
 * still self-clears) are reported, not gated. */
/**@{*/

struct ElasticRun : RunResult
{
    bool elastic = false;
    unsigned workers = 0;
    double skew = 0.0;
    double effectivePps = 0.0;
    std::uint64_t orderObserved = 0;
    std::uint64_t reorderViolations = 0;
    ElasticCounters ctrl; ///< zeros in static mode
    std::uint64_t rssRebalances = 0;
    std::uint64_t rssFlowsMoved = 0;
    std::uint64_t tableEntriesEnd = 0;
    std::uint64_t maxBusyNanos = 0;
    double packetImbalance = 0.0; ///< max/mean per-worker packets
    std::uint64_t parkedEnd = 0;
};

/** Shared RSS shape for every run (and the placement probe). */
RssConfig
rssShape()
{
    RssConfig rc;
    rc.numShards = 1; // probe only; the runtime overrides this
    rc.symmetric = true;
    // Coarse initial table so colocation hurts, with headroom for the
    // controller to split hot buckets four doublings finer.
    rc.tableEntries = 16;
    rc.maxTableEntries = 256;
    return rc;
}

/**
 * The flow population in Zipf rank order, ranks [0, hotKeys) remapped
 * to tuples that hash into RSS bucket 0 of the initial table. The probe
 * uses every run's RSS config, so placement is identical across modes
 * and cells.
 */
std::vector<FiveTuple>
buildFlows(const Options &opt)
{
    const RssDispatcher probe(rssShape());
    std::vector<FiveTuple> flows;
    for (std::uint64_t id = 0; id < opt.flows; ++id)
        flows.push_back(tupleForId(id));
    for (std::uint64_t i = 0; i < std::min(opt.hotKeys, opt.flows); ++i) {
        // Candidate ids above the population keep tuples unique.
        std::uint64_t k = 0;
        while (k < 65536 &&
               probe.bucketFor(tupleForId(opt.flows + i * 65536 + k)) != 0)
            ++k;
        if (k == 65536) {
            std::fprintf(stderr, "error: no bucket-0 tuple for hot key "
                                 "%llu\n",
                         static_cast<unsigned long long>(i));
            std::exit(1);
        }
        flows[i] = tupleForId(opt.flows + i * 65536 + k);
    }
    return flows;
}

ElasticRun
elasticRun(unsigned workers, double skew, bool elastic,
           const std::vector<FiveTuple> &flows, const Options &opt,
           bool exportRun)
{
    ElasticRun r;
    r.elastic = elastic;
    r.workers = workers;
    r.skew = skew;
    r.label = std::string(elastic ? "elastic" : "static") + " w" +
              std::to_string(workers) + " zipf " +
              std::to_string(skew).substr(0, 4);
    const RuleSet ofRules{matchAllRule()};

    RuntimeConfig cfg = baseConfig(opt, workers);
    cfg.shard.vswitch.tupleConfig.tupleCapacity =
        nextPowerOfTwo(std::max<std::uint64_t>(opt.flows * 4, 4096));
    // EMC off in both modes: uniform per-packet cost isolates the
    // balancing effect (the flowscale preset owns the EMC trade).
    cfg.shard.vswitch.useEmc = false;
    cfg.rss = rssShape();
    slowPath(cfg, opt, ofRules, true);
    cfg.revalidator.idleTimeoutEpochs = 4;
    cfg.elastic.enabled = elastic;
    // Short control epochs: even smoke runs (perhaps under TSan) span
    // tens of epochs.
    cfg.elastic.controlIntervalMicros = opt.smoke ? 500 : 1000;
    cfg.elastic.hysteresisEpochs = 2;
    cfg.elastic.cooldownEpochs = 1;
    cfg.elastic.maxMigrationsPerEpoch = 8;
    cfg.elastic.splitBucketShare = 0.4;
    // Oversubscribed hosts (8 workers on one core) run every worker at
    // a low absolute busy fraction; act on relative imbalance anyway.
    cfg.elastic.minBusyToAct = 0.03;
    // Park only near-idle workers: the preset offers continuously, so
    // parking should stay a no-op except on heavily skewed cells.
    cfg.elastic.parkBusyFraction = 0.02;
    cfg.elastic.parkAfterEpochs = 8;
    cfg.elastic.unparkBusyFraction = 0.5;
    FlowOrderValidator oracle(opt.flows + 2);
    cfg.orderValidator = &oracle;

    // One stream per (flows, skew): mode-invariant, so static and
    // elastic classify the identical packet sequence.
    Xoshiro256 rng(0xe1a57c0de5eedull);
    ZipfDistribution zipf(opt.flows, skew);
    std::vector<std::uint32_t> seq(opt.flows, 0);
    measure(
        r, cfg, RuleSet{}, opt, exportRun,
        {.prepare =
             [&](Runtime &rt) {
                 preinstall(
                     rt, ofRules.front(), flows.size(),
                     [&](std::uint64_t i) { return flows[i]; }, true);
             },
         .produce =
             [&](Runtime &rt) {
                 for (std::uint64_t p = 0; p < opt.packets; ++p) {
                     const std::uint64_t id = zipf.sample(rng);
                     Packet pkt = Packet::fromTuple(flows[id]);
                     // Flow ids are 1-based in the tag so rank 0's
                     // first packet is not the ignored all-zero tag.
                     pkt.stampOrderTag(((id + 1) << 32) | seq[id]++);
                     rt.offer(std::move(pkt), flows[id]);
                 }
             },
         .inspect = [&](Runtime &rt) {
             if (rt.elastic())
                 r.ctrl = rt.elastic()->counters();
             r.rssRebalances = rt.dispatcher().rebalances();
             r.rssFlowsMoved = rt.dispatcher().flowsMoved();
             r.tableEntriesEnd = rt.dispatcher().tableEntries();
             for (unsigned w = 0; w < workers; ++w)
                 r.parkedEnd += rt.worker(w).parked();
         }});

    std::uint64_t maxPackets = 0;
    for (const WorkerReport &w : r.rep.workers) {
        r.maxBusyNanos = std::max(r.maxBusyNanos, w.counters.busyNanos);
        maxPackets = std::max(maxPackets, w.counters.packets);
    }
    const double processed = double(r.agg().processed);
    r.effectivePps =
        r.maxBusyNanos > 0 ? processed * 1e9 / double(r.maxBusyNanos) : 0.0;
    r.packetImbalance =
        processed > 0.0 ? double(maxPackets) * workers / processed : 0.0;
    r.orderObserved = oracle.observed();
    r.reorderViolations = oracle.violations();
    return r;
}

void
runElastic(const Options &opt)
{
    banner("Elastic workers",
           "load-aware migration + splitting vs static RSS under skew");
    std::vector<unsigned> workerSweep = {2, 4, 8};
    std::vector<double> skews = {0.5, 0.99, 1.3};
    if (opt.smoke) {
        workerSweep = {2};
        skews = {0.5, 1.3};
    }
    if (opt.has("--workers"))
        workerSweep = {unsigned(opt.workers)};
    if (opt.has("--skew"))
        skews = {opt.skew};

    const std::vector<FiveTuple> flows = buildFlows(opt);
    std::vector<ElasticRun> runs;
    for (const unsigned w : workerSweep) {
        for (const double s : skews) {
            // The export run is the sweep's last: elastic when both
            // modes run, so the controller series render from real
            // migration/split/park activity.
            const bool last = w == workerSweep.back() && s == skews.back();
            if (!opt.onlyElastic)
                runs.push_back(elasticRun(w, s, false, flows, opt,
                                          last && opt.onlyStatic));
            if (!opt.onlyStatic)
                runs.push_back(elasticRun(w, s, true, flows, opt, last));
        }
    }

    const auto find = [&runs](unsigned w, double s, bool elastic) {
        const auto it = std::find_if(
            runs.begin(), runs.end(), [&](const ElasticRun &r) {
                return r.workers == w && r.skew == s && r.elastic == elastic;
            });
        return it == runs.end() ? nullptr : &*it;
    };
    const auto speedup = [&find](unsigned w, double s) {
        const ElasticRun *e = find(w, s, true);
        const ElasticRun *st = find(w, s, false);
        return e && st && st->effectivePps > 0.0
                   ? e->effectivePps / st->effectivePps
                   : 0.0;
    };
    // Headline cell: 4 workers at the highest skew when swept,
    // otherwise the largest swept worker count.
    const unsigned headlineWorkers =
        std::count(workerSweep.begin(), workerSweep.end(), 4u)
            ? 4u
            : workerSweep.back();
    const double headlineSkew = *std::max_element(skews.begin(), skews.end());
    const double uniformSkew = *std::min_element(skews.begin(), skews.end());
    const double headline = speedup(headlineWorkers, headlineSkew);
    const double uniform = speedup(headlineWorkers, uniformSkew);

    writeJson(
        opt, false,
        "Each (workers, zipf_skew) cell runs an identical Zipf stream "
        "with static RSS and with the elastic controller; the hottest "
        "hot_keys ranks share RSS bucket 0. effective_pps = processed "
        "* 1e9 / max per-worker busyNanos (a makespan rate). "
        "reorder_violations must be zero: migrations never reorder.",
        [&](obs::JsonWriter &j) {
            j.kv("flows", opt.flows);
            j.kv("hot_keys", opt.hotKeys);
            j.kv("headline_workers", headlineWorkers);
            j.kv("headline_skew", headlineSkew, 2);
            j.kv("headline_elastic_over_static", headline, 3);
            j.kv("uniform_elastic_over_static", uniform, 3);
            j.key("pairs").beginArray();
            for (const unsigned w : workerSweep) {
                for (const double s : skews) {
                    const ElasticRun *e = find(w, s, true);
                    const ElasticRun *st = find(w, s, false);
                    if (!e || !st)
                        continue;
                    j.beginObject();
                    j.kv("workers", w);
                    j.kv("zipf_skew", s, 2);
                    j.kv("static_effective_pps", st->effectivePps, 1);
                    j.kv("elastic_effective_pps", e->effectivePps, 1);
                    j.kv("speedup", speedup(w, s), 3);
                    j.endObject();
                }
            }
            j.endArray();
            j.key("runs").beginArray();
            for (const ElasticRun &r : runs) {
                j.beginObject();
                j.kv("mode", r.elastic ? "elastic" : "static");
                j.kv("workers", r.workers);
                j.kv("zipf_skew", r.skew, 2);
                j.kv("effective_pps", r.effectivePps, 1);
                writeRunCommon(j, r, 0);
                j.kv("enqueued", r.agg().enqueued);
                j.kv("order_observed", r.orderObserved);
                j.kv("reorder_violations", r.reorderViolations);
                j.kv("ctrl_epochs", r.ctrl.epochs);
                j.kv("migrations", r.ctrl.migrations);
                j.kv("splits", r.ctrl.splits);
                j.kv("parks", r.ctrl.parks);
                j.kv("unparks", r.ctrl.unparks);
                j.kv("gate_timeouts", r.ctrl.gateTimeouts);
                j.kv("rss_rebalances", r.rssRebalances);
                j.kv("rss_flows_moved", r.rssFlowsMoved);
                j.kv("table_entries_end", r.tableEntriesEnd);
                j.kv("max_busy_nanos", r.maxBusyNanos);
                j.kv("packet_imbalance", r.packetImbalance, 3);
                j.kv("parked_end", r.parkedEnd);
                j.kv("upcalls_enqueued", r.agg().upcallsEnqueued);
                j.kv("installs", r.agg().revalidator.installs);
                j.kv("aged_flows", r.agg().revalidator.agedFlows);
                j.endObject();
            }
            j.endArray();
        });
    if (headline > 0.0)
        std::printf("elastic/static @ w%u zipf %.2f: %.3fx "
                    "(uniform zipf %.2f: %.3fx)\n",
                    headlineWorkers, headlineSkew, headline, uniformSkew,
                    uniform);

    // Ordering holds in every mode, smoke or not.
    for (const ElasticRun &r : runs)
        gate(r.reorderViolations == 0, "%s: %llu reorder violations",
             r.label.c_str(),
             static_cast<unsigned long long>(r.reorderViolations));
    if (opt.smoke && !opt.onlyStatic) {
        // Forced skew must actually trip the controller.
        const ElasticRun *hot = find(workerSweep.back(), headlineSkew, true);
        gate(hot && hot->ctrl.migrations > 0,
             "elastic controller never migrated at the skewed cell");
    }
    if (!opt.smoke && !opt.onlyElastic && !opt.onlyStatic &&
        headline > 0.0) {
        gate(headline >= 1.4,
             "elastic %.3fx static at the headline cell (< 1.4x)",
             headline);
        gate(uniform <= 0.0 || uniform >= 0.97,
             "elastic %.3fx static on the uniform cell (< 0.97x)", uniform);
    }
}

/**@}*/

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    if (!opt.tracePath.empty() && !obs::traceCompiledIn())
        std::fprintf(stderr, "warning: built with HALO_TRACING=OFF; the "
                             "trace will contain no spans\n");
    if (opt.perf && !obs::perfCompiledIn())
        std::fprintf(stderr, "warning: built with HALO_PERF=OFF; --perf "
                             "will record nothing\n");
    switch (opt.preset) {
    case Multiworker: runMultiworker(opt); break;
    case Churn: runChurn(opt); break;
    case Flowscale: runFlowscale(opt); break;
    default: runElastic(opt); break;
    }
    if (gateFailed)
        return 1;
    if (opt.smoke)
        std::printf("smoke OK\n");
    return 0;
}
