/**
 * @file
 * The repository benchmark: simulated references per host second on
 * three workloads that load different layers of the simulator, plus
 * per-layer work counts, isolated-call probe timings and a traced run.
 *
 *   vic_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 [--trace-out PATH]
 *
 * The load is a closed loop with one client: the workload's batch of
 * runs executes back to back on one thread, again and again, until S
 * host seconds have passed. Every host time reported is the fastest
 * over those batches (see typicalSeconds()); every count is exact and
 * identical in every batch. Layers are measured only from outside: counts come from each
 * run's StatSet snapshot, spans are timed around the calls this file
 * makes, and the probes time isolated calls into each layer's public
 * functions. README.md in this directory describes every metric.
 *
 * The last line of standard output is one JSON object with the keys
 * correct, attempted, failed and metrics. With --trace 0 the metrics
 * are the end-to-end ones; with --trace 1 they are the per-layer ones.
 * The exit code is 0 only when every check passed.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "core/pmap.hh"
#include "experiment/experiment_engine.hh"
#include "machine/cpu.hh"
#include "machine/machine.hh"
#include "oracle/consistency_oracle.hh"
#include "os/kernel.hh"
#include "workload/afs_bench.hh"
#include "workload/contrived_alias.hh"
#include "workload/db_server.hh"
#include "workload/kernel_build.hh"
#include "workload/latex_bench.hh"

namespace
{

using namespace vic;
using Clock = std::chrono::steady_clock;

/** Batches measured at least, however long they take. */
constexpr std::size_t kMinBatches = 3;
/** Repetitions of each probe; it reports the fastest. */
constexpr int kProbeReps = 9;
/** Host seconds one probe repetition times at least. */
constexpr double kProbeRepSeconds = 0.01;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
toSeconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

double
ratio(double num, double den)
{
    return den == 0 ? 0 : num / den;
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Keeps probe results observable so no timed call is optimised out. */
volatile std::uint64_t probeSink = 0;

// ----------------------------------------------------------------------
// Workloads
// ----------------------------------------------------------------------

struct BenchWorkload
{
    std::string name;
    /** The runs of one batch for benchmark seed @p seed. */
    std::function<std::vector<RunSpec>(std::uint64_t seed)> specs;
    /** Shape: the coherence bus carries traffic (and only here). */
    bool expectBus = false;
    /** Shape: cache-line operations are the majority of refs. */
    bool expectLineOpMajority = false;
    /** Shape: DMA moves words. */
    bool expectDma = false;
};

/** A spec's workload seed: a pure function of the benchmark seed and
 *  the workload's calibrated default, so each workload in a batch has
 *  its own stream and one --seed always yields the same runs. */
std::uint64_t
specSeed(std::uint64_t bench_seed, std::uint64_t calibrated)
{
    return splitmix64(calibrated ^ splitmix64(bench_seed));
}

/** Short policy tag for run ids: "F (+will overwrite)" -> "F". */
std::string
policyTag(const PolicyConfig &policy)
{
    return policy.name.substr(0, policy.name.find(' '));
}

RunSpec
makeSpec(const std::string &bench, const std::string &workload,
         const PolicyConfig &policy, const MachineParams &machine,
         std::uint64_t seed,
         std::function<std::unique_ptr<Workload>()> make,
         const std::string &variant = "")
{
    RunSpec spec;
    spec.id = bench + "/" + workload + "/" + policyTag(policy);
    if (!variant.empty())
        spec.id += "/" + variant;
    spec.make = std::move(make);
    spec.policy = policy;
    spec.machine = machine;
    spec.seed = seed;
    return spec;
}

/** The paper's three workloads at full scale, with calibrated seeds. */
struct PaperWorkload
{
    std::string name;
    std::uint64_t calibratedSeed;
    std::function<std::unique_ptr<Workload>()> make;
};

std::vector<PaperWorkload>
paperWorkloads()
{
    return {
        {"afs-bench", AfsBench::Params{}.seed,
         [] { return std::make_unique<AfsBench>(); }},
        {"latex-paper", LatexBench::Params{}.seed,
         [] { return std::make_unique<LatexBench>(); }},
        {"kernel-build", KernelBuild::Params{}.seed,
         [] { return std::make_unique<KernelBuild>(); }},
    };
}

/** The coherence suite's 2-CPU MESI machine. */
MachineParams
mesiMachine()
{
    MachineParams p = MachineParams::hp720();
    p.numCpus = 2;
    p.cpuCoherence = MachineParams::CpuCoherence::Mesi;
    return p;
}

/** The fully hardware-coherent 2-CPU machine. */
MachineParams
hardwareMachine()
{
    MachineParams p = mesiMachine();
    p.synonymCoherence = true;
    p.ifetchCoherence = true;
    p.dmaSnoops = true;
    return p;
}

std::vector<BenchWorkload>
benchWorkloads()
{
    std::vector<BenchWorkload> all;

    BenchWorkload uni;
    uni.name = "paper-uni";
    uni.expectDma = true;
    uni.specs = [](std::uint64_t seed) {
        std::vector<RunSpec> specs;
        for (const PaperWorkload &w : paperWorkloads()) {
            for (const PolicyConfig &cfg :
                 {PolicyConfig::configA(), PolicyConfig::configF()}) {
                specs.push_back(makeSpec(
                    "paper-uni", w.name, cfg, MachineParams::hp720(),
                    specSeed(seed, w.calibratedSeed), w.make));
            }
        }
        return specs;
    };
    all.push_back(uni);

    BenchWorkload mesi;
    mesi.name = "mesi-2cpu";
    mesi.expectBus = true;
    mesi.expectDma = true;
    mesi.specs = [](std::uint64_t seed) {
        std::vector<RunSpec> specs;
        for (const PaperWorkload &w : paperWorkloads()) {
            const std::uint64_t s = specSeed(seed, w.calibratedSeed);
            specs.push_back(makeSpec("mesi-2cpu", w.name,
                                     PolicyConfig::configF(),
                                     mesiMachine(), s, w.make, "mesi"));
            specs.push_back(makeSpec("mesi-2cpu", w.name,
                                     PolicyConfig::hardware(),
                                     hardwareMachine(), s, w.make, "hw"));
        }
        return specs;
    };
    all.push_back(mesi);

    BenchWorkload alias;
    alias.name = "alias-churn";
    alias.expectLineOpMajority = true;
    alias.specs = [](std::uint64_t seed) {
        std::vector<RunSpec> specs;
        const std::uint64_t db_seed =
            specSeed(seed, DbServer::Params{}.seed);
        for (const PolicyConfig &cfg : PolicyConfig::table4Sweep()) {
            for (bool aligned : {false, true}) {
                specs.push_back(makeSpec(
                    "alias-churn",
                    aligned ? "contrived-aligned" : "contrived-unaligned",
                    cfg, MachineParams::hp720(), db_seed, [aligned] {
                        // Read back through the other alias after
                        // every store, so the oracle checks the loop.
                        ContrivedAlias::Params p;
                        p.aligned = aligned;
                        p.verifyReads = true;
                        return std::make_unique<ContrivedAlias>(p);
                    }));
            }
            specs.push_back(makeSpec(
                "alias-churn", "db-server", cfg, MachineParams::hp720(),
                db_seed, [] { return std::make_unique<DbServer>(); }));
        }
        return specs;
    };
    all.push_back(alias);
    return all;
}

// ----------------------------------------------------------------------
// One run, instrumented from outside
// ----------------------------------------------------------------------

/** Observer calls by kind. */
struct TapCounts
{
    std::uint64_t loads = 0;
    std::uint64_t ifetches = 0;
    std::uint64_t stores = 0;
    std::uint64_t dmaWrites = 0;
    std::uint64_t dmaReads = 0;

    std::uint64_t
    total() const
    {
        return loads + ifetches + stores + dmaWrites + dmaReads;
    }
};

/**
 * Forwarding observer between the machine and the real oracle. It
 * counts every call by kind for the counter cross-check. In traced
 * runs it also measures the host time spent inside the oracle, as one
 * aggregate per run: timing each of a run's ~10^6 calls would cost
 * several times the oracle itself, so it queues the calls and replays
 * them to the oracle in timed blocks. The oracle's state depends only
 * on the order of its own calls, and nothing reads it during a run, so
 * the replay gives the same verdicts (the digest check confirms it).
 */
class OracleTap final : public MemoryObserver
{
  public:
    OracleTap(ConsistencyOracle &target, bool timed)
        : oracle(target), timeCalls(timed)
    {
        if (timeCalls)
            queue.reserve(kBlock);
    }

    void
    cpuLoad(PhysAddr pa, std::uint32_t observed) override
    {
        ++counts.loads;
        forward(Kind::Load, pa, observed);
    }

    void
    cpuIFetch(PhysAddr pa, std::uint32_t observed) override
    {
        ++counts.ifetches;
        forward(Kind::IFetch, pa, observed);
    }

    void
    cpuStore(PhysAddr pa, std::uint32_t value) override
    {
        ++counts.stores;
        forward(Kind::Store, pa, value);
    }

    void
    dmaWrite(PhysAddr pa, std::uint32_t value) override
    {
        ++counts.dmaWrites;
        forward(Kind::DmaWrite, pa, value);
    }

    void
    dmaRead(PhysAddr pa, std::uint32_t observed) override
    {
        ++counts.dmaReads;
        forward(Kind::DmaRead, pa, observed);
    }

    /** Deliver every queued call; call before reading the oracle. */
    void
    flush()
    {
        if (queue.empty())
            return;
        const auto t0 = Clock::now();
        for (const Call &c : queue)
            deliver(c);
        timeInOracle += Clock::now() - t0;
        queue.clear();
    }

    TapCounts counts;
    Clock::duration timeInOracle{};

  private:
    enum class Kind : std::uint8_t
    {
        Load,
        IFetch,
        Store,
        DmaWrite,
        DmaRead,
    };

    struct Call
    {
        Kind kind;
        PhysAddr pa;
        std::uint32_t value;
    };

    static constexpr std::size_t kBlock = 1024;

    void
    forward(Kind kind, PhysAddr pa, std::uint32_t value)
    {
        if (!timeCalls) {
            deliver({kind, pa, value});
            return;
        }
        queue.push_back({kind, pa, value});
        if (queue.size() == kBlock)
            flush();
    }

    void
    deliver(const Call &c)
    {
        switch (c.kind) {
          case Kind::Load: oracle.cpuLoad(c.pa, c.value); break;
          case Kind::IFetch: oracle.cpuIFetch(c.pa, c.value); break;
          case Kind::Store: oracle.cpuStore(c.pa, c.value); break;
          case Kind::DmaWrite: oracle.dmaWrite(c.pa, c.value); break;
          case Kind::DmaRead: oracle.dmaRead(c.pa, c.value); break;
        }
    }

    ConsistencyOracle &oracle;
    bool timeCalls;
    std::vector<Call> queue;
};

/** Everything recorded about one run. */
struct RunRecord
{
    std::string id;
    bool ok = false;
    std::string error;
    RunResult result;
    TapCounts tap;
    std::uint64_t walks = 0;     ///< PageTable::walkCount()
    std::uint64_t physBytes = 0; ///< simulated physical memory
    bool dmaSnoops = false;
    double oracleSeconds = 0;    ///< traced runs only

    // Span boundaries: experiment.run = [start, end]; the setup.* and
    // workload.run spans tile [machineStart, workloadEnd] inside it.
    Clock::time_point start, machineStart, machineEnd, oracleEnd,
        kernelEnd, workloadEnd, end;

    double runSeconds() const { return secondsBetween(start, end); }
};

/**
 * Execute @p spec exactly as runWorkload() (workload/runner.cc) does —
 * fresh workload reseeded with the spec's seed, Machine, oracle,
 * Kernel, run, snapshot — with host timestamps between the steps and
 * the oracle behind an OracleTap. The reference pass in main() checks
 * that the snapshot equals the ExperimentEngine's for every spec.
 */
RunRecord
timedRun(const RunSpec &spec, bool time_oracle)
{
    RunRecord r;
    r.id = spec.id;
    r.dmaSnoops = spec.machine.dmaSnoops;
    r.start = Clock::now();
    try {
        std::unique_ptr<Workload> workload = spec.make();
        workload->reseed(spec.seed);
        r.machineStart = Clock::now();
        Machine machine(spec.machine);
        r.machineEnd = Clock::now();
        ConsistencyOracle oracle(machine.memory().sizeBytes());
        r.oracleEnd = Clock::now();
        OracleTap tap(oracle, time_oracle);
        machine.setObserver(&tap);
        Kernel kernel(machine, spec.policy, spec.os);
        r.kernelEnd = Clock::now();

        workload->run(kernel);
        tap.flush();
        r.workloadEnd = Clock::now();

        machine.stats().counter("os.freelist.colour_hits") +=
            kernel.freeList().colourHits();
        machine.stats().counter("os.freelist.colour_misses") +=
            kernel.freeList().colourMisses();
        r.result.cycles = machine.clock().now();
        r.result.oracleViolations = oracle.violationCount();
        r.result.oracleChecked = oracle.checkedCount();
        r.result.stats = machine.stats().snapshot();
        r.tap = tap.counts;
        r.oracleSeconds = toSeconds(tap.timeInOracle);
        r.walks = machine.pageTable().walkCount();
        r.physBytes = machine.memory().sizeBytes();
        r.ok = true;
    } catch (const std::exception &e) {
        r.error = e.what();
    } catch (...) {
        r.error = "unknown exception";
    }
    r.end = Clock::now();
    return r;
}

/** FNV-1a digest of a run's simulated result: cycles, oracle counts
 *  and every counter, in name order. Host times are excluded. */
std::uint64_t
digestOf(const RunResult &r)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto bytes = [&h](const void *p, std::size_t n) {
        const auto *c = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= c[i];
            h *= 0x100000001b3ULL;
        }
    };
    const auto word = [&bytes](std::uint64_t v) { bytes(&v, sizeof v); };
    word(r.cycles);
    word(r.oracleViolations);
    word(r.oracleChecked);
    for (const auto &[name, value] : r.stats) {
        bytes(name.data(), name.size() + 1);
        word(value);
    }
    return h;
}

// ----------------------------------------------------------------------
// Counts derived from a run's snapshot
// ----------------------------------------------------------------------

/** Per-layer work counts of one run (or, summed, of one batch). */
struct Counts
{
    std::uint64_t cpuRefs = 0;      ///< Σ cache reads + writes
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t fills = 0;
    std::uint64_t writeBacks = 0;
    std::uint64_t linePresent = 0;  ///< flush/purge of present lines
    std::uint64_t lineAbsent = 0;   ///< flush/purge of absent lines
    std::uint64_t busTxns = 0;
    std::uint64_t busInterventions = 0;
    std::uint64_t busInvalidations = 0;
    std::uint64_t tlbHits = 0;
    std::uint64_t tlbMisses = 0;
    std::uint64_t walks = 0;
    std::uint64_t dmaWords = 0;
    std::uint64_t dmaWordsSnooped = 0;
    std::uint64_t dmaTransfers = 0;
    std::uint64_t pageFlushes = 0;
    std::uint64_t pagePurges = 0;
    std::uint64_t consistencyFaults = 0;
    std::uint64_t osFaults = 0;
    std::uint64_t syscalls = 0;
    std::uint64_t ipcTransfers = 0;
    std::uint64_t pagesPrepared = 0;
    std::uint64_t oracleChecks = 0;
    std::uint64_t cycles = 0;
    std::uint64_t physBytes = 0;    ///< max over runs, not a sum

    std::uint64_t lineOps() const { return linePresent + lineAbsent; }
    /** Simulated references: CPU accesses, DMA words and line ops. */
    std::uint64_t refs() const { return cpuRefs + dmaWords + lineOps(); }

    void
    add(const Counts &o)
    {
        cpuRefs += o.cpuRefs;
        cacheHits += o.cacheHits;
        cacheMisses += o.cacheMisses;
        fills += o.fills;
        writeBacks += o.writeBacks;
        linePresent += o.linePresent;
        lineAbsent += o.lineAbsent;
        busTxns += o.busTxns;
        busInterventions += o.busInterventions;
        busInvalidations += o.busInvalidations;
        tlbHits += o.tlbHits;
        tlbMisses += o.tlbMisses;
        walks += o.walks;
        dmaWords += o.dmaWords;
        dmaWordsSnooped += o.dmaWordsSnooped;
        dmaTransfers += o.dmaTransfers;
        pageFlushes += o.pageFlushes;
        pagePurges += o.pagePurges;
        consistencyFaults += o.consistencyFaults;
        osFaults += o.osFaults;
        syscalls += o.syscalls;
        ipcTransfers += o.ipcTransfers;
        pagesPrepared += o.pagesPrepared;
        oracleChecks += o.oracleChecks;
        cycles += o.cycles;
        physBytes = std::max(physBytes, o.physBytes);
    }
};

/**
 * Derive one run's counts from its snapshot and check the counter
 * identities that tie the forwarding observer to the StatSet. Every
 * problem is appended to @p problems; a counter the refs formula needs
 * but the snapshot lacks is a problem, never a silent zero.
 */
Counts
countsOf(const RunRecord &r, std::vector<std::string> &problems)
{
    const auto &stats = r.result.stats;
    const auto fail = [&](const std::string &what) {
        problems.push_back(r.id + ": " + what);
    };
    const auto need = [&](const std::string &name) -> std::uint64_t {
        auto it = stats.find(name);
        if (it == stats.end()) {
            fail("missing counter " + name);
            return 0;
        }
        return it->second;
    };
    const auto opt = [&](const std::string &name) -> std::uint64_t {
        auto it = stats.find(name);
        return it == stats.end() ? 0 : it->second;
    };

    // Caches are "dcache"/"icache" on a uniprocessor and
    // "dcacheN"/"icacheN" per CPU otherwise: discover them from the
    // snapshot instead of assuming either naming.
    std::vector<std::string> caches;
    bool have_d = false, have_i = false;
    for (const auto &entry : stats) {
        const std::string &name = entry.first;
        if (!name.ends_with(".reads"))
            continue;
        const std::string prefix = name.substr(0, name.size() - 6);
        if (prefix.starts_with("dcache") || prefix.starts_with("icache")) {
            caches.push_back(prefix);
            have_d |= prefix.starts_with("dcache");
            have_i |= prefix.starts_with("icache");
        }
    }
    if (!have_d || !have_i)
        fail("no dcache*/icache* .reads counters in the snapshot");

    Counts c;
    std::uint64_t cache_reads = 0, cache_writes = 0;
    for (const std::string &p : caches) {
        cache_reads += need(p + ".reads");
        cache_writes += need(p + ".writes");
        c.cacheHits += need(p + ".hits");
        c.cacheMisses += need(p + ".misses");
        c.fills += need(p + ".fills");
        c.writeBacks += need(p + ".write_backs");
        c.linePresent +=
            need(p + ".flush_present") + need(p + ".purge_present");
        c.lineAbsent +=
            need(p + ".flush_absent") + need(p + ".purge_absent");
    }
    c.cpuRefs = cache_reads + cache_writes;
    c.dmaWords = need("dma.words_moved");
    c.dmaWordsSnooped = r.dmaSnoops ? c.dmaWords : 0;
    c.dmaTransfers = need("dma.device_reads") + need("dma.device_writes");

    c.busTxns = opt("bus.reads") + opt("bus.read_exclusives") +
                opt("bus.upgrades");
    c.busInterventions = opt("bus.interventions");
    c.busInvalidations = opt("bus.invalidations");
    c.tlbHits = need("tlb.hits");
    c.tlbMisses = need("tlb.misses");
    c.walks = r.walks;
    c.pageFlushes = need("pmap.d_page_flushes");
    c.pagePurges = need("pmap.d_page_purges") + need("pmap.i_page_purges");
    c.consistencyFaults = need("os.consistency_faults");
    c.osFaults = need("os.mapping_faults") + c.consistencyFaults +
                 need("os.cow_faults");
    c.syscalls = need("os.syscalls");
    c.ipcTransfers = need("os.ipc_transfers");
    c.pagesPrepared = need("os.pages_zeroed") + need("os.pages_copied");
    c.oracleChecks = r.result.oracleChecked;
    c.cycles = r.result.cycles;
    c.physBytes = r.physBytes;

    // Cross-check: the observer saw exactly the transfers the caches
    // and the DMA engine counted, and the oracle checked exactly the
    // reads among them.
    const TapCounts &t = r.tap;
    const auto identity = [&](const char *what, std::uint64_t lhs,
                              std::uint64_t rhs) {
        if (lhs != rhs) {
            fail(std::string("cross-check ") + what + ": " +
                 std::to_string(lhs) + " != " + std::to_string(rhs));
        }
    };
    identity("loads+ifetches == cache reads", t.loads + t.ifetches,
             cache_reads);
    identity("stores == cache writes", t.stores, cache_writes);
    identity("dma calls == dma.words_moved", t.dmaReads + t.dmaWrites,
             c.dmaWords);
    identity("oracle.checks == cache reads + dma-read words",
             r.result.oracleChecked, cache_reads + t.dmaReads);
    if (r.result.oracleViolations != 0)
        fail(std::to_string(r.result.oracleViolations) +
             " oracle violations");
    if (r.result.oracleChecked == 0)
        fail("vacuous oracle: 0 checks");
    return c;
}

// ----------------------------------------------------------------------
// Batches
// ----------------------------------------------------------------------

struct Span
{
    const char *name;
    std::string runId;
    int parent = -1;          ///< index into the span list, or -1
    Clock::time_point start, end;
    std::uint64_t oracleCalls = 0; ///< workload.run only
    double oracleSeconds = 0;      ///< workload.run only
};

/** Host seconds of one run's spans. */
struct RunTimes
{
    double run = 0;      ///< experiment.run
    double machine = 0;  ///< setup.machine
    double oracle = 0;   ///< setup.oracle
    double kernel = 0;   ///< setup.kernel
    double workload = 0; ///< workload.run
    double inOracle = 0; ///< oracle calls inside workload.run (traced)

    double setup() const { return machine + oracle + kernel; }
};

/** One batch, reduced to what the metrics need (records are dropped
 *  at once so memory does not grow with the number of batches). */
struct BatchSummary
{
    double sweepSeconds = 0;
    std::vector<RunTimes> times;        ///< per run, spec order
    std::vector<std::uint64_t> digests; ///< per run, spec order
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    Counts counts;
};

double
fastest(const std::vector<double> &v)
{
    return *std::min_element(v.begin(), v.end());
}

/**
 * Typical host seconds of one batch: for each run, the fastest of
 * @p field over @p batches, summed over the runs. Contention from
 * other tenants of a shared host only ever slows a run, and it comes
 * in phases lasting seconds to minutes, so a median or quartile over
 * batches moves with it; the fastest repeat of each run follows the
 * uncontended speed most closely.
 */
template <typename Field>
double
typicalSeconds(const std::vector<BatchSummary> &batches, Field field)
{
    double total = 0;
    for (std::size_t i = 0; i < batches.front().times.size(); ++i) {
        std::vector<double> v;
        for (const BatchSummary &b : batches)
            v.push_back(field(b.times[i]));
        total += fastest(v);
    }
    return total;
}

/**
 * Run every spec once, back to back. With @p traced, the oracle is
 * timed and each run's spans are appended to @p spans under run id
 * "<batch>/<spec id>".
 */
BatchSummary
runBatch(const std::vector<RunSpec> &specs, bool traced,
         std::size_t batch_index, std::vector<Span> &spans,
         std::vector<std::string> &problems)
{
    BatchSummary b;
    const auto t0 = Clock::now();
    for (const RunSpec &spec : specs) {
        RunRecord r = timedRun(spec, traced);
        ++b.attempted;
        RunTimes &t = b.times.emplace_back();
        t.run = r.runSeconds();
        if (!r.ok) {
            ++b.failed;
            problems.push_back(r.id + ": run failed: " + r.error);
            b.digests.push_back(0);
            continue;
        }
        t.machine = secondsBetween(r.machineStart, r.machineEnd);
        t.oracle = secondsBetween(r.machineEnd, r.oracleEnd);
        t.kernel = secondsBetween(r.oracleEnd, r.kernelEnd);
        t.workload = secondsBetween(r.kernelEnd, r.workloadEnd);
        t.inOracle = r.oracleSeconds;
        b.counts.add(countsOf(r, problems));
        b.digests.push_back(digestOf(r.result));

        if (traced) {
            const std::string run_id =
                std::to_string(batch_index) + "/" + r.id;
            const int root = static_cast<int>(spans.size());
            spans.push_back({"experiment.run", run_id, -1, r.start, r.end});
            spans.push_back({"setup.machine", run_id, root,
                             r.machineStart, r.machineEnd});
            spans.push_back({"setup.oracle", run_id, root, r.machineEnd,
                             r.oracleEnd});
            spans.push_back({"setup.kernel", run_id, root, r.oracleEnd,
                             r.kernelEnd});
            Span work{"workload.run", run_id, root, r.kernelEnd,
                      r.workloadEnd};
            work.oracleCalls = r.tap.total();
            work.oracleSeconds = r.oracleSeconds;
            spans.push_back(work);
        }
    }
    b.sweepSeconds = secondsBetween(t0, Clock::now());
    return b;
}

/**
 * Compare the instrumented run of every spec with the public
 * ExperimentEngine path: same cycles, same oracle counts, and every
 * counter the instrumented run reports has the engine's value.
 */
void
checkAgainstEngine(const std::vector<RunSpec> &specs,
                   const std::vector<RunOutcome> &engine,
                   std::vector<std::string> &problems)
{
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const RunOutcome &ref = engine[i];
        if (!ref.ok) {
            problems.push_back(ref.id + ": engine run failed: " +
                               ref.error);
            continue;
        }
        const RunRecord r = timedRun(specs[i], false);
        if (!r.ok) {
            problems.push_back(r.id + ": run failed: " + r.error);
            continue;
        }
        bool same = r.result.cycles == ref.result.cycles &&
                    r.result.oracleChecked == ref.result.oracleChecked &&
                    r.result.oracleViolations ==
                        ref.result.oracleViolations;
        for (const auto &[name, value] : r.result.stats) {
            auto it = ref.result.stats.find(name);
            same &= it != ref.result.stats.end() && it->second == value;
        }
        if (!same) {
            problems.push_back(r.id + ": instrumented run differs from "
                                      "the ExperimentEngine run");
        }
    }
}

// ----------------------------------------------------------------------
// Layer probes: isolated, timed calls into public functions
// ----------------------------------------------------------------------

/** Timed host time and operation count accumulated by a probe. */
struct Sample
{
    Clock::duration timed{};
    std::uint64_t ops = 0;
};

/**
 * Host nanoseconds per operation: the fastest of kProbeReps
 * repetitions (as typicalSeconds() does for runs).
 * @p block does a fixed amount of work, times its own timed section
 * into the Sample (untimed preparation may surround it), and is
 * called until the repetition has lasted kProbeRepSeconds.
 */
template <typename Block>
double
probeNs(Block &&block)
{
    std::vector<double> per_rep;
    for (int rep = 0; rep < kProbeReps; ++rep) {
        Sample s;
        const auto t0 = Clock::now();
        do {
            block(s);
        } while (secondsBetween(t0, Clock::now()) < kProbeRepSeconds);
        per_rep.push_back(toSeconds(s.timed) * 1e9 / double(s.ops));
    }
    return fastest(per_rep);
}

/** Σ present / absent line operations over every cache of @p m. */
struct LineOps
{
    std::uint64_t present = 0;
    std::uint64_t absent = 0;
};

LineOps
lineOpsOf(Machine &m)
{
    LineOps ops;
    for (const auto &[name, value] : m.stats().snapshot()) {
        if (name.ends_with("_present"))
            ops.present += value;
        else if (name.ends_with("_absent"))
            ops.absent += value;
    }
    return ops;
}

struct ProbeTimes
{
    double cacheHit = 0;
    double cacheMiss = 0;
    double lineOpPresent = 0;
    double lineOpAbsent = 0;
    double busTxn = 0;
    double tlbSame = 0;
    double tlbAlt = 0;
    double dmaWord = 0;
    double dmaWordSnooped = 0;
    double fault = 0;
    double dmaPrep = 0;
    double oracleCall = 0;
    /** fault / dmaPrep less the cache line operations they issue, so
     *  core.est_s does not count what cache.est_s already counts. */
    double faultNet = 0;
    double dmaPrepNet = 0;
};

/** Per-call ns of a core probe minus its line operations' share. */
double
netOfLineOps(double ns, const LineOps &ops, std::uint64_t calls,
             const ProbeTimes &p)
{
    const double line_ns =
        (double(ops.present) * p.lineOpPresent +
         double(ops.absent) * p.lineOpAbsent) /
        double(calls);
    return std::max(0.0, ns - line_ns);
}

/** A Cpu on @p m whose faults go to @p pmap, in address space 1. */
std::unique_ptr<Cpu>
probeCpu(Machine &m, Pmap &pmap)
{
    auto cpu = std::make_unique<Cpu>(m);
    cpu->setSpace(1);
    cpu->setFaultHandler([&pmap](const Fault &f) {
        return pmap.resolveConsistencyFault(f.address, f.access);
    });
    return cpu;
}

ProbeTimes
runProbes(const MachineParams &mp)
{
    ProbeTimes p;
    const std::uint32_t line = mp.dcacheLineBytes;
    const std::uint32_t page = mp.pageBytes;
    const std::uint32_t lines_per_page = page / line;
    constexpr std::uint32_t kLines = 256;

    {
        // Cache::read on resident lines.
        Machine m(mp);
        Cache &c = m.dcache();
        for (std::uint32_t i = 0; i < kLines; ++i)
            c.read(VirtAddr(i * line), PhysAddr(i * line));
        p.cacheHit = probeNs([&](Sample &s) {
            std::uint64_t sum = 0;
            const auto t0 = Clock::now();
            for (std::uint32_t i = 0; i < kLines; ++i)
                sum += c.read(VirtAddr(i * line), PhysAddr(i * line));
            s.timed += Clock::now() - t0;
            s.ops += kLines;
            probeSink = probeSink + sum;
        });
    }
    {
        // Cache::read misses: ways + 1 physical lines, one cache size
        // apart, contend for one set, so every read misses and fills.
        Machine m(mp);
        Cache &c = m.dcache();
        const std::uint32_t contenders = mp.dcacheWays + 1;
        p.cacheMiss = probeNs([&](Sample &s) {
            std::uint64_t sum = 0;
            const auto t0 = Clock::now();
            for (std::uint32_t i = 0; i < kLines; ++i) {
                sum += c.read(VirtAddr(0),
                              PhysAddr((i % contenders) * mp.dcacheBytes));
            }
            s.timed += Clock::now() - t0;
            s.ops += kLines;
            probeSink = probeSink + sum;
        });
    }
    {
        // Cache::flushLine over one page, lines present (filled untimed
        // first) and then absent.
        Machine m(mp);
        Cache &c = m.dcache();
        p.lineOpPresent = probeNs([&](Sample &s) {
            for (std::uint32_t i = 0; i < lines_per_page; ++i)
                c.read(VirtAddr(i * line), PhysAddr(i * line));
            std::uint64_t present = 0;
            const auto t0 = Clock::now();
            for (std::uint32_t i = 0; i < lines_per_page; ++i)
                present += c.flushLine(VirtAddr(i * line),
                                       PhysAddr(i * line));
            s.timed += Clock::now() - t0;
            s.ops += lines_per_page;
            probeSink = probeSink + present;
        });
        p.lineOpAbsent = probeNs([&](Sample &s) {
            std::uint64_t present = 0;
            const auto t0 = Clock::now();
            for (std::uint32_t i = 0; i < lines_per_page; ++i)
                present += c.flushLine(VirtAddr(i * line),
                                       PhysAddr(i * line));
            s.timed += Clock::now() - t0;
            s.ops += lines_per_page;
            probeSink = probeSink + present;
        });
    }
    {
        // Cache::read miss on CPU 0 while CPU 1 holds the line
        // Modified: a bus read with an intervention. The stores that
        // make CPU 1's copies Modified again are untimed.
        MachineParams mp2 = mp;
        mp2.numCpus = std::max<std::uint32_t>(mp2.numCpus, 2);
        mp2.cpuCoherence = MachineParams::CpuCoherence::Mesi;
        Machine m(mp2);
        Cache &c0 = m.dcache(0);
        Cache &c1 = m.dcache(1);
        p.busTxn = probeNs([&](Sample &s) {
            for (std::uint32_t i = 0; i < kLines; ++i)
                c1.write(VirtAddr(i * line), PhysAddr(i * line), i);
            std::uint64_t sum = 0;
            const auto t0 = Clock::now();
            for (std::uint32_t i = 0; i < kLines; ++i)
                sum += c0.read(VirtAddr(i * line), PhysAddr(i * line));
            s.timed += Clock::now() - t0;
            s.ops += kLines;
            probeSink = probeSink + sum;
        });
    }
    {
        // Tlb::translate on one resident page, then alternating
        // between two resident pages (the copyPage pattern).
        Machine m(mp);
        const SpaceVa a(1, VirtAddr(page));
        const SpaceVa b(1, VirtAddr(2 * page));
        m.pageTable().enter(a, 2, Protection::readWrite());
        m.pageTable().enter(b, 3, Protection::readWrite());
        Tlb &tlb = m.tlb();
        tlb.translate(a);
        tlb.translate(b);
        p.tlbSame = probeNs([&](Sample &s) {
            std::uint64_t sum = 0;
            const auto t0 = Clock::now();
            for (std::uint32_t i = 0; i < kLines; ++i)
                sum += tlb.translate(a)->frame;
            s.timed += Clock::now() - t0;
            s.ops += kLines;
            probeSink = probeSink + sum;
        });
        p.tlbAlt = probeNs([&](Sample &s) {
            std::uint64_t sum = 0;
            const auto t0 = Clock::now();
            for (std::uint32_t i = 0; i < kLines; ++i)
                sum += tlb.translate(i % 2 ? b : a)->frame;
            s.timed += Clock::now() - t0;
            s.ops += kLines;
            probeSink = probeSink + sum;
        });
    }
    {
        // DmaEngine::deviceWrite + deviceRead of one page, without and
        // with the caches snooped.
        const std::uint32_t words = page / 4;
        std::vector<std::uint32_t> in(words, 7), out(words);
        const auto dma_probe = [&](bool snoops) {
            MachineParams q = mp;
            q.dmaSnoops = snoops;
            Machine m(q);
            const PhysAddr pa = m.frameAddr(3);
            return probeNs([&](Sample &s) {
                const auto t0 = Clock::now();
                m.dma().deviceWrite(pa, in.data(), words);
                m.dma().deviceRead(pa, out.data(), words);
                s.timed += Clock::now() - t0;
                s.ops += 2 * words;
                probeSink = probeSink + out[0];
            });
        };
        p.dmaWord = dma_probe(false);
        p.dmaWordSnooped = dma_probe(true);
    }
    {
        // Consistency-fault ping-pong: stores alternate between two
        // unaligned mappings of one frame under the paper's policy.
        Machine m(mp);
        auto pmap = Pmap::create(m, PolicyConfig::configF());
        auto cpu = probeCpu(m, *pmap);
        const VirtAddr va1(page), va2(2 * page);
        pmap->enter(SpaceVa(1, va1), 2, Protection::all(),
                    AccessType::Store, {});
        pmap->enter(SpaceVa(1, va2), 2, Protection::all(),
                    AccessType::Load, {});
        constexpr std::uint32_t kStores = 64;
        const LineOps before = lineOpsOf(m);
        std::uint64_t calls = 0;
        p.fault = probeNs([&](Sample &s) {
            const auto t0 = Clock::now();
            for (std::uint32_t i = 0; i < kStores; ++i)
                cpu->store(i % 2 ? va1 : va2, i);
            s.timed += Clock::now() - t0;
            s.ops += kStores;
            calls += kStores;
        });
        const LineOps after = lineOpsOf(m);
        p.faultNet = netOfLineOps(
            p.fault,
            {after.present - before.present, after.absent - before.absent},
            calls, p);
    }
    {
        // Pmap::dmaRead of a frame whose every line was just dirtied
        // through a mapping (the stores are untimed).
        Machine m(mp);
        auto pmap = Pmap::create(m, PolicyConfig::configF());
        auto cpu = probeCpu(m, *pmap);
        const VirtAddr va(page);
        pmap->enter(SpaceVa(1, va), 2, Protection::all(),
                    AccessType::Store, {});
        LineOps timed_ops;
        std::uint64_t calls = 0;
        p.dmaPrep = probeNs([&](Sample &s) {
            for (std::uint32_t i = 0; i < lines_per_page; ++i)
                cpu->store(va.plus(std::uint64_t(i) * line), i);
            const LineOps before = lineOpsOf(m);
            const auto t0 = Clock::now();
            pmap->dmaRead(2, true);
            s.timed += Clock::now() - t0;
            const LineOps after = lineOpsOf(m);
            timed_ops.present += after.present - before.present;
            timed_ops.absent += after.absent - before.absent;
            s.ops += 1;
            ++calls;
        });
        p.dmaPrepNet = netOfLineOps(p.dmaPrep, timed_ops, calls, p);
    }
    {
        // ConsistencyOracle store + load pairs through the observer
        // interface, spread over simulated memory.
        const std::uint64_t bytes = mp.numFrames * mp.pageBytes;
        ConsistencyOracle oracle(bytes);
        MemoryObserver &obs = oracle;
        std::uint64_t next = 0;
        p.oracleCall = probeNs([&](Sample &s) {
            const auto t0 = Clock::now();
            for (std::uint32_t i = 0; i < kLines; ++i) {
                const PhysAddr pa((next += 4100) % bytes & ~3ULL);
                obs.cpuStore(pa, i);
                obs.cpuLoad(pa, i);
            }
            s.timed += Clock::now() - t0;
            s.ops += 2 * kLines;
        });
        if (oracle.violationCount() != 0)
            probeSink = probeSink + 1;
    }
    return p;
}

// ----------------------------------------------------------------------
// Output
// ----------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/** Per span name: count, total and self host seconds. Self time is a
 *  span's duration less its children's (and, for workload.run, less
 *  the aggregated oracle time). */
void
printSelfTimes(const std::vector<Span> &spans)
{
    std::vector<double> child(spans.size(), 0);
    for (const Span &s : spans) {
        if (s.parent >= 0)
            child[s.parent] += secondsBetween(s.start, s.end);
    }
    struct Row
    {
        std::uint64_t count = 0;
        double total = 0;
        double self = 0;
    };
    std::vector<std::string> order;
    std::map<std::string, Row> rows;
    double oracle = 0;
    std::uint64_t oracle_calls = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const double d = secondsBetween(s.start, s.end);
        if (!rows.count(s.name))
            order.push_back(s.name);
        Row &row = rows[s.name];
        ++row.count;
        row.total += d;
        row.self += d - child[i] - s.oracleSeconds;
        oracle += s.oracleSeconds;
        oracle_calls += s.oracleCalls;
    }
    std::printf("%-24s %8s %12s %12s\n", "span", "count", "total_s",
                "self_s");
    for (const std::string &name : order) {
        const Row &row = rows[name];
        std::printf("%-24s %8llu %12.6f %12.6f\n", name.c_str(),
                    (unsigned long long)row.count, row.total, row.self);
    }
    std::printf("%-24s %8llu %12.6f %12.6f   (aggregated calls, inside "
                "workload.run)\n",
                "oracle", (unsigned long long)oracle_calls, oracle,
                oracle);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

/** Chrome trace-event JSON (opens in Perfetto or chrome://tracing). */
bool
writeTrace(const std::string &path, const std::vector<Span> &spans,
           const std::string &workload, std::uint64_t seed)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const Clock::time_point origin =
        spans.empty() ? Clock::now() : spans.front().start;
    const auto us = [&](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin)
            .count();
    };
    std::fprintf(f, "{\"otherData\":{\"workload\":%s,\"seed\":%llu},\n",
                 jsonString(workload).c_str(), (unsigned long long)seed);
    std::fprintf(f, "\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"run_id\":%s,\"parent\":\"%s\"",
                     s.name, us(s.start), us(s.end) - us(s.start),
                     jsonString(s.runId).c_str(),
                     s.parent >= 0 ? spans[s.parent].name : "");
        if (s.oracleCalls > 0) {
            std::fprintf(f, ",\"oracle_calls\":%llu,\"oracle_s\":%.9f",
                         (unsigned long long)s.oracleCalls,
                         s.oracleSeconds);
        }
        std::fprintf(f, "}}%s\n", i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out PATH]\nworkloads:",
                 argv0);
    for (const BenchWorkload &w : benchWorkloads())
        std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, "\n");
}

bool
parseUnsigned(const char *text, std::uint64_t &out)
{
    char *end = nullptr;
    if (text == nullptr || *text == '\0' || *text == '-')
        return false;
    out = std::strtoull(text, &end, 10);
    return *end == '\0';
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string workload_name;
    std::uint64_t seed = 0, seconds = 0, trace = 2;
    std::string trace_out;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *value = i + 1 < argc ? argv[i + 1] : nullptr;
        bool ok = value != nullptr;
        if (arg == "--workload" && ok)
            workload_name = value;
        else if (arg == "--seed" && ok)
            ok = have_seed = parseUnsigned(value, seed);
        else if (arg == "--seconds" && ok)
            ok = parseUnsigned(value, seconds) && seconds > 0;
        else if (arg == "--trace" && ok)
            ok = parseUnsigned(value, trace) && trace <= 1;
        else if (arg == "--trace-out" && ok)
            trace_out = value;
        else
            ok = false;
        if (!ok) {
            usage(argv[0]);
            return 2;
        }
        ++i;
    }
    const std::vector<BenchWorkload> workloads = benchWorkloads();
    auto wl = std::find_if(workloads.begin(), workloads.end(),
                           [&](const BenchWorkload &w) {
                               return w.name == workload_name;
                           });
    if (wl == workloads.end() || !have_seed || seconds == 0 || trace > 1) {
        usage(argv[0]);
        return 2;
    }
    const bool traced_mode = trace == 1;

    const std::vector<RunSpec> specs = wl->specs(seed);
    std::vector<std::string> problems;

    // Reference pass through the public engine (serial, one thread),
    // which doubles as warm-up: the instrumented runs must reproduce
    // it exactly.
    const std::vector<RunOutcome> engine = ExperimentEngine().run(specs);
    checkAgainstEngine(specs, engine, problems);

    ProbeTimes probes;
    if (traced_mode)
        probes = runProbes(specs.front().machine);

    // Measurement: batches back to back until the time is up. In the
    // traced mode untraced and traced batches alternate, so the
    // tracing overhead is measured under the same conditions.
    std::vector<BatchSummary> untraced, traced;
    std::vector<Span> spans;
    const auto t0 = Clock::now();
    for (std::size_t batch = 0;; ++batch) {
        const bool traced_batch = traced_mode && batch % 2 == 1;
        BatchSummary b =
            runBatch(specs, traced_batch, batch, spans, problems);
        const BatchSummary &first =
            untraced.empty() ? b : untraced.front();
        if (b.digests != first.digests) {
            problems.push_back(
                std::string("simulated-result digest of batch ") +
                std::to_string(batch) +
                (traced_batch ? " (traced)" : " (untraced)") +
                " differs from the first batch");
        }
        (traced_batch ? traced : untraced).push_back(std::move(b));
        const bool enough =
            untraced.size() >= kMinBatches &&
            (!traced_mode || traced.size() >= kMinBatches);
        if (!problems.empty() ||
            (enough && secondsBetween(t0, Clock::now()) >=
                           double(seconds)))
            break;
    }

    const BatchSummary &ref = untraced.front();
    const Counts &c = ref.counts;
    std::uint64_t attempted = 0, failed = 0;
    for (const auto *set : {&untraced, &traced}) {
        for (const BatchSummary &b : *set) {
            attempted += b.attempted;
            failed += b.failed;
        }
    }

    // Workload shape: each workload keeps loading the layer it exists
    // to stress.
    if ((c.busTxns > 0) != wl->expectBus)
        problems.push_back("shape: bus.transactions > 0 must hold only "
                           "on mesi-2cpu");
    if (wl->expectLineOpMajority && 2 * c.lineOps() <= c.refs())
        problems.push_back("shape: line ops are not the majority of "
                           "refs");
    if (wl->expectDma && c.dmaWords == 0)
        problems.push_back("shape: no DMA words moved");

    std::printf("workload %s seed %llu: %zu runs per batch, %zu "
                "untraced + %zu traced batches\n",
                wl->name.c_str(), (unsigned long long)seed, specs.size(),
                untraced.size(), traced.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        std::printf("digest %016llx %s\n",
                    (unsigned long long)ref.digests[i],
                    specs[i].id.c_str());
    }

    // Batch-level host times: the fastest batch, for the reason given
    // at typicalSeconds().
    const auto batchFastest = [](const std::vector<BatchSummary> &set,
                                  auto field) {
        std::vector<double> v;
        for (const BatchSummary &b : set)
            v.push_back(field(b));
        return fastest(v);
    };
    const auto sweep = [](const BatchSummary &b) { return b.sweepSeconds; };
    const auto run = [](const RunTimes &t) { return t.run; };

    std::vector<Metric> metrics;
    if (!traced_mode) {
        metrics = {
            {"refs_per_host_s",
             ratio(double(c.refs()), typicalSeconds(untraced, run)), "1/s"},
            {"sweep_s", batchFastest(untraced, sweep), "s"},
            {"setup_s",
             typicalSeconds(untraced,
                            [](const RunTimes &t) { return t.setup(); }),
             "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"sim_cycles", double(c.cycles), "cycles"},
            {"success_rate",
             1.0 - ratio(double(failed), double(attempted)), "ratio"},
        };
    } else {
        const Counts &tc = traced.front().counts;
        const double run_s = typicalSeconds(traced, run);
        const double workload_s = typicalSeconds(
            traced, [](const RunTimes &t) { return t.workload; });
        const double oracle_s = typicalSeconds(
            traced, [](const RunTimes &t) { return t.inOracle; });
        const double overhead_s =
            batchFastest(traced, [](const BatchSummary &b) {
                double in_runs = 0;
                for (const RunTimes &t : b.times)
                    in_runs += t.run;
                return b.sweepSeconds - in_runs;
            });
        const ProbeTimes &p = probes;
        const double ns = 1e-9;
        const double cache_est =
            (double(tc.cacheHits) * p.cacheHit +
             double(tc.cacheMisses) * p.cacheMiss +
             double(tc.linePresent) * p.lineOpPresent +
             double(tc.lineAbsent) * p.lineOpAbsent) *
            ns;
        const double core_est =
            (double(tc.consistencyFaults) * p.faultNet +
             double(tc.dmaTransfers) * p.dmaPrepNet) *
            ns;
        const double bus_est =
            double(tc.busTxns) * std::max(0.0, p.busTxn - p.cacheMiss) *
            ns;
        const double tlb_translations = double(tc.tlbHits + tc.tlbMisses);
        const double tlb_est = tlb_translations * p.tlbSame * ns;
        const double dma_est =
            (double(tc.dmaWords - tc.dmaWordsSnooped) * p.dmaWord +
             double(tc.dmaWordsSnooped) * p.dmaWordSnooped) *
            ns;
        const double cache_accesses = double(tc.cpuRefs);

        metrics = {
            {"experiment.run_s", run_s, "s"},
            {"experiment.overhead_s", overhead_s, "s"},
            {"setup.machine_s",
             typicalSeconds(traced,
                            [](const RunTimes &t) { return t.machine; }),
             "s"},
            {"setup.oracle_s",
             typicalSeconds(traced,
                            [](const RunTimes &t) { return t.oracle; }),
             "s"},
            {"setup.kernel_s",
             typicalSeconds(traced,
                            [](const RunTimes &t) { return t.kernel; }),
             "s"},
            {"mem.phys_bytes", double(tc.physBytes), "bytes"},
            {"workload.run_s", workload_s, "s"},
            {"workload.unattributed_s",
             workload_s - oracle_s - cache_est - core_est - bus_est -
                 tlb_est - dma_est,
             "s"},
            {"os.syscalls", double(tc.syscalls), "count"},
            {"os.faults", double(tc.osFaults), "count"},
            {"os.ipc_transfers", double(tc.ipcTransfers), "count"},
            {"os.pages_prepared", double(tc.pagesPrepared), "count"},
            {"core.page_flushes", double(tc.pageFlushes), "count"},
            {"core.page_purges", double(tc.pagePurges), "count"},
            {"core.consistency_faults", double(tc.consistencyFaults),
             "count"},
            {"core.ns_fault", p.fault, "ns"},
            {"core.ns_dma_prep", p.dmaPrep, "ns"},
            {"core.est_s", core_est, "s"},
            {"cache.accesses", cache_accesses, "count"},
            {"cache.hit_ratio",
             ratio(double(tc.cacheHits),
                   double(tc.cacheHits + tc.cacheMisses)),
             "ratio"},
            {"cache.fills", double(tc.fills), "count"},
            {"cache.write_backs", double(tc.writeBacks), "count"},
            {"cache.line_ops", double(tc.lineOps()), "count"},
            {"cache.line_op_useful_ratio",
             ratio(double(tc.linePresent), double(tc.lineOps())),
             "ratio"},
            {"cache.ns_hit", p.cacheHit, "ns"},
            {"cache.ns_miss", p.cacheMiss, "ns"},
            {"cache.ns_line_op_present", p.lineOpPresent, "ns"},
            {"cache.ns_line_op_absent", p.lineOpAbsent, "ns"},
            {"cache.est_s", cache_est, "s"},
            {"bus.transactions", double(tc.busTxns), "count"},
            {"bus.interventions", double(tc.busInterventions), "count"},
            {"bus.invalidations", double(tc.busInvalidations), "count"},
            {"bus.ns_txn", p.busTxn, "ns"},
            {"bus.est_s", bus_est, "s"},
            {"tlb.translations", tlb_translations, "count"},
            {"tlb.miss_ratio",
             ratio(double(tc.tlbMisses), tlb_translations), "ratio"},
            {"tlb.ns_translate_same", p.tlbSame, "ns"},
            {"tlb.ns_translate_alt", p.tlbAlt, "ns"},
            {"tlb.est_s", tlb_est, "s"},
            {"mmu.walks", double(tc.walks), "count"},
            {"dma.words", double(tc.dmaWords), "count"},
            {"dma.transfers", double(tc.dmaTransfers), "count"},
            {"dma.ns_word", p.dmaWord, "ns"},
            {"dma.ns_word_snooped", p.dmaWordSnooped, "ns"},
            {"dma.est_s", dma_est, "s"},
            {"oracle.checks", double(tc.oracleChecks), "count"},
            {"oracle.s", oracle_s, "s"},
            {"oracle.ns_call", p.oracleCall, "ns"},
            {"oracle.share", ratio(oracle_s, workload_s), "ratio"},
            {"trace.overhead_ratio",
             ratio(run_s, typicalSeconds(untraced, run)), "ratio"},
        };

        if (!trace_out.empty() &&
            !writeTrace(trace_out, spans, wl->name, seed))
            problems.push_back("cannot write trace " + trace_out);
        std::printf("trace: %zu spans from %zu traced batches -> %s\n",
                    spans.size(), traced.size(),
                    trace_out.empty() ? "(not written)"
                                      : trace_out.c_str());
        printSelfTimes(spans);
    }

    for (const Metric &m : metrics) {
        std::printf("metric %-28s %.9g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    for (const std::string &problem : problems)
        std::fprintf(stderr, "CHECK FAILED: %s\n", problem.c_str());

    const bool correct = problems.empty();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false", (unsigned long long)attempted,
                (unsigned long long)(correct ? failed
                                             : std::max<std::uint64_t>(
                                                   failed, 1)));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    return correct ? 0 : 1;
}
