/**
 * @file
 * The paper-sweep benchmark driver. It links dttsim and bench_harness
 * and times calls into each layer's public functions from outside.
 *
 *   perfbench_driver --workload {sweep-cold,sweep-warm,characterize}
 *                    [--seed N] [--seconds S] [--trace 0|1]
 *                    [--commit ID] [--work DIR]
 *   perfbench_driver --self-test
 *   perfbench_driver --list-digests [--seed N]
 *
 * A run sets up (three times; setup_s is the median), then repeats
 * whole rounds of its workload until --seconds have passed (at least
 * one round), checks the outputs, and prints every metric by name
 * with its unit. The last line of standard output is one JSON object
 * with the keys correct, attempted, failed and metrics. See
 * perfbench/README.md for the workloads, metrics and checks.
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cpuid.h>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analyzer.h"
#include "checks.h"
#include "common/json.h"
#include "cpu/executor.h"
#include "harness.h"
#include "profile/advisor.h"
#include "profile/redundancy.h"
#include "profile/reuse.h"
#include "profile/shadowprof.h"
#include "sim/engine.h"
#include "sim/resultstore.h"
#include "sim/simulator.h"
#include "selftest.h"
#include "trace.h"
#include "traffic.h"

namespace fs = std::filesystem;
namespace json = dttsim::json;
namespace cpu = dttsim::cpu;

using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * The Harrell-Davis estimate of the @p p-th percentile: a weighted
 * mean of every order statistic, with Beta(p(n+1), (1-p)(n+1))
 * weights. The tail of the sweep's job latencies has a gap (the
 * co-runner jobs of fig14) right at its 95th percentile, where a
 * single order statistic jumps between clusters from run to run;
 * the weighted mean moves smoothly instead. Falls back to the
 * nearest rank when the Beta density is unbounded (n < 20 at p95).
 */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double n = static_cast<double>(v.size());
    const double a = p / 100.0 * (n + 1.0);
    const double b = (1.0 - p / 100.0) * (n + 1.0);
    if (a <= 1.0 || b <= 1.0) {
        std::size_t rank =
            static_cast<std::size_t>(std::ceil(p / 100.0 * n));
        return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
    }
    const double logBeta =
        std::lgamma(a) + std::lgamma(b) - std::lgamma(a + b);
    auto density = [&](double t) {
        if (t <= 0.0 || t >= 1.0)
            return 0.0;
        return std::exp((a - 1.0) * std::log(t)
                        + (b - 1.0) * std::log1p(-t) - logBeta);
    };
    // Simpson's rule over each order statistic's interval.
    constexpr int kSteps = 16;
    double sum = 0.0, weights = 0.0;
    for (std::size_t i = 0; i < v.size(); ++i) {
        const double lo = static_cast<double>(i) / n;
        const double h = 1.0 / (n * kSteps);
        double w = density(lo) + density(lo + kSteps * h);
        for (int k = 1; k < kSteps; ++k)
            w += (k % 2 ? 4.0 : 2.0) * density(lo + k * h);
        w *= h / 3.0;
        sum += w * v[i];
        weights += w;
    }
    return sum / weights;
}

double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

int
cpusAvailable()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

std::string
cpuModel()
{
    unsigned regs[12] = {};
    unsigned max = __get_cpuid_max(0x80000000u, nullptr);
    if (max < 0x80000004u)
        return "unknown";
    for (unsigned i = 0; i < 3; ++i)
        __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    s.erase(0, s.find_first_not_of(' '));
    return s;
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/** Run fn(i) for i in [0, n) on up to @p threads threads; the first
 *  exception any call throws is rethrown once all threads joined. */
void
parallelFor(std::size_t n, int threads,
            const std::function<void(std::size_t)> &fn)
{
    std::atomic<std::size_t> next{0};
    std::mutex errorMutex;
    std::exception_ptr error;  // guarded by errorMutex
    auto worker = [&] {
        for (std::size_t i; (i = next.fetch_add(1)) < n;) {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errorMutex);
                if (!error)
                    error = std::current_exception();
            }
        }
    };
    std::vector<std::thread> pool;
    const std::size_t k = std::min<std::size_t>(
        n, static_cast<std::size_t>(std::max(threads, 1)));
    for (std::size_t t = 1; t < k; ++t)
        pool.emplace_back(worker);
    worker();
    for (std::thread &t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

/** Pin @p job's co-runners to contexts 1..k, as the engine does. */
void
startCoRunners(sim::Simulator &s, const sim::SimJob &job)
{
    for (std::size_t i = 0; i < job.coRunnerEntries.size(); ++i)
        s.core().startCoRunner(static_cast<dttsim::CtxId>(i + 1),
                               job.coRunnerEntries[i]);
}

/** One SimJob run as the engine runs it, on the calling thread. */
sim::SimResult
simulate(const sim::SimJob &job)
{
    sim::Simulator s(job.config, job.program);
    startCoRunners(s, job);
    return s.run();
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 12345;
    double seconds = 10.0;
    bool trace = false;
    bool selfTest = false;
    bool listDigests = false;
    std::string commit = "unknown";
    std::string work = ".bench_build/perfbench-work";
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver "
                 "--workload {sweep-cold,sweep-warm,characterize} "
                 "[--seed N] [--seconds S] [--trace 0|1] [--commit ID] "
                 "[--work DIR] | --self-test | --list-digests "
                 "[--seed N]\n",
                 msg.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        std::string value;
        const std::size_t eq = flag.find('=');
        if (eq != std::string::npos) {
            value = flag.substr(eq + 1);
            flag.resize(eq);
        }
        auto take = [&]() {
            if (eq != std::string::npos)
                return value;
            if (i + 1 >= argc)
                usage(flag + " needs a value");
            return std::string(argv[++i]);
        };
        try {
            if (flag == "--workload")
                a.workload = take();
            else if (flag == "--seed")
                a.seed = std::stoull(take());
            else if (flag == "--seconds")
                a.seconds = std::stod(take());
            else if (flag == "--trace")
                a.trace = std::stoi(take()) != 0;
            else if (flag == "--commit")
                a.commit = take();
            else if (flag == "--work")
                a.work = take();
            else if (flag == "--self-test")
                a.selfTest = true;
            else if (flag == "--list-digests")
                a.listDigests = true;
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error &) {
            usage("bad value for " + flag);
        }
    }
    return a;
}

/** What one measured round delivered. */
struct Round
{
    double wall = 0.0;             ///< seconds
    std::uint64_t results = 0;     ///< job results / programs
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    double instructions = 0.0;
    std::vector<double> latencies; ///< per operation, seconds
    // Engine counts of the round's Engine::run calls.
    std::uint64_t executed = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t dedupHits = 0;
    double busySeconds = 0.0;  ///< wallSeconds of executed jobs
};

/** A metric as printed: value and unit. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

const char *kWorkloads[] = {"sweep-cold", "sweep-warm", "characterize"};

class Bench
{
  public:
    Bench(const Args &args, int threads)
        : threads_(threads),
          harnessArgv_{"perfbench"},
          harness_(1, harnessArgv_,
                   {"perfbench", "paper-sweep benchmark driver"})
    {
        params_.seed = args.seed;
        work_ = args.work + "/" + std::to_string(::getpid());
        fs::remove_all(work_);
        fs::create_directories(work_);
    }

    ~Bench()
    {
        std::error_code ec;
        fs::remove_all(work_, ec);
    }

    Bench(const Bench &) = delete;
    Bench &operator=(const Bench &) = delete;

    /** One set-up of @p workload; returns its host seconds. */
    double
    setup(const std::string &workload)
    {
        auto t0 = Clock::now();
        if (workload == "characterize") {
            subjects_ = characterizeSubjects(params_);
        } else {
            traffic_ = buildTraffic(harness_, params_);
            coldJobs_ = traffic_.sampleJobs();
            warmBatches_ = traffic_.sampledBatches();
        }
        return since(t0);
    }

    /** Simulate the sample into a fresh store; the warm workload's
     *  store and the reference results of every check. */
    void
    fill(const std::string &dir)
    {
        Round r = coldRound(dir);
        attemptedSetup_ += r.attempted;
        failedSetup_ += r.failed;
        warmDir_ = dir;
        fillResults_.clear();
        for (const sim::JobResult &jr : lastCold_)
            fillResults_[jr.digest] = jr.result;
    }

    /** sweep-cold: the sampled union through one Engine::run with
     *  nproc threads against a fresh read-write store, claims on. */
    Round
    coldRound(const std::string &dir)
    {
        fs::remove_all(dir);
        Round r;
        Span round("round.sweep-cold", "driver");
        auto t0 = Clock::now();
        {
            std::unique_ptr<sim::ResultStore> store;
            {
                Span s("ResultStore::ResultStore", "sim.resultstore");
                store = std::make_unique<sim::ResultStore>(
                    dir, sim::ResultStore::Mode::ReadWrite);
            }
            sim::EngineConfig cfg;
            cfg.numThreads = threads_;
            cfg.store = store.get();
            cfg.claimInFlight = true;
            sim::Engine engine(cfg);
            {
                Span s("Engine::run", "sim.engine");
                lastCold_ = engine.run(coldJobs_);
            }
            r.executed = engine.executed();
            r.cacheHits = engine.cacheHits();
            storeRecords_ = store->records();
            storeBytes_ = store->recordBytes();
            storeCorrupt_ = store->corruptRecords();
            Span s("ResultStore::~ResultStore", "sim.resultstore");
            store.reset();
        }
        r.wall = since(t0);
        for (const sim::JobResult &jr : lastCold_) {
            ++r.attempted;
            ++r.results;
            if (jr.status != sim::JobStatus::Ok)
                ++r.failed;
            if (jr.deduplicated)
                ++r.dedupHits;
            if (!jr.cached && !jr.deduplicated) {
                r.latencies.push_back(jr.wallSeconds);
                r.busySeconds += jr.wallSeconds;
                r.instructions +=
                    static_cast<double>(jr.result.totalCommitted);
            }
        }
        coldRounds_.push_back(lastCold_);
        return r;
    }

    /** sweep-warm: each figure's sampled batch as its own
     *  Engine::run against the filled store, opened afresh per
     *  figure, as the figure binaries do under run_all_figures. */
    Round
    warmRound()
    {
        Round r;
        Span round("round.sweep-warm", "driver");
        for (const std::vector<sim::SimJob> &batch : warmBatches_) {
            if (batch.empty())
                continue;
            std::vector<sim::JobResult> results;
            std::uint64_t executed = 0;
            auto t0 = Clock::now();
            {
                std::unique_ptr<sim::ResultStore> store;
                {
                    Span s("ResultStore::ResultStore",
                           "sim.resultstore");
                    store = std::make_unique<sim::ResultStore>(
                        warmDir_, sim::ResultStore::Mode::ReadWrite);
                }
                sim::EngineConfig cfg;
                cfg.numThreads = threads_;
                cfg.store = store.get();
                cfg.claimInFlight = true;
                sim::Engine engine(cfg);
                {
                    Span s("Engine::run", "sim.engine");
                    results = engine.run(batch);
                }
                executed = engine.executed();
                r.cacheHits += engine.cacheHits();
                Span s("ResultStore::~ResultStore", "sim.resultstore");
                store.reset();
            }
            const double dt = since(t0);
            r.wall += dt;
            r.latencies.push_back(dt);
            r.executed += executed;
            warmExecuted_ += executed;
            for (const sim::JobResult &jr : results) {
                ++r.attempted;
                ++r.results;
                if (jr.status != sim::JobStatus::Ok)
                    ++r.failed;
                if (jr.deduplicated)
                    ++r.dedupHits;
                r.instructions +=
                    static_cast<double>(jr.result.totalCommitted);
                checkWarmResult(jr);
            }
        }
        return r;
    }

    /** characterize: the functional passes fig2/3/4, tab2 and tab3
     *  make over every baseline program, serially. */
    Round
    characterizeRound()
    {
        Round r;
        Span round("round.characterize", "driver");
        lastShadow_.assign(subjects_.size(), {});
        lastRedundancy_.assign(subjects_.size(), {});
        for (std::size_t i = 0; i < subjects_.size(); ++i) {
            const isa::Program &prog = subjects_[i].program;
            std::uint64_t insts = 0;
            auto call = [&](const char *name, const char *layer,
                            const std::function<void()> &fn) {
                ++r.attempted;
                auto t0 = Clock::now();
                try {
                    Span s(name, layer);
                    fn();
                } catch (const std::exception &e) {
                    ++r.failed;
                    std::fprintf(stderr, "perfbench: %s %s threw: %s\n",
                                 subjects_[i].name.c_str(), name,
                                 e.what());
                }
                r.latencies.push_back(since(t0));
            };
            auto t0 = Clock::now();
            call("FunctionalRunner::run", "cpu.functional", [&] {
                cpu::FunctionalRunner runner(prog);
                const cpu::FuncRunResult fr = runner.run();
                if (!fr.halted)
                    throw std::runtime_error("did not halt");
                insts = fr.mainInstructions + fr.dttInstructions;
            });
            call("profileRedundancy", "profile", [&] {
                lastRedundancy_[i] = profile::profileRedundancy(prog);
            });
            call("profileReuse", "profile",
                 [&] { (void)profile::profileReuse(prog); });
            call("profileShadow", "profile", [&] {
                lastShadow_[i] = profile::profileShadow(prog);
            });
            call("adviseTriggers", "profile", [&] {
                (void)profile::adviseTriggers(
                    prog, 3, profile::AdvisorRanking::TriggerData);
            });
            call("adviseTriggers", "profile", [&] {
                (void)profile::adviseTriggers(
                    prog, 3,
                    profile::AdvisorRanking::RedundantComputation);
            });
            call("analysis::analyze", "analysis",
                 [&] { (void)dttsim::analysis::analyze(prog); });
            r.wall += since(t0);
            ++r.results;
            // Six of the calls execute the program functionally.
            r.instructions += 6.0 * static_cast<double>(insts);
        }
        return r;
    }

    Round
    round(const std::string &workload)
    {
        if (workload == "sweep-cold")
            return coldRound(work_ + "/cold-store");
        if (workload == "sweep-warm")
            return warmRound();
        return characterizeRound();
    }

    void
    checkCold()
    {
        // Every round simulates the same jobs to the same results.
        std::map<std::string, sim::SimResult> byDigest;
        for (const std::vector<sim::JobResult> &rr : coldRounds_)
            for (const sim::JobResult &jr : rr) {
                // A job that failed is counted in `failed`; the
                // checks speak of the ones that did not.
                if (jr.status != sim::JobStatus::Ok)
                    continue;
                checkInvariants(label(jr), jr.result, failures_);
                auto [it, fresh] = byDigest.emplace(jr.digest, jr.result);
                if (!fresh && !(it->second == jr.result))
                    failures_.push_back(label(jr)
                                        + ": differs between rounds");
            }
        checkReferences(byDigest);
        checkFaultPlans(byDigest);
    }

    void
    checkWarm()
    {
        for (const auto &[digest, result] : fillResults_)
            checkInvariants("fill " + digest, result, failures_);
        if (warmExecuted_ != 0)
            failures_.push_back(
                std::to_string(warmExecuted_)
                + " warm jobs were simulated instead of read from the "
                  "store");
        sim::ResultStore store(warmDir_, sim::ResultStore::Mode::ReadOnly);
        for (const auto &[digest, result] : fillResults_)
            checkStoreRecord(digest, store.lookup(digest), result,
                             failures_);
        checkReferences(fillResults_);
        checkFaultPlans(fillResults_);
    }

    void
    checkCharacterize()
    {
        std::vector<analysis::ShadowReport> cycleLevel(subjects_.size());
        parallelFor(subjects_.size(), threads_, [&](std::size_t i) {
            sim::SimConfig cfg =
                bench::Harness::machineConfig(cpu::AccelKind::None);
            cfg.shadowProfile = true;
            sim::Simulator s(cfg, subjects_[i].program);
            s.run();
            cycleLevel[i] = s.shadowReport();
        });
        for (std::size_t i = 0; i < subjects_.size(); ++i) {
            checkShadow(subjects_[i].name, cycleLevel[i], lastShadow_[i],
                        failures_);
            checkRedundancy(subjects_[i].name, lastRedundancy_[i],
                            failures_);
        }
    }

    /** Check what the rounds of @p workload produced; "all" after a
     *  traced run, which drives every workload. */
    void
    check(const std::string &workload)
    {
        setTracer(nullptr);
        try {
            if (workload == "sweep-cold" || workload == "all")
                checkCold();
            if (workload == "sweep-warm" || workload == "all")
                checkWarm();
            if (workload == "characterize" || workload == "all")
                checkCharacterize();
        } catch (const std::exception &e) {
            ++failedChecks_;
            failures_.push_back(std::string("check threw: ") + e.what());
        }
    }

    /** Times of the single-threaded simulator probe, per class. */
    struct ProbeClass
    {
        double seconds = 0.0;
        double cycles = 0.0;
        double insts = 0.0;
    };

    void
    simulatorProbe(std::map<std::string, ProbeClass> &classes,
                   sim::SimResult &totals)
    {
        for (const ProbeJob &p : probeJobs(harness_)) {
            sim::Simulator s(p.job.config, p.job.program);
            startCoRunners(s, p.job);
            const std::string digest = sim::jobDigest(p.job);
            auto t0 = Clock::now();
            sim::SimResult r;
            {
                Span span("Simulator::run", "sim.simulator", digest);
                r = s.run();
            }
            ProbeClass &c = classes[p.cls];
            c.seconds += since(t0);
            c.cycles += static_cast<double>(r.cycles);
            c.insts += static_cast<double>(r.totalCommitted);
            checkInvariants("probe " + p.job.workload + " " + p.cls, r,
                            failures_);
            totals.cycles += r.cycles;
            totals.totalCommitted += r.totalCommitted;
            totals.dttCommitted += r.dttCommitted;
            totals.dttSpawns += r.dttSpawns;
            totals.l1dAccesses += r.l1dAccesses;
            totals.l1dMisses += r.l1dMisses;
            totals.l2Misses += r.l2Misses;
            totals.condMispredicts += r.condMispredicts;
        }
    }

    /** put (append + fsync) and lookup of every sampled result on a
     *  fresh store, each call timed on its own. */
    void
    storeProbe()
    {
        const std::string dir = work_ + "/probe-store";
        fs::remove_all(dir);
        {
            sim::ResultStore store(dir, sim::ResultStore::Mode::ReadWrite);
            for (const auto &[digest, result] : fillResults_) {
                sim::ResultStore::Record rec;
                rec.digest = digest;
                rec.result = result;
                Span s("ResultStore::put", "sim.resultstore", digest);
                store.put(rec);
            }
        }
        sim::ResultStore store(dir, sim::ResultStore::Mode::ReadOnly);
        for (const auto &[digest, result] : fillResults_) {
            Span s("ResultStore::lookup", "sim.resultstore", digest);
            if (!store.lookup(digest))
                failures_.push_back("probe store lost " + digest);
        }
    }

    /**
     * The traced run: one traced pass over every layer, whatever the
     * workload, so each per-layer metric is measured the same way in
     * every traced run. The pass rebuilds the traffic, runs a cold
     * round (which fills the store), a warm round over that store, a
     * characterize round, and the store and simulator probes. Rounds
     * of @p workload itself alternate untraced and traced (15 pairs
     * of the short warm round, one pair otherwise); the medians of the
     * two give the tracing overhead.
     */
    std::vector<Metric>
    tracedRun(const std::string &workload, const std::string &tracePath)
    {
        Tracer tracer;
        setTracer(&tracer);
        {
            Span s("setup", "driver");
            setup("sweep-cold");
            setup("characterize");
        }
        std::vector<double> untraced, traced;
        auto measure = [&](const std::string &w,
                           const std::function<Round()> &once) {
            const int pairs =
                w != workload ? 0 : w == "sweep-warm" ? 15 : 1;
            Round r;
            for (int i = 0; i < std::max(pairs, 1); ++i) {
                if (pairs > 0) {
                    setTracer(nullptr);
                    untraced.push_back(once().wall);
                    setTracer(&tracer);
                }
                r = once();
                if (pairs > 0)
                    traced.push_back(r.wall);
            }
            return r;
        };
        const std::string store = work_ + "/trace-store";
        const Round cold =
            measure("sweep-cold", [&] { return coldRound(store); });
        fillResults_.clear();
        for (const sim::JobResult &jr : lastCold_)
            fillResults_[jr.digest] = jr.result;
        warmDir_ = store;
        const Round warm =
            measure("sweep-warm", [&] { return warmRound(); });
        const Round chr =
            measure("characterize", [&] { return characterizeRound(); });
        storeProbe();
        std::map<std::string, ProbeClass> classes;
        sim::SimResult totals;
        simulatorProbe(classes, totals);
        setTracer(nullptr);

        std::vector<Metric> m;
        auto sumOf = [&](const char *name) {
            double s = 0.0;
            for (double d : tracer.durations(name))
                s += d;
            return s;
        };
        m.push_back({"workloads.build_s",
                     sumOf("Harness::makeJob") + sumOf("Workload::build"),
                     "s"});
        m.push_back({"engine.jobs_executed",
                     static_cast<double>(cold.executed + warm.executed),
                     "count"});
        m.push_back({"engine.cache_hits",
                     static_cast<double>(cold.cacheHits + warm.cacheHits),
                     "count"});
        m.push_back({"engine.dedup_hits",
                     static_cast<double>(cold.dedupHits + warm.dedupHits),
                     "count"});
        m.push_back({"engine.busy_s", cold.busySeconds, "s"});
        m.push_back({"engine.utilization",
                     cold.busySeconds / (cold.wall * threads_), "ratio"});
        m.push_back({"engine.digest_us",
                     mean(tracer.durations("jobDigest")) * 1e6, "us"});
        m.push_back(
            {"store.open_ms",
             mean(tracer.durations("ResultStore::ResultStore",
                                   "round.sweep-warm"))
                 * 1e3,
             "ms"});
        m.push_back({"store.lookup_us",
                     mean(tracer.durations("ResultStore::lookup")) * 1e6,
                     "us"});
        m.push_back({"store.put_us",
                     mean(tracer.durations("ResultStore::put")) * 1e6,
                     "us"});
        m.push_back({"store.records", static_cast<double>(storeRecords_),
                     "count"});
        m.push_back({"store.bytes", static_cast<double>(storeBytes_),
                     "bytes"});
        m.push_back({"store.corrupt_records",
                     static_cast<double>(storeCorrupt_), "count"});
        for (const std::string &cls : probeClasses()) {
            const ProbeClass &c = classes[cls];
            m.push_back({"sim." + cls + ".ns_per_cycle",
                         c.seconds * 1e9 / c.cycles, "ns"});
            m.push_back({"sim." + cls + ".minst_per_s",
                         c.insts / c.seconds / 1e6, "Minst/s"});
        }
        m.push_back({"sim.cycles", static_cast<double>(totals.cycles),
                     "count"});
        m.push_back({"sim.insts",
                     static_cast<double>(totals.totalCommitted), "count"});
        m.push_back({"sim.dtt_insts",
                     static_cast<double>(totals.dttCommitted), "count"});
        m.push_back({"sim.dtt_spawns",
                     static_cast<double>(totals.dttSpawns), "count"});
        m.push_back({"mem.l1d_accesses",
                     static_cast<double>(totals.l1dAccesses), "count"});
        m.push_back({"mem.l1d_misses",
                     static_cast<double>(totals.l1dMisses), "count"});
        m.push_back({"mem.l2_misses",
                     static_cast<double>(totals.l2Misses), "count"});
        m.push_back({"cpu.cond_mispredicts",
                     static_cast<double>(totals.condMispredicts),
                     "count"});
        m.push_back({"func.minst_per_s",
                     chr.instructions / 6.0 / sumOf("FunctionalRunner::run")
                         / 1e6,
                     "Minst/s"});
        m.push_back({"profile.redundancy_s", sumOf("profileRedundancy"),
                     "s"});
        m.push_back({"profile.reuse_s", sumOf("profileReuse"), "s"});
        m.push_back({"profile.shadow_s", sumOf("profileShadow"), "s"});
        m.push_back({"profile.advisor_s", sumOf("adviseTriggers"), "s"});
        m.push_back({"analysis.analyze_s", sumOf("analysis::analyze"),
                     "s"});
        for (const auto &[layer, t] : tracer.layerTotals()) {
            m.push_back({"layer." + layer + ".self_s", t.selfSeconds,
                         "s"});
            m.push_back({"layer." + layer + ".calls",
                         static_cast<double>(t.calls), "count"});
        }
        m.push_back({"trace.spans",
                     static_cast<double>(tracer.spans().size()),
                     "count"});
        const double plain = median(untraced), spanned = median(traced);
        m.push_back({"trace.untraced_wall_s", plain, "s"});
        m.push_back({"trace.traced_wall_s", spanned, "s"});
        m.push_back({"trace.overhead_pct", (spanned - plain) / plain * 100.0,
                     "%"});

        if (!tracer.writeChromeTrace(tracePath))
            failures_.push_back("cannot write " + tracePath);
        else
            std::fprintf(stderr, "perfbench: trace written to %s\n",
                         tracePath.c_str());
        attemptedTraced_ = cold.attempted + warm.attempted
            + chr.attempted;
        failedTraced_ = cold.failed + warm.failed + chr.failed;
        return m;
    }

    /** Jobs and simulated CPU-seconds per figure in the last cold
     *  round: the make-up of the sample. */
    void
    printMakeup() const
    {
        std::map<std::string, std::size_t> figureOf;
        for (std::size_t u : traffic_.sample)
            figureOf[traffic_.digest(traffic_.unionJobs[u])] =
                traffic_.unionJobs[u].batch;
        std::vector<std::pair<std::size_t, double>> per(
            traffic_.batches.size());
        for (const sim::JobResult &jr : lastCold_) {
            auto &[jobs, cpu] = per[figureOf.at(jr.digest)];
            ++jobs;
            cpu += jr.wallSeconds;
        }
        for (std::size_t i = 0; i < per.size(); ++i)
            if (per[i].first)
                std::printf("perfbench: sample %-24s %4zu jobs %8.2f "
                            "cpu-s\n",
                            traffic_.batches[i].figure.c_str(),
                            per[i].first, per[i].second);
    }

    const Traffic &traffic() const { return traffic_; }
    const std::string &work() const { return work_; }
    Failures &failures() { return failures_; }
    std::uint64_t attemptedSetup() const { return attemptedSetup_; }
    std::uint64_t failedSetup() const { return failedSetup_; }
    std::uint64_t failedChecks() const { return failedChecks_; }
    std::uint64_t attemptedTraced() const { return attemptedTraced_; }
    std::uint64_t failedTraced() const { return failedTraced_; }

  private:
    static std::string
    label(const sim::JobResult &jr)
    {
        return jr.workload + "/" + jr.variant + " " + jr.digest;
    }

    void
    checkWarmResult(const sim::JobResult &jr)
    {
        auto it = fillResults_.find(jr.digest);
        if (it == fillResults_.end()) {
            failures_.push_back(label(jr) + ": not in the filled store");
            return;
        }
        if (!jr.cached && !jr.deduplicated)
            failures_.push_back(label(jr) + ": not served from the store");
        if (!(jr.result == it->second))
            failures_.push_back(label(jr)
                                + ": differs from the filled result");
    }

    /** For every workload: the cycle-level baseline and DTT runs
     *  (fig5's jobs) leave the functional checksum; where the sweep
     *  ran the same digest, its result equals this one. */
    void
    checkReferences(const std::map<std::string, sim::SimResult> &swept)
    {
        const FigureBatch &fig5 = traffic_.batches.front();
        const std::size_t n = fig5.jobs.size() / 2;
        std::vector<ReferenceRun> refs(n);
        parallelFor(n, threads_, [&](std::size_t i) {
            refs[i] = referenceRun(fig5.jobs[2 * i].workload,
                                   fig5.jobs[2 * i],
                                   fig5.jobs[2 * i + 1]);
        });
        for (std::size_t i = 0; i < n; ++i) {
            checkReference(refs[i], failures_);
            for (std::size_t v = 0; v < 2; ++v) {
                auto it = swept.find(fig5.digests[2 * i + v]);
                const sim::SimResult &ref = v ? refs[i].dtt : refs[i].base;
                if (it != swept.end() && !(it->second == ref))
                    failures_.push_back(
                        refs[i].workload
                        + ": engine result differs from Simulator::run");
            }
        }
    }

    /** Every sampled job in a transparent fault plan reproduces the
     *  archDigest of its fault-free run (simulated here when the
     *  sample does not hold it). */
    void
    checkFaultPlans(const std::map<std::string, sim::SimResult> &swept)
    {
        std::map<std::string, const sim::SimJob *> missing;
        std::vector<std::pair<std::size_t, JobRef>> faulted;
        for (std::size_t u : traffic_.sample) {
            const JobRef r = traffic_.unionJobs[u];
            const long ref = traffic_.batches[r.batch].faultRef[r.pos];
            if (ref < 0)
                continue;
            const JobRef rr{r.batch, static_cast<std::size_t>(ref)};
            faulted.push_back({u, rr});
            if (!swept.count(traffic_.digest(rr)))
                missing[traffic_.digest(rr)] = &traffic_.job(rr);
        }
        std::vector<std::pair<std::string, const sim::SimJob *>> todo(
            missing.begin(), missing.end());
        std::vector<sim::SimResult> simulated(todo.size());
        parallelFor(todo.size(), threads_, [&](std::size_t i) {
            simulated[i] = simulate(*todo[i].second);
        });
        std::map<std::string, sim::SimResult> refs = swept;
        for (std::size_t i = 0; i < todo.size(); ++i)
            refs[todo[i].first] = simulated[i];
        for (const auto &[u, rr] : faulted) {
            const JobRef r = traffic_.unionJobs[u];
            const sim::SimJob &job = traffic_.job(r);
            checkFaultDigest(job.workload + "/" + job.variant,
                             swept.at(traffic_.digest(r)).archDigest,
                             refs.at(traffic_.digest(rr)).archDigest,
                             failures_);
        }
    }

    int threads_;
    const char *harnessArgv_[1];
    bench::Harness harness_;
    workloads::WorkloadParams params_;
    std::string work_;

    Traffic traffic_;
    std::vector<sim::SimJob> coldJobs_;
    std::vector<std::vector<sim::SimJob>> warmBatches_;
    std::vector<Subject> subjects_;

    std::vector<sim::JobResult> lastCold_;
    std::vector<std::vector<sim::JobResult>> coldRounds_;
    std::string warmDir_;
    std::map<std::string, sim::SimResult> fillResults_;
    std::vector<analysis::ShadowReport> lastShadow_;
    std::vector<profile::RedundancyReport> lastRedundancy_;

    std::uint64_t warmExecuted_ = 0;
    std::size_t storeRecords_ = 0;
    std::uint64_t storeBytes_ = 0;
    std::size_t storeCorrupt_ = 0;

    Failures failures_;
    std::uint64_t attemptedSetup_ = 0;  ///< the warm store's fill
    std::uint64_t failedSetup_ = 0;
    std::uint64_t failedChecks_ = 0;
    std::uint64_t attemptedTraced_ = 0;
    std::uint64_t failedTraced_ = 0;
};

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    json::Value ms = json::Value::object();
    for (const Metric &m : metrics) {
        json::Value v = json::Value::object();
        v.set("value", json::Value(m.value));
        v.set("unit", json::Value(m.unit));
        ms.set(m.name, std::move(v));
    }
    json::Value doc = json::Value::object();
    doc.set("correct", json::Value(correct));
    doc.set("attempted", json::Value(attempted));
    doc.set("failed", json::Value(failed));
    doc.set("metrics", std::move(ms));
    std::printf("%s\n", doc.dump().c_str());
    std::fflush(stdout);
}

int
runWorkload(const Args &args)
{
    const int threads = cpusAvailable();
    std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d "
                "commit=%s build=%s nproc=%d engine_threads=%d "
                "cpu=\"%s\"\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, args.commit.c_str(),
                PERFBENCH_BUILD_TYPE, threads, threads,
                cpuModel().c_str());
    std::fflush(stdout);
    Bench b(args, threads);

    // Set up at least three times and for at least a quarter second;
    // setup_s is the median.
    std::vector<double> setups;
    auto setupStart = Clock::now();
    while (setups.size() < 3
           || (since(setupStart) < 0.25 && setups.size() < 1000))
        setups.push_back(b.setup(args.workload));
    const double setupS = median(setups);
    // A traced run fills its own store (tracedRun).
    if (args.workload == "sweep-warm" && !args.trace) {
        auto t0 = Clock::now();
        b.fill(b.work() + "/warm-store");
        std::printf("perfbench: store filled with %zu jobs in %.3f s\n",
                    b.traffic().sample.size(), since(t0));
    }

    std::vector<Metric> metrics;
    std::uint64_t attempted = b.attemptedSetup();
    std::uint64_t failed = b.failedSetup();
    if (args.trace) {
        const std::string dir = args.work + "/traces";
        fs::create_directories(dir);
        metrics = b.tracedRun(args.workload,
                              dir + "/" + args.workload + "-seed"
                                  + std::to_string(args.seed) + ".json");
        attempted += b.attemptedTraced();
        failed += b.failedTraced();
    } else {
        std::vector<Round> rounds;
        auto t0 = Clock::now();
        do {
            rounds.push_back(b.round(args.workload));
        } while (since(t0) < args.seconds);
        for (const Round &r : rounds) {
            attempted += r.attempted;
            failed += r.failed;
        }
        // Every round runs the same operations in the same order; an
        // operation's latency is its median over the rounds, so a
        // host hiccup (a slow fsync, a preempted vCPU) during one
        // round does not become the tail.
        std::vector<double> lat(rounds.front().latencies.size());
        for (std::size_t k = 0; k < lat.size(); ++k) {
            std::vector<double> samples;
            for (const Round &r : rounds)
                samples.push_back(r.latencies.at(k));
            lat[k] = median(samples);
        }
        // The cold round's jobs run in parallel: its wall time is the
        // median round. The warm and characterize rounds run their
        // operations one after another: a typical round is the sum of
        // the operations' medians. Results and instructions are the
        // same in every round.
        double wall = 0.0;
        if (args.workload == "sweep-cold") {
            std::vector<double> walls;
            for (const Round &r : rounds)
                walls.push_back(r.wall);
            wall = median(walls);
        } else {
            for (double l : lat)
                wall += l;
        }
        const Round &first = rounds.front();
        metrics = {
            {"setup_s", setupS, "s"},
            {"wall_s", wall, "s"},
            {"results_per_s", static_cast<double>(first.results) / wall,
             "1/s"},
            {"minst_per_s", first.instructions / wall / 1e6, "Minst/s"},
            {"job_p50_s", percentile(lat, 50), "s"},
            {"job_p95_s", percentile(lat, 95), "s"},
        };
        if (args.workload == "sweep-cold")
            b.printMakeup();
        const std::size_t beyond = lat.size()
            - static_cast<std::size_t>(
                std::ceil(0.95 * static_cast<double>(lat.size())));
        std::printf("perfbench: %zu round(s), %zu setup(s), %zu latency "
                    "samples (%zu beyond the p95 rank)\n",
                    rounds.size(), setups.size(), lat.size(), beyond);
    }
    // Peak memory of set-up and measurement, before the checks.
    if (!args.trace)
        metrics.push_back({"peak_rss_mb", peakRssMiB(), "MiB"});
    // The check phase is one operation of its own.
    b.check(args.trace ? "all" : args.workload);
    ++attempted;
    failed += b.failedChecks();

    const std::size_t shown = std::min<std::size_t>(b.failures().size(), 20);
    for (std::size_t i = 0; i < shown; ++i)
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n",
                     b.failures()[i].c_str());
    std::printf("perfbench: %zu check failure(s)%s\n", b.failures().size(),
                shown < b.failures().size() ? ", the first 20 on stderr"
                                            : "");
    printResult(b.failures().empty(), attempted, failed, metrics);
    return 0;
}

/** --list-digests: every figure batch's digests in submission order,
 *  then the sample, for the traffic-fidelity command. */
int
listDigests(const Args &args)
{
    char arg0[] = "perfbench";
    char *argv[] = {arg0};
    bench::Harness h(1, argv, {"perfbench", "digest listing"});
    workloads::WorkloadParams params;
    params.seed = args.seed;
    const Traffic t = buildTraffic(h, params);
    for (const FigureBatch &b : t.batches) {
        std::printf("figure %s", b.figure.c_str());
        for (const std::string &d : b.digests)
            std::printf(" %s", d.c_str());
        std::printf("\n");
    }
    std::printf("sample");
    for (std::size_t u : t.sample)
        std::printf(" %s", t.digest(t.unionJobs[u]).c_str());
    std::printf("\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    std::fprintf(stderr, "perfbench_driver: refusing to time a "
                         "sanitizer build\n");
    return 2;
#endif
    const Args args = parseArgs(argc, argv);
    try {
        if (args.selfTest)
            return selfTest(args.work);
        if (args.listDigests)
            return listDigests(args);
        if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                      args.workload)
            == std::end(kWorkloads))
            usage("unknown --workload '" + args.workload + "'");
        if (!(args.seconds > 0))
            usage("--seconds must be positive");
        return runWorkload(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }
}
