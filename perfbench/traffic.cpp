#include "traffic.h"

#include <map>
#include <set>
#include <utility>

#include "common/log.h"
#include "common/table.h"
#include "trace.h"

namespace perfbench {

namespace cpu = dttsim::cpu;
namespace dtt = dttsim::dtt;
using dttsim::Cycle;
using dttsim::strfmt;
using dttsim::TextTable;
using workloads::Variant;

namespace {

/** Accumulates one figure's batch the way its binary does. */
class BatchAssembler
{
  public:
    BatchAssembler(const bench::Harness &h,
                 const workloads::WorkloadParams &params,
                 std::string figure)
        : h_(h), params_(params)
    {
        batch_.figure = std::move(figure);
    }

    /** Harness::makeJob at the benchmark's parameters; returns the
     *  job's index in the batch. */
    std::size_t
    add(const workloads::Workload &w, Variant variant,
        sim::SimConfig config, std::string label = "")
    {
        return add(w, variant, params_, std::move(config),
                   std::move(label));
    }

    std::size_t
    add(const workloads::Workload &w, Variant variant,
        const workloads::WorkloadParams &params, sim::SimConfig config,
        std::string label = "")
    {
        Span span("Harness::makeJob", "workloads");
        batch_.jobs.push_back(
            h_.makeJob(w, variant, params, std::move(config),
                       std::move(label)));
        batch_.faultRef.push_back(-1);
        return batch_.jobs.size() - 1;
    }

    sim::SimJob &
    last()
    {
        return batch_.jobs.back();
    }

    void
    setFaultRef(std::size_t job, std::size_t ref)
    {
        batch_.faultRef[job] = static_cast<long>(ref);
    }

    FigureBatch
    take()
    {
        return std::move(batch_);
    }

  private:
    const bench::Harness &h_;
    const workloads::WorkloadParams &params_;
    FigureBatch batch_;
};

/** Harness::runPairs at the default --accel (fig5, fig6, fig10). */
FigureBatch
pairsFigure(const bench::Harness &h,
            const workloads::WorkloadParams &params, std::string name)
{
    BatchAssembler b(h, params, std::move(name));
    const cpu::AccelKind kind = h.accel();
    const Variant accel_variant =
        kind == cpu::AccelKind::Dtt || kind == cpu::AccelKind::Sp
        ? Variant::Dtt : Variant::Baseline;
    const std::string accel_label =
        kind == cpu::AccelKind::Dtt ? "" : cpu::accelKindName(kind);
    for (const workloads::Workload *w : workloads::allWorkloads()) {
        b.add(*w, Variant::Baseline,
              bench::Harness::machineConfig(cpu::AccelKind::None));
        b.add(*w, accel_variant, bench::Harness::machineConfig(kind),
              accel_label);
    }
    return b.take();
}

FigureBatch
fig7(const bench::Harness &h, const workloads::WorkloadParams &params)
{
    BatchAssembler b(h, params, "fig7_contexts");
    for (const workloads::Workload *w : workloads::allWorkloads()) {
        b.add(*w, Variant::Baseline,
              bench::Harness::machineConfig(false));
        for (int spare : {1, 2, 3, 7}) {
            sim::SimConfig cfg = bench::Harness::machineConfig(true);
            cfg.core.numContexts = 1 + spare;
            b.add(*w, Variant::Dtt, cfg,
                  "dtt +" + std::to_string(spare) + "ctx");
        }
    }
    return b.take();
}

FigureBatch
fig8(const bench::Harness &h, const workloads::WorkloadParams &params)
{
    BatchAssembler b(h, params, "fig8_tq_size");
    for (bool coalesce : {true, false}) {
        for (const workloads::Workload *w : workloads::allWorkloads()) {
            b.add(*w, Variant::Baseline,
                  bench::Harness::machineConfig(false));
            for (int size : {1, 2, 4, 8, 16}) {
                sim::SimConfig cfg =
                    bench::Harness::machineConfig(true);
                cfg.dtt.threadQueueSize = size;
                cfg.dtt.coalesce = coalesce;
                b.add(*w, Variant::Dtt, cfg,
                      std::string("dtt tq=") + std::to_string(size)
                          + (coalesce ? " squash" : " no-squash"));
            }
        }
    }
    return b.take();
}

FigureBatch
fig9(const bench::Harness &h, const workloads::WorkloadParams &params)
{
    BatchAssembler b(h, params, "fig9_ablation_silent");
    sim::SimConfig off_cfg = bench::Harness::machineConfig(true);
    off_cfg.dtt.silentSuppression = false;
    for (const workloads::Workload *w : workloads::allWorkloads()) {
        b.add(*w, Variant::Baseline,
              bench::Harness::machineConfig(false));
        b.add(*w, Variant::Dtt, bench::Harness::machineConfig(true),
              "dtt suppress-on");
        b.add(*w, Variant::Dtt, off_cfg, "dtt suppress-off");
    }
    return b.take();
}

FigureBatch
fig11(const bench::Harness &h, const workloads::WorkloadParams &params)
{
    BatchAssembler b(h, params, "fig11_update_rate");
    for (const char *name : {"mcf", "art", "gcc"}) {
        const workloads::Workload &w = workloads::findWorkload(name);
        for (double rate : {0.0, 0.1, 0.25, 0.5, 0.75, 1.0}) {
            workloads::WorkloadParams p = params;
            p.updateRate = rate;
            const std::string tag = " r=" + TextTable::num(rate, 2);
            b.add(w, Variant::Baseline, p,
                  bench::Harness::machineConfig(false),
                  "baseline" + tag);
            b.add(w, Variant::Dtt, p,
                  bench::Harness::machineConfig(true), "dtt" + tag);
        }
    }
    return b.take();
}

FigureBatch
fig12(const bench::Harness &h, const workloads::WorkloadParams &params)
{
    struct Family
    {
        cpu::AccelKind kind;
        Variant variant;
        std::uint32_t transparentMask;
        const char *name;
    };
    const Family families[] = {
        {cpu::AccelKind::Dtt, Variant::Dtt,
         sim::faultSiteBit(sim::FaultSite::DenySpawn)
             | sim::faultSiteBit(sim::FaultSite::SquashThread)
             | sim::faultSiteBit(sim::FaultSite::SpuriousCoalesce),
         "dtt"},
        {cpu::AccelKind::Sp, Variant::Dtt,
         sim::faultSiteBit(sim::FaultSite::DenySpawn)
             | sim::faultSiteBit(sim::FaultSite::SquashThread),
         "sp"},
        {cpu::AccelKind::Reuse, Variant::Baseline,
         sim::faultSiteBit(sim::FaultSite::FlushReuseTable), "reuse"},
    };
    BatchAssembler b(h, params, "fig12_vs_reuse");
    for (const workloads::Workload *w : workloads::allWorkloads()) {
        b.add(*w, Variant::Baseline,
              bench::Harness::machineConfig(cpu::AccelKind::None));
        for (const Family &f : families) {
            std::size_t ref = 0;
            for (double rate : {0.0, 0.2, 0.5}) {
                sim::SimConfig cfg =
                    bench::Harness::machineConfig(f.kind);
                cfg.fault.seed = 7;
                cfg.fault.rate = rate;
                cfg.fault.siteMask =
                    rate > 0.0 ? f.transparentMask : 0u;
                std::size_t idx = b.add(
                    *w, f.variant, cfg,
                    rate > 0.0 ? strfmt("%s rate=%g", f.name, rate)
                               : std::string(f.name));
                if (rate > 0.0)
                    b.setFaultRef(idx, ref);
                else
                    ref = idx;
            }
        }
    }
    return b.take();
}

FigureBatch
fig13(const bench::Harness &h, const workloads::WorkloadParams &params)
{
    BatchAssembler b(h, params, "fig13_spawn_latency");
    for (const workloads::Workload *w : workloads::allWorkloads()) {
        b.add(*w, Variant::Baseline,
              bench::Harness::machineConfig(false));
        for (Cycle lat : {1, 4, 16, 64, 256}) {
            sim::SimConfig cfg = bench::Harness::machineConfig(true);
            cfg.dtt.spawnLatency = lat;
            b.add(*w, Variant::Dtt, cfg,
                  "dtt lat=" + std::to_string(lat));
        }
    }
    return b.take();
}

FigureBatch
fig14(const bench::Harness &h, const workloads::WorkloadParams &params)
{
    BatchAssembler b(h, params, "fig14_corunner");
    for (const workloads::Workload *w : workloads::allWorkloads()) {
        for (int k = 0; k <= 2; ++k) {
            for (Variant v : {Variant::Baseline, Variant::Dtt}) {
                const bool dtt = v == Variant::Dtt;
                b.add(*w, v, bench::Harness::machineConfig(dtt),
                      std::string(dtt ? "dtt" : "baseline") + " k="
                          + std::to_string(k));
                for (int i = 0; i < k; ++i)
                    b.last().coRunnerEntries.push_back(
                        bench::appendCoRunner(b.last().program, i));
            }
        }
    }
    return b.take();
}

FigureBatch
fig15(const bench::Harness &h, const workloads::WorkloadParams &params)
{
    auto config = [](bool dtt, bool pf) {
        sim::SimConfig cfg = bench::Harness::machineConfig(dtt);
        cfg.mem.nextLinePrefetch = pf;
        return cfg;
    };
    BatchAssembler b(h, params, "fig15_prefetch");
    for (const workloads::Workload *w : workloads::allWorkloads()) {
        b.add(*w, Variant::Baseline, config(false, false), "baseline");
        b.add(*w, Variant::Baseline, config(false, true),
              "baseline pf");
        b.add(*w, Variant::Dtt, config(true, false), "dtt");
        b.add(*w, Variant::Dtt, config(true, true), "dtt pf");
    }
    return b.take();
}

FigureBatch
fig16(const bench::Harness &h, const workloads::WorkloadParams &params)
{
    const std::pair<dtt::FullQueuePolicy, const char *> policies[] = {
        {dtt::FullQueuePolicy::Stall, "stall"},
        {dtt::FullQueuePolicy::StallBounded, "stall-bounded"},
        {dtt::FullQueuePolicy::Drop, "drop"},
        {dtt::FullQueuePolicy::DropOldest, "drop-oldest"},
    };
    BatchAssembler b(h, params, "fig16_fault_degradation");
    for (const workloads::Workload *w : workloads::allWorkloads()) {
        b.add(*w, Variant::Baseline,
              bench::Harness::machineConfig(false));
        std::size_t ref = 0;
        for (const auto &[policy, name] : policies) {
            for (double rate : {0.0, 0.05, 0.2, 0.5, 0.8}) {
                sim::SimConfig cfg = bench::Harness::machineConfig(true);
                cfg.dtt.fullPolicy = policy;
                cfg.dtt.stallBound = 64;
                cfg.fault.seed = 7;
                cfg.fault.rate = rate;
                cfg.fault.siteMask =
                    rate > 0.0 ? sim::kTransparentSites : 0u;
                std::size_t idx =
                    b.add(*w, Variant::Dtt, cfg,
                          strfmt("dtt %s rate=%g", name, rate));
                // The binary checks every variant against the first
                // fault-free DTT run (policy stall, rate 0).
                if (rate == 0.0 && policy == dtt::FullQueuePolicy::Stall)
                    ref = idx;
                if (rate > 0.0)
                    b.setFaultRef(idx, ref);
            }
        }
    }
    return b.take();
}

void
sampleUnion(Traffic &t)
{
    std::set<std::string> seen;
    for (std::size_t bi = 0; bi < t.batches.size(); ++bi)
        for (std::size_t pos = 0; pos < t.batches[bi].jobs.size(); ++pos)
            if (seen.insert(t.batches[bi].digests[pos]).second)
                t.unionJobs.push_back({bi, pos});

    // Strata in order of first appearance within each figure.
    struct Stratum
    {
        std::size_t ordinal = 0;  ///< within its figure
        std::vector<std::size_t> members;
    };
    std::map<std::pair<std::size_t, std::string>, std::size_t> index;
    std::map<std::size_t, std::size_t> strataPerFigure;
    std::vector<Stratum> strata;
    for (std::size_t u = 0; u < t.unionJobs.size(); ++u) {
        const JobRef r = t.unionJobs[u];
        auto [it, fresh] = index.emplace(
            std::make_pair(r.batch, t.job(r).variant), strata.size());
        if (fresh)
            strata.push_back({strataPerFigure[r.batch]++, {}});
        strata[it->second].members.push_back(u);
    }
    std::vector<bool> keep(t.unionJobs.size(), false);
    for (const Stratum &s : strata)
        for (std::size_t j = 0; j < s.members.size(); ++j)
            if (j % kSampleStride == s.ordinal % kSampleStride)
                keep[s.members[j]] = true;
    for (std::size_t u = 0; u < keep.size(); ++u)
        if (keep[u])
            t.sample.push_back(u);
}

} // namespace

std::vector<sim::SimJob>
Traffic::sampleJobs() const
{
    std::vector<sim::SimJob> jobs;
    jobs.reserve(sample.size());
    for (std::size_t u : sample)
        jobs.push_back(job(unionJobs[u]));
    return jobs;
}

std::vector<std::vector<sim::SimJob>>
Traffic::sampledBatches() const
{
    std::set<std::string> sampled;
    for (std::size_t u : sample)
        sampled.insert(digest(unionJobs[u]));
    std::vector<std::vector<sim::SimJob>> out(batches.size());
    for (std::size_t bi = 0; bi < batches.size(); ++bi)
        for (std::size_t pos = 0; pos < batches[bi].jobs.size(); ++pos)
            if (sampled.count(batches[bi].digests[pos]))
                out[bi].push_back(batches[bi].jobs[pos]);
    return out;
}

Traffic
buildTraffic(const bench::Harness &h,
             const workloads::WorkloadParams &params)
{
    Traffic t;
    t.batches.push_back(pairsFigure(h, params, "fig5_speedup"));
    t.batches.push_back(pairsFigure(h, params, "fig6_insn_reduction"));
    t.batches.push_back(fig7(h, params));
    t.batches.push_back(fig8(h, params));
    t.batches.push_back(fig9(h, params));
    t.batches.push_back(pairsFigure(h, params, "fig10_energy_proxy"));
    t.batches.push_back(fig11(h, params));
    t.batches.push_back(fig12(h, params));
    t.batches.push_back(fig13(h, params));
    t.batches.push_back(fig14(h, params));
    t.batches.push_back(fig15(h, params));
    t.batches.push_back(fig16(h, params));
    for (FigureBatch &b : t.batches) {
        b.digests.reserve(b.jobs.size());
        for (const sim::SimJob &job : b.jobs) {
            Span span("jobDigest", "sim.engine");
            b.digests.push_back(sim::jobDigest(job));
        }
    }
    sampleUnion(t);
    return t;
}

const std::vector<std::string> &
probeClasses()
{
    static const std::vector<std::string> classes = {
        "base", "dtt", "sp", "reuse", "corunner", "fault"};
    return classes;
}

std::vector<ProbeJob>
probeJobs(const bench::Harness &h)
{
    const workloads::WorkloadParams params;  // fixed: seed 12345
    std::vector<ProbeJob> jobs;
    for (const char *name : {"mcf", "art", "gzip"}) {
        const workloads::Workload &w = workloads::findWorkload(name);
        auto add = [&](const char *cls, Variant v, sim::SimConfig cfg) {
            jobs.push_back({cls, h.makeJob(w, v, params, cfg)});
            return &jobs.back().job;
        };
        add("base", Variant::Baseline,
            bench::Harness::machineConfig(cpu::AccelKind::None));
        add("dtt", Variant::Dtt,
            bench::Harness::machineConfig(cpu::AccelKind::Dtt));
        add("sp", Variant::Dtt,
            bench::Harness::machineConfig(cpu::AccelKind::Sp));
        add("reuse", Variant::Baseline,
            bench::Harness::machineConfig(cpu::AccelKind::Reuse));
        // fig14's "dtt k=1" cell.
        sim::SimJob *corun = add(
            "corunner", Variant::Dtt,
            bench::Harness::machineConfig(cpu::AccelKind::Dtt));
        corun->coRunnerEntries.push_back(
            bench::appendCoRunner(corun->program, 0));
        // fig16's "dtt stall rate=0.2" cell.
        sim::SimConfig fault =
            bench::Harness::machineConfig(cpu::AccelKind::Dtt);
        fault.dtt.fullPolicy = dtt::FullQueuePolicy::Stall;
        fault.dtt.stallBound = 64;
        fault.fault.seed = 7;
        fault.fault.rate = 0.2;
        fault.fault.siteMask = sim::kTransparentSites;
        add("fault", Variant::Dtt, fault);
    }
    return jobs;
}

std::vector<Subject>
characterizeSubjects(const workloads::WorkloadParams &params)
{
    std::vector<Subject> subjects;
    for (const workloads::Workload *w : workloads::allWorkloads()) {
        Span span("Workload::build", "workloads");
        subjects.push_back(
            {w->info().name, w->build(Variant::Baseline, params)});
    }
    return subjects;
}

} // namespace perfbench
