#pragma once

/**
 * @file
 * The benchmark's traffic: the job batches the engine-backed figure
 * binaries (fig5..fig16) submit, rebuilt with the same public calls
 * they make (Workload::build through Harness::makeJob,
 * Harness::machineConfig, appendCoRunner, SimConfig::fault), their
 * union deduplicated by jobDigest, and the stratified sample of that
 * union the sweeps run. Also the fixed job sample of the single-
 * threaded simulator probe and the programs the characterization
 * binaries (fig2/3/4, tab2, tab3) profile.
 */

#include <cstddef>
#include <string>
#include <vector>

#include "harness.h"
#include "isa/program.h"
#include "sim/engine.h"
#include "workloads/workload.h"

namespace perfbench {

namespace bench = dttsim::bench;
namespace isa = dttsim::isa;
namespace sim = dttsim::sim;
namespace workloads = dttsim::workloads;

/** One figure binary's engine batch, in its submission order. */
struct FigureBatch
{
    std::string figure;
    std::vector<sim::SimJob> jobs;
    std::vector<std::string> digests;  ///< jobDigest of each job
    /** Per job: the index (in this batch) of the fault-free run whose
     *  archDigest a transparent-fault job must reproduce, or -1 when
     *  the job injects no faults. */
    std::vector<long> faultRef;
};

/** A job's place in Traffic::batches. */
struct JobRef
{
    std::size_t batch = 0;
    std::size_t pos = 0;
};

struct Traffic
{
    std::vector<FigureBatch> batches;
    /** The first submission of every distinct digest, in submission
     *  order: the job set a cold regeneration of every figure runs. */
    std::vector<JobRef> unionJobs;
    /** Indices into unionJobs of the sampled jobs (see sampleUnion). */
    std::vector<std::size_t> sample;

    const sim::SimJob &
    job(JobRef r) const
    {
        return batches[r.batch].jobs[r.pos];
    }

    const std::string &
    digest(JobRef r) const
    {
        return batches[r.batch].digests[r.pos];
    }

    /** The sampled jobs, in union order (the sweep-cold batch). */
    std::vector<sim::SimJob> sampleJobs() const;

    /** Per figure, its batch restricted to sampled digests, in batch
     *  order and with the batch's own duplicates (sweep-warm). */
    std::vector<std::vector<sim::SimJob>> sampledBatches() const;
};

/** One job in kSampleStride of each stratum is sampled. */
inline constexpr std::size_t kSampleStride = 4;

/**
 * Build and digest the batches of fig5..fig16 for @p params, then
 * form the union and its sample. Strata are (figure, job label), e.g.
 * (fig14, "dtt k=2"); each stratum lists its jobs in workload order,
 * and the s-th stratum of a figure keeps the jobs at positions
 * j with j % kSampleStride == s % kSampleStride. The rule depends on
 * the batch structure only, never on the seed, so every seed samples
 * the same (figure, label, workload) cells and each figure keeps its
 * share of the traffic.
 */
Traffic buildTraffic(const bench::Harness &h,
                     const workloads::WorkloadParams &params);

/** One job of the single-threaded simulator probe. */
struct ProbeJob
{
    std::string cls;  ///< base, dtt, sp, reuse, corunner or fault
    sim::SimJob job;
};

/** The probe's job classes, in report order. */
const std::vector<std::string> &probeClasses();

/**
 * The fixed probe sample: every class on the same workloads at the
 * default parameters (seed 12345, whatever the benchmark's --seed),
 * so its simulated counts repeat exactly in every run.
 */
std::vector<ProbeJob> probeJobs(const bench::Harness &h);

/** A program the characterization binaries profile. */
struct Subject
{
    std::string name;
    isa::Program program;
};

/** Each workload's baseline build, as fig2/3/4, tab2 and tab3 use. */
std::vector<Subject>
characterizeSubjects(const workloads::WorkloadParams &params);

} // namespace perfbench
