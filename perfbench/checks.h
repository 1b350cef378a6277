#pragma once

/**
 * @file
 * Output checks of the benchmark. None of them compares against a
 * saved copy of earlier output: each states a property the program
 * must have (agreement with the functional reference model, an
 * invariant of SimResult, integrity of the result store). Every
 * check appends a one-line description of each violation to a
 * Failures list, so the self-test can feed it corrupted inputs and
 * see it complain.
 */

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/shadow.h"
#include "profile/redundancy.h"
#include "sim/engine.h"
#include "sim/resultstore.h"
#include "sim/simulator.h"
#include "workloads/workload.h"

namespace perfbench {

namespace analysis = dttsim::analysis;
namespace profile = dttsim::profile;
namespace sim = dttsim::sim;
namespace workloads = dttsim::workloads;

using Failures = std::vector<std::string>;

/** halted, totalCommitted == mainCommitted + dttCommitted, and every
 *  miss count at most its access count. */
void checkInvariants(const std::string &what, const sim::SimResult &r,
                     Failures &out);

/** One workload run three ways: functionally (the reference model)
 *  and cycle-level as baseline and as DTT program. */
struct ReferenceRun
{
    std::string workload;
    std::uint64_t functionalChecksum = 0;
    std::uint64_t functionalMainInsts = 0;
    std::uint64_t baseChecksum = 0;
    std::uint64_t dttChecksum = 0;
    sim::SimResult base;
    sim::SimResult dtt;
};

/** Simulate @p base and @p dtt (a workload's baseline and DTT jobs
 *  on the Table-1 machine) and run the baseline program
 *  functionally. */
ReferenceRun referenceRun(const std::string &workload,
                          const sim::SimJob &base,
                          const sim::SimJob &dtt);

/** Both cycle-level runs leave the functional result checksum, and
 *  the baseline commits exactly the functional main instructions. */
void checkReference(const ReferenceRun &r, Failures &out);

/** A job in a transparent fault plan ends with the archDigest of its
 *  fault-free run. */
void checkFaultDigest(const std::string &what, std::uint64_t got,
                      std::uint64_t want, Failures &out);

/** A store record exists for @p digest, passes recordCrc, and holds
 *  exactly @p want. */
void checkStoreRecord(const std::string &digest,
                      const std::optional<sim::ResultStore::Record> &rec,
                      const sim::SimResult &want, Failures &out);

/** The cycle-level shadow profile agrees with profileShadow on
 *  instructions, loads and redundant loads. */
void checkShadow(const std::string &what,
                 const analysis::ShadowReport &cycleLevel,
                 const analysis::ShadowReport &functional,
                 Failures &out);

/** redundantLoads <= loads and silentStores <= stores. */
void checkRedundancy(const std::string &what,
                     const profile::RedundancyReport &r, Failures &out);

} // namespace perfbench
