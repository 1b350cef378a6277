#include "checks.h"

#include "common/log.h"
#include "cpu/executor.h"
#include "sim/engine.h"

namespace perfbench {

namespace cpu = dttsim::cpu;
using dttsim::strfmt;

namespace {

void
expectLe(const std::string &what, const char *small, std::uint64_t a,
         const char *large, std::uint64_t b, Failures &out)
{
    if (a > b)
        out.push_back(strfmt("%s: %s %llu > %s %llu", what.c_str(),
                             small, static_cast<unsigned long long>(a),
                             large,
                             static_cast<unsigned long long>(b)));
}

void
expectEq(const std::string &what, const char *field, std::uint64_t got,
         std::uint64_t want, Failures &out)
{
    if (got != want)
        out.push_back(strfmt("%s: %s %llu != %llu", what.c_str(), field,
                             static_cast<unsigned long long>(got),
                             static_cast<unsigned long long>(want)));
}

} // namespace

void
checkInvariants(const std::string &what, const sim::SimResult &r,
                Failures &out)
{
    if (!r.halted || r.hitMaxCycles)
        out.push_back(what + ": did not halt");
    expectEq(what, "totalCommitted", r.totalCommitted,
             r.mainCommitted + r.dttCommitted, out);
    expectLe(what, "l1dMisses", r.l1dMisses, "l1dAccesses",
             r.l1dAccesses, out);
    expectLe(what, "l1iMisses", r.l1iMisses, "l1iAccesses",
             r.l1iAccesses, out);
    expectLe(what, "l2Misses", r.l2Misses, "l2Accesses", r.l2Accesses,
             out);
    expectLe(what, "condMispredicts", r.condMispredicts,
             "condBranches", r.condBranches, out);
}

ReferenceRun
referenceRun(const std::string &workload, const sim::SimJob &base,
             const sim::SimJob &dtt)
{
    ReferenceRun ref;
    ref.workload = workload;

    cpu::FunctionalRunner runner(base.program);
    const cpu::FuncRunResult fr = runner.run();
    ref.functionalChecksum =
        workloads::resultChecksum(base.program, runner.memory());
    ref.functionalMainInsts = fr.mainInstructions;

    sim::Simulator baseSim(base.config, base.program);
    ref.base = baseSim.run();
    ref.baseChecksum = workloads::resultChecksum(
        base.program, baseSim.core().memory());

    sim::Simulator dttSim(dtt.config, dtt.program);
    ref.dtt = dttSim.run();
    ref.dttChecksum = workloads::resultChecksum(
        dtt.program, dttSim.core().memory());
    return ref;
}

void
checkReference(const ReferenceRun &r, Failures &out)
{
    expectEq(r.workload + " baseline", "result checksum",
             r.baseChecksum, r.functionalChecksum, out);
    expectEq(r.workload + " dtt", "result checksum", r.dttChecksum,
             r.functionalChecksum, out);
    expectEq(r.workload + " baseline", "mainCommitted",
             r.base.mainCommitted, r.functionalMainInsts, out);
    checkInvariants(r.workload + " baseline", r.base, out);
    checkInvariants(r.workload + " dtt", r.dtt, out);
}

void
checkFaultDigest(const std::string &what, std::uint64_t got,
                 std::uint64_t want, Failures &out)
{
    if (got != want)
        out.push_back(strfmt("%s: archDigest %016llx != fault-free "
                             "%016llx",
                             what.c_str(),
                             static_cast<unsigned long long>(got),
                             static_cast<unsigned long long>(want)));
}

void
checkStoreRecord(const std::string &digest,
                 const std::optional<sim::ResultStore::Record> &rec,
                 const sim::SimResult &want, Failures &out)
{
    if (!rec) {
        out.push_back("store record " + digest + ": missing");
        return;
    }
    if (rec->digest != digest)
        out.push_back("store record " + digest + ": keyed as "
                      + rec->digest);
    if (sim::recordCrc(rec->digest, rec->status, rec->attempts,
                       rec->result)
        != rec->crc)
        out.push_back("store record " + digest + ": crc mismatch");
    if (!(rec->result == want))
        out.push_back("store record " + digest
                      + ": differs from the simulated result");
}

void
checkShadow(const std::string &what,
            const analysis::ShadowReport &cycleLevel,
            const analysis::ShadowReport &functional, Failures &out)
{
    expectEq(what + " shadow", "instructions", cycleLevel.instructions,
             functional.instructions, out);
    expectEq(what + " shadow", "loads", cycleLevel.loads,
             functional.loads, out);
    expectEq(what + " shadow", "redundantLoads",
             cycleLevel.redundantLoads, functional.redundantLoads, out);
}

void
checkRedundancy(const std::string &what,
                const profile::RedundancyReport &r, Failures &out)
{
    expectLe(what, "redundantLoads", r.redundantLoads, "loads", r.loads,
             out);
    expectLe(what, "silentStores", r.silentStores, "stores", r.stores,
             out);
}

} // namespace perfbench
