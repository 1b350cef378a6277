#include "selftest.h"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "checks.h"
#include "harness.h"
#include "profile/shadowprof.h"
#include "sim/engine.h"
#include "sim/resultstore.h"
#include "sim/simulator.h"

namespace perfbench {

namespace bench = dttsim::bench;
namespace cpu = dttsim::cpu;
namespace isa = dttsim::isa;
namespace fs = std::filesystem;

int
selfTest(const std::string &work)
{
    int bad = 0;
    auto expect = [&](const char *name, const Failures &f, bool clean) {
        const bool ok = clean ? f.empty() : !f.empty();
        const std::string why = f.empty() ? "" : "  (" + f[0] + ")";
        std::printf("%-52s %s%s\n", name, ok ? "ok" : "WRONG",
                    why.c_str());
        bad += ok ? 0 : 1;
    };
    char arg0[] = "perfbench";
    char *argv[] = {arg0};
    bench::Harness h(1, argv, {"perfbench", "self-test"});
    const workloads::WorkloadParams params;
    const workloads::Workload &w = workloads::findWorkload("mcf");
    const sim::SimJob base = h.makeJob(
        w, workloads::Variant::Baseline, params,
        bench::Harness::machineConfig(cpu::AccelKind::None));
    const sim::SimJob dtt =
        h.makeJob(w, workloads::Variant::Dtt, params,
                  bench::Harness::machineConfig(cpu::AccelKind::Dtt));
    const ReferenceRun ref = referenceRun("mcf", base, dtt);

    auto refCase = [&](const char *name, auto mutate, bool clean) {
        ReferenceRun r = ref;
        mutate(r);
        Failures f;
        checkReference(r, f);
        expect(name, f, clean);
    };
    refCase("reference: clean", [](ReferenceRun &) {}, true);
    refCase("reference: flipped functional checksum",
            [](ReferenceRun &r) { r.functionalChecksum ^= 1; }, false);
    refCase("reference: flipped dtt checksum",
            [](ReferenceRun &r) { r.dttChecksum ^= 1ull << 40; }, false);
    // Keeps totalCommitted == main + dtt, so only the comparison with
    // the functional run can catch it.
    refCase("reference: baseline commits one extra instruction",
            [](ReferenceRun &r) {
                ++r.base.mainCommitted;
                ++r.base.totalCommitted;
            },
            false);

    auto invCase = [&](const char *name, auto mutate, bool clean) {
        sim::SimResult r = ref.dtt;
        mutate(r);
        Failures f;
        checkInvariants("dtt", r, f);
        expect(name, f, clean);
    };
    invCase("invariants: clean", [](sim::SimResult &) {}, true);
    invCase("invariants: not halted",
            [](sim::SimResult &r) { r.halted = false; }, false);
    invCase("invariants: total != main + dtt",
            [](sim::SimResult &r) { ++r.totalCommitted; }, false);
    invCase("invariants: l1d misses > accesses",
            [](sim::SimResult &r) { r.l1dMisses = r.l1dAccesses + 1; },
            false);
    invCase("invariants: l2 misses > accesses",
            [](sim::SimResult &r) { r.l2Misses = r.l2Accesses + 1; },
            false);

    {
        Failures f;
        checkFaultDigest("fault", ref.dtt.archDigest, ref.dtt.archDigest,
                         f);
        expect("fault plan: clean", f, true);
        f.clear();
        checkFaultDigest("fault", ref.dtt.archDigest ^ 4,
                         ref.dtt.archDigest, f);
        expect("fault plan: flipped archDigest", f, false);
    }

    // Store records: a clean store, a record whose payload byte was
    // flipped on disk, and an in-memory record with a stale crc.
    const std::string dir = work + "/selftest-"
        + std::to_string(::getpid());
    fs::remove_all(dir);
    const std::string digest = sim::jobDigest(dtt);
    {
        sim::ResultStore store(dir, sim::ResultStore::Mode::ReadWrite);
        sim::ResultStore::Record rec;
        rec.digest = digest;
        rec.result = ref.dtt;
        store.put(rec);
    }
    std::optional<sim::ResultStore::Record> clean;
    {
        sim::ResultStore store(dir, sim::ResultStore::Mode::ReadOnly);
        clean = store.lookup(digest);
        Failures f;
        checkStoreRecord(digest, clean, ref.dtt, f);
        expect("store record: clean", f, true);
    }
    if (clean) {
        sim::ResultStore::Record stale = *clean;
        ++stale.result.cycles;
        Failures f;
        checkStoreRecord(digest, stale, stale.result, f);
        expect("store record: payload changed, crc kept", f, false);
        f.clear();
        checkStoreRecord(digest, clean, ref.base, f);
        expect("store record: differs from the simulated result", f,
               false);
    }
    {
        // Flip one digit of the "cycles" payload in the segment file.
        bool flipped = false;
        for (const auto &entry : fs::directory_iterator(dir)) {
            const std::string name = entry.path().filename().string();
            if (name.rfind("seg-", 0) != 0)
                continue;
            std::ifstream in(entry.path());
            std::stringstream ss;
            ss << in.rdbuf();
            std::string text = ss.str();
            const std::size_t at = text.find("\"cycles\":");
            if (at == std::string::npos)
                continue;
            std::size_t d = text.find_first_of("0123456789", at);
            text[d] = text[d] == '9' ? '8' : static_cast<char>(text[d] + 1);
            std::ofstream(entry.path(), std::ios::trunc) << text;
            flipped = true;
        }
        sim::ResultStore store(dir, sim::ResultStore::Mode::ReadOnly);
        Failures f;
        checkStoreRecord(digest, store.lookup(digest), ref.dtt, f);
        if (!flipped)
            f.clear();
        expect("store record: flipped payload byte on disk", f, false);
    }
    fs::remove_all(dir);

    {
        const isa::Program prog =
            w.build(workloads::Variant::Baseline, params);
        sim::SimConfig cfg =
            bench::Harness::machineConfig(cpu::AccelKind::None);
        cfg.shadowProfile = true;
        sim::Simulator s(cfg, prog);
        s.run();
        const analysis::ShadowReport cycle = s.shadowReport();
        const analysis::ShadowReport func = profile::profileShadow(prog);
        Failures f;
        checkShadow("mcf", cycle, func, f);
        expect("shadow: clean", f, true);
        analysis::ShadowReport broken = cycle;
        ++broken.redundantLoads;
        f.clear();
        checkShadow("mcf", broken, func, f);
        expect("shadow: one extra redundant load", f, false);

        profile::RedundancyReport red = profile::profileRedundancy(prog);
        f.clear();
        checkRedundancy("mcf", red, f);
        expect("redundancy: clean", f, true);
        red.redundantLoads = red.loads + 1;
        f.clear();
        checkRedundancy("mcf", red, f);
        expect("redundancy: more redundant loads than loads", f, false);
        red = profile::profileRedundancy(prog);
        red.silentStores = red.stores + 1;
        f.clear();
        checkRedundancy("mcf", red, f);
        expect("redundancy: more silent stores than stores", f, false);
    }
    std::printf("self-test: %s\n", bad ? "FAILED" : "every check "
                "accepts clean input and rejects corrupted input");
    return bad ? 1 : 0;
}

} // namespace perfbench
