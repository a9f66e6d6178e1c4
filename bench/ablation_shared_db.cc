/**
 * @file
 * Ablation A5 — shared persistent data structures (Section 2.2's
 * "must deal with these aliases correctly" case).
 *
 * A database object is mapped by a server and four clients. In the
 * FIXED variant every mapping sits at an address the data structure
 * dictates (unaligned aliases are unavoidable); in the ALIGNED variant
 * the kernel picks the clients' addresses. The sweep shows:
 *
 *  - fixed addresses cost real consistency work under EVERY policy —
 *    this is the residual price of convenience the paper concedes;
 *  - the lazy CMU scheme still beats the eager one on exactly this
 *    worst case, because reads between writers of the same colour
 *    and repeated reader faults cost page ops only when the state
 *    machine says data could actually be stale;
 *  - letting the kernel choose addresses makes the whole problem
 *    disappear.
 */

#include <cstdio>

#include "bench/suites.hh"
#include "common/table.hh"
#include "workload/db_server.hh"

namespace vic::bench
{
namespace
{

std::vector<RunSpec>
sharedDbSpecs()
{
    std::vector<RunSpec> specs;
    for (bool fixed : {true, false}) {
        for (const auto &cfg :
             {PolicyConfig::configA(), PolicyConfig::configB(),
              PolicyConfig::configF()}) {
            RunSpec spec;
            spec.suite = "shared-db";
            spec.id = std::string("shared-db/") +
                      (fixed ? "fixed" : "aligned") + "/" +
                      policyTag(cfg);
            spec.make = [fixed] {
                DbServer::Params p;
                p.fixedAddresses = fixed;
                return std::make_unique<DbServer>(p);
            };
            spec.policy = cfg;
            spec.seed = DbServer::Params{}.seed;
            specs.push_back(std::move(spec));
        }
    }
    return specs;
}

bool
sharedDbReport(const std::vector<RunOutcome> &outcomes)
{
    Table t({"Variant", "Policy", "Elapsed (s)", "Cons faults",
             "D flushes", "D purges"});
    std::uint64_t fixed_f_ops = 0, aligned_f_ops = 0;

    // Spec order: fixed {A, B, F}, then aligned {A, B, F}.
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const RunResult &r = outcomes[i].result;
        t.row();
        t.cell(r.workload);
        t.cell(r.policy);
        t.cell(r.seconds, 4);
        t.cell(r.consistencyFaults());
        t.cell(r.dPageFlushes());
        t.cell(r.dPagePurges());
        if (i % 3 == 2) {
            (i < 3 ? fixed_f_ops : aligned_f_ops) =
                r.dPageFlushes() + r.dPagePurges();
        }
    }
    t.print();

    std::printf("\nexpected shape: fixed addresses cost consistency "
                "work under every policy (lazy F\n");
    std::printf("least); kernel-chosen aligned addresses eliminate it "
                "entirely.\n");
    std::printf("F fixed=%llu ops, F aligned=%llu ops\n",
                (unsigned long long)fixed_f_ops,
                (unsigned long long)aligned_f_ops);
    const bool shapes_ok =
        fixed_f_ops > 0 && aligned_f_ops < fixed_f_ops / 4;
    return shapeCheck(shapes_ok,
                      "fixed aliases cost ops, aligned aliases "
                      "nearly none");
}

[[maybe_unused]] const bool registered = [] {
    Suite s;
    s.name = "shared-db";
    s.title = "Ablation: shared persistent data structure (db-server)";
    s.paperRef = "Wheeler & Bershad 1992, Section 2.2 (fixed-address "
                 "aliases)";
    s.order = 110;
    s.specs = sharedDbSpecs;
    s.report = sharedDbReport;
    registerSuite(std::move(s));
    return true;
}();

} // anonymous namespace
} // namespace vic::bench
