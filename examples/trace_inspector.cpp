/**
 * @file
 * trace_inspector: a command-line dump tool for Aftermath trace files.
 *
 * Usage: trace_inspector <trace-file> [--states] [--counters] [--tasks]
 *                        [--workers N]
 *
 * Prints the header, topology, per-CPU event inventories and summary
 * statistics of a trace file; with flags, dumps the individual records.
 * Loading uses the two-phase parallel reader — one decode worker per
 * hardware thread by default, --workers N to pin the count (the
 * materialized trace is bit-identical at any setting). Also
 * demonstrates symbol resolution: if a file <trace>.nm exists (nm text
 * output), task type addresses are resolved to function names.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>

#include "aftermath.h"

using namespace aftermath;

namespace {

void
printSummary(Session &session, const symbols::SymbolTable &syms)
{
    const trace::Trace &tr = session.trace();
    std::printf("machine: %u cpus, %u NUMA nodes, %.2f GHz\n",
                tr.numCpus(), tr.topology().numNodes(),
                static_cast<double>(tr.cpuFreqHz()) / 1e9);
    std::printf("span: %s\n", humanCycles(tr.span().duration()).c_str());

    std::uint64_t states = 0, samples = 0, discrete = 0, comm = 0;
    for (CpuId c = 0; c < tr.numCpus(); c++) {
        states += tr.cpu(c).states().size();
        for (CounterId id : tr.cpu(c).counterIds())
            samples += tr.cpu(c).counterSamples(id).size();
        discrete += tr.cpu(c).discreteEvents().size();
        comm += tr.cpu(c).commEvents().size();
    }
    std::printf("events: %llu states, %llu counter samples, "
                "%llu discrete, %llu comm\n",
                static_cast<unsigned long long>(states),
                static_cast<unsigned long long>(samples),
                static_cast<unsigned long long>(discrete),
                static_cast<unsigned long long>(comm));
    std::printf("tasks: %zu instances of %zu types\n",
                tr.taskInstances().size(), tr.taskTypes().size());
    std::printf("memory: %zu regions, %zu accesses\n",
                tr.memRegions().size(), tr.memAccesses().size());

    std::printf("\ntask types:\n");
    for (const auto &[id, type] : tr.taskTypes()) {
        const symbols::Symbol *sym = syms.lookup(id);
        std::printf("  0x%llx  %-24s %s\n",
                    static_cast<unsigned long long>(id),
                    type.name.c_str(),
                    sym ? (std::string("[nm: ") + sym->name + "]").c_str()
                        : "");
    }

    std::printf("\nstate breakdown:\n");
    const stats::IntervalStats &s = session.intervalStats();
    for (const auto &[state, time] : s.timeInState) {
        std::printf("  %-18s %6.2f%%\n", tr.stateName(state).c_str(),
                    100.0 * s.stateFraction(state));
    }
}

void
dumpStates(const trace::Trace &tr)
{
    for (CpuId c = 0; c < tr.numCpus(); c++) {
        std::printf("cpu %u:\n", c);
        for (const trace::StateEvent &ev : tr.cpu(c).states()) {
            std::printf("  [%llu, %llu) %s",
                        static_cast<unsigned long long>(
                            ev.interval.start),
                        static_cast<unsigned long long>(ev.interval.end),
                        tr.stateName(ev.state).c_str());
            if (ev.task != kInvalidTaskInstance)
                std::printf(" task %llu",
                            static_cast<unsigned long long>(ev.task));
            std::printf("\n");
        }
    }
}

void
dumpCounters(const trace::Trace &tr)
{
    for (CpuId c = 0; c < tr.numCpus(); c++) {
        for (CounterId id : tr.cpu(c).counterIds()) {
            std::printf("cpu %u counter %s:\n", c,
                        tr.counterName(id).c_str());
            for (const trace::CounterSample &s :
                 tr.cpu(c).counterSamples(id)) {
                std::printf("  %llu: %lld\n",
                            static_cast<unsigned long long>(s.time),
                            static_cast<long long>(s.value));
            }
        }
    }
}

void
dumpTasks(const trace::Trace &tr)
{
    for (const trace::TaskInstance &task : tr.taskInstances()) {
        std::printf("task %llu type 0x%llx cpu %u [%llu, %llu) "
                    "duration %s\n",
                    static_cast<unsigned long long>(task.id),
                    static_cast<unsigned long long>(task.type), task.cpu,
                    static_cast<unsigned long long>(task.interval.start),
                    static_cast<unsigned long long>(task.interval.end),
                    humanCycles(task.duration()).c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: %s <trace-file> [--states] [--counters] "
                     "[--tasks] [--workers N]\n"
                     "(generate one with the quickstart example)\n",
                     argv[0]);
        return 2;
    }

    unsigned workers = 0; // 0 = one decode worker per hardware thread.
    for (int i = 2; i < argc - 1; i++) {
        if (!std::strcmp(argv[i], "--workers"))
            workers = static_cast<unsigned>(std::atoi(argv[i + 1]));
    }
    if (workers == 0)
        workers = base::ThreadPool::defaultWorkers();

    // The reader borrows a pool; with one worker it decodes on this
    // thread alone.
    std::unique_ptr<base::ThreadPool> pool;
    if (workers > 1)
        pool = std::make_unique<base::ThreadPool>(workers);
    trace::ReadOptions options;
    options.pool = pool.get();
    trace::ReadResult result = trace::readTraceFile(argv[1], options);
    if (!result.ok) {
        std::fprintf(stderr, "error: %s\n", result.error.c_str());
        return 1;
    }
    std::printf("%s: %zu bytes, %s encoding\n\n", argv[1],
                result.bytesRead,
                result.encoding == trace::Encoding::Compact ? "compact"
                                                            : "raw");

    // Optional nm sidecar for symbol resolution (paper section VI-C).
    symbols::SymbolTable syms;
    std::ifstream nm_file(std::string(argv[1]) + ".nm");
    if (nm_file)
        syms = symbols::SymbolTable::parseNm(nm_file);

    // The session owns the loaded trace for the rest of the run.
    Session session(std::move(result.trace));
    printSummary(session, syms);
    for (int i = 2; i < argc; i++) {
        if (!std::strcmp(argv[i], "--states"))
            dumpStates(session.trace());
        else if (!std::strcmp(argv[i], "--counters"))
            dumpCounters(session.trace());
        else if (!std::strcmp(argv[i], "--tasks"))
            dumpTasks(session.trace());
    }
    return 0;
}
