/**
 * @file
 * The repo benchmark driver: two workloads on two of the user-facing
 * paths, end-to-end metrics from an untraced run and per-layer metrics
 * from a traced one.
 *
 *  - open:    trace file -> loaded Session -> pyramids -> first frame;
 *  - explore: viewport change -> rendered frame (a seeded drill-down).
 *
 * The third path, client request -> aftermathd -> engine -> reply, is
 * a traced pass only (see runServe).
 *
 * Everything goes through public library APIs. The driver records its
 * own spans around each call into a module (trace, index, render,
 * stats, session, daemon, base, runtime); nothing inside src/ is
 * instrumented. See README.md in this directory for the metric map and
 * the procedure.
 *
 * Usage:
 *   perfbench_driver --workload open|explore --seed N
 *                    --seconds S --trace 0|1 [--smoke] [--bad-path-op]
 *
 * The last line of standard output is one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 */

#include <fcntl.h>
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "aftermath.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "daemon/client.h"
#include "daemon/server.h"
#include "stats/export.h"
#include "trace/writer.h"

using namespace aftermath;

namespace {

using Clock = std::chrono::steady_clock;

/** The seed claims are made on, and the one they are re-checked on. */
constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kHoldoutSeed = 7919;

/** Engine workers of every session and of the daemon. */
constexpr unsigned kEngineWorkers = 4;

/** Concurrent client connections of the serve pass. */
constexpr unsigned kServeClients = 2;

constexpr std::uint32_t kFrameWidth = 1920;
constexpr std::uint32_t kFrameHeight = 1080;
constexpr std::uint32_t kHistogramBins = 50;
constexpr std::size_t kHotWindows = 32;

/** Set-ups per run; setup_s is their median. */
constexpr int kSetupReps = 5;
constexpr int kSmokeSetupReps = 2;

/** Where the trace is written, relative to the working directory. */
constexpr const char *kWorkDir = ".bench_build/run";

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** Linear-interpolation percentile (p in [0, 1]); 0 for no samples. */
double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    double rank = p * static_cast<double>(samples.size() - 1);
    std::size_t lo = static_cast<std::size_t>(rank);
    std::size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] + (samples[hi] - samples[lo]) * (rank - lo);
}

double
median(const std::vector<double> &samples)
{
    return percentile(samples, 0.5);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
mib(double bytes)
{
    return bytes / (1024.0 * 1024.0);
}

unsigned
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

/**
 * Moves the driving thread to the next CPU before each op. A closed
 * loop never sleeps, so the scheduler leaves it on the vCPU it started
 * on, and without this a run measures that one vCPU. On a shared
 * 4-vCPU VM the vCPUs differ in speed by up to half from moment to
 * moment (they share host cores with other tenants): unpinned
 * `explore` runs of one build read either about 19 or about 27 ms per
 * step. A viewer's UI thread sleeps between interactions and wakes on
 * whichever CPU is free; rotating gives the loop the same spread. A new
 * thread inherits its creator's CPU mask, so the driving thread is
 * pinned only while the library starts no threads.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&all_);
        if (sched_getaffinity(0, sizeof(all_), &all_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; c++)
            if (CPU_ISSET(c, &all_))
                cpus_.push_back(c);
    }

    ~CpuRotation() { release(); }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Pin the calling thread to the next CPU in turn. */
    void
    next()
    {
        if (cpus_.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);
    }

    /** Give the calling thread all its CPUs back. */
    void
    release()
    {
        if (!cpus_.empty())
            sched_setaffinity(0, sizeof(all_), &all_);
    }

  private:
    cpu_set_t all_;
    std::vector<int> cpus_;
    std::size_t turn_ = 0;
};

double
peakRssMib()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

// -- Spans ---------------------------------------------------------------

/** One timed call into a layer, tagged with the op that caused it. */
struct SpanRecord
{
    const char *name;
    std::uint64_t op;
    double startMs;
    double durationMs;
};

/**
 * In-memory span log of one driving thread. Disabled logs record
 * nothing: the untraced run and the untraced half of a traced run pay
 * one branch per span.
 */
class SpanLog
{
  public:
    bool enabled = false;

    void
    add(const char *name, std::uint64_t op, Clock::time_point start,
        Clock::time_point end)
    {
        using Ms = std::chrono::duration<double, std::milli>;
        records_.push_back({name, op, Ms(start - epoch()).count(),
                            Ms(end - start).count()});
    }

    /** The zero of every log's start times (first use, early in main). */
    static Clock::time_point
    epoch()
    {
        static const Clock::time_point zero = Clock::now();
        return zero;
    }

    const std::vector<SpanRecord> &records() const { return records_; }

    void
    append(const SpanLog &other)
    {
        records_.insert(records_.end(), other.records_.begin(),
                        other.records_.end());
    }

    /** Durations of every span called @p name. */
    std::vector<double>
    durations(const std::string &name) const
    {
        std::vector<double> out;
        for (const SpanRecord &r : records_)
            if (name == r.name)
                out.push_back(r.durationMs);
        return out;
    }

    /** Per-op total duration of the spans called @p name. */
    std::vector<double>
    perOpTotals(const std::string &name) const
    {
        std::map<std::uint64_t, double> totals;
        for (const SpanRecord &r : records_)
            if (name == r.name)
                totals[r.op] += r.durationMs;
        std::vector<double> out;
        for (const auto &[op, total] : totals)
            out.push_back(total);
        return out;
    }

  private:
    std::vector<SpanRecord> records_;
};

/** RAII span around one call; a no-op when the log is disabled. */
class Span
{
  public:
    Span(SpanLog &log, const char *name, std::uint64_t op)
        : log_(log.enabled ? &log : nullptr), name_(name), op_(op),
          start_(Clock::now())
    {}

    ~Span()
    {
        if (log_)
            log_->add(name_, op_, start_, Clock::now());
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanLog *log_;
    const char *name_;
    std::uint64_t op_;
    Clock::time_point start_;
};

// -- Metrics output ------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

class MetricSet
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
    }

    std::string
    json() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < metrics_.size(); i++) {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].value);
            out += (i ? ", \"" : "\"") + metrics_[i].name +
                   "\": {\"value\": " + buf + ", \"unit\": \"" +
                   metrics_[i].unit + "\"}";
        }
        return out + "}";
    }

  private:
    std::vector<Metric> metrics_;
};

// -- Options -------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool traced = false;
    bool smoke = false;
    bool badPathOp = false;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\n"
                 "usage: perfbench_driver --workload open|explore "
                 "--seed N --seconds S --trace 0|1 [--smoke] "
                 "[--bad-path-op]\n",
                 msg);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            o.workload = value();
            have_workload = true;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(value().c_str(), nullptr);
        } else if (arg == "--trace") {
            o.traced = value() == "1";
        } else if (arg == "--smoke") {
            o.smoke = true;
        } else if (arg == "--bad-path-op") {
            o.badPathOp = true;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (!have_workload || (o.workload != "open" && o.workload != "explore"))
        usage("--workload must be open or explore");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    return o;
}

// -- Setup: simulate the seidel scenario and write it --------------------

/** What one simulate-and-write child reports back. */
struct SimReport
{
    int ok = 0;
    double simulateS = 0.0;
    double writeMs = 0.0;
    std::uint64_t fileBytes = 0;
    char error[200] = {};
};

/**
 * The paper's seidel scenario on the 192-CPU UV2000-like machine, at
 * the reduced scale of the figure benches (64 x 64 blocks of 128^2,
 * 30 sweeps: 126,976 tasks). --smoke shrinks it to a few hundred tasks
 * on 8 CPUs.
 */
SimReport
simulateAndWrite(const Options &o, const std::string &path)
{
    SimReport report;
    runtime::RuntimeConfig config;
    workloads::SeidelParams params;
    if (o.smoke) {
        config.machine = machine::MachineSpec::small(2, 4);
        params.blocksX = params.blocksY = 8;
        params.blockDim = 32;
        params.iterations = 4;
    } else {
        config.machine = machine::MachineSpec::uv2000();
        params.blocksX = params.blocksY = 64;
        params.blockDim = 128;
        params.iterations = 30;
    }
    config.seed = o.seed;
    config.cost.cyclesPerWorkUnit = 1.0;
    config.cost.cyclesPerByteLocal = 0.5;
    config.cost.pageFaultCycles = 90'000;
    config.cost.taskCreationCycles = 900;
    config.cost.durationNoise = 0.03;
    params.workPerElement = 1;
    params.numNodes = config.machine.topology.numNodes();

    auto start = Clock::now();
    runtime::RunResult run =
        runtime::RuntimeSystem(config).run(workloads::buildSeidel(params));
    report.simulateS = msSince(start) / 1000.0;
    if (!run.ok) {
        std::snprintf(report.error, sizeof(report.error), "simulation: %s",
                      run.error.c_str());
        return report;
    }
    start = Clock::now();
    std::string error;
    if (!trace::writeTraceFile(run.trace, path, trace::Encoding::Compact,
                               error)) {
        std::snprintf(report.error, sizeof(report.error), "write: %s",
                      error.c_str());
        return report;
    }
    report.writeMs = msSince(start);
    report.fileBytes = std::filesystem::file_size(path);
    report.ok = 1;
    return report;
}

/**
 * simulateAndWrite() in a forked child, so the simulator's memory never
 * counts towards the workload's peak RSS. Called only while the
 * process has no other threads.
 */
SimReport
simulateInChild(const Options &o, const std::string &path)
{
    int fds[2];
    if (pipe(fds) != 0) {
        SimReport r;
        std::snprintf(r.error, sizeof(r.error), "pipe failed");
        return r;
    }
    pid_t pid = fork();
    if (pid == 0) {
        close(fds[0]);
        SimReport r = simulateAndWrite(o, path);
        ssize_t written = write(fds[1], &r, sizeof(r));
        _exit(written == static_cast<ssize_t>(sizeof(r)) && r.ok ? 0 : 1);
    }
    close(fds[1]);
    SimReport r;
    ssize_t got = pid > 0 ? read(fds[0], &r, sizeof(r)) : -1;
    close(fds[0]);
    int status = 0;
    if (pid > 0)
        waitpid(pid, &status, 0);
    if (got != static_cast<ssize_t>(sizeof(r))) {
        r = SimReport{};
        std::snprintf(r.error, sizeof(r.error), "simulation child failed");
    }
    return r;
}

std::vector<std::uint8_t>
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>());
}

template <typename Value>
std::vector<std::uint8_t>
encoded(const Value &value,
        void (*encode)(const Value &, ByteWriter &))
{
    ByteWriter w;
    encode(value, w);
    return w.take();
}

/** Wait for @p ticket; nullopt when the query was cancelled. */
template <typename Result>
std::optional<Result>
await(session::QueryTicket<Result> ticket)
{
    if (ticket.wait() != session::QueryStatus::Done)
        return std::nullopt;
    return ticket.take();
}

/** A session over an empty finalized trace, with kEngineWorkers. */
Session
emptySession()
{
    trace::Trace empty;
    std::string error;
    empty.finalize(error);
    Session s(std::move(empty));
    s.setConcurrency({kEngineWorkers});
    return s;
}

// -- Workload results ----------------------------------------------------

/** What one workload pass measured. */
struct PassResult
{
    std::vector<double> opMs;         ///< Every measured op.
    std::vector<double> tracedOpMs;   ///< Ops run with spans on.
    std::vector<double> untracedOpMs; ///< Ops run with spans off.
    double measuredS = 0.0;  ///< Wall time of the measured loop.
    double peakRssMib = 0.0; ///< Peak RSS at the end of the phase.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t checked = 0; ///< Output checks made.
    SpanLog spans;
    std::map<std::string, double> layer; ///< Per-layer values by name.
};

/**
 * Whether op @p index of a pass runs with spans: every op of a traced
 * companion pass, alternate ops of the traced main pass (so tracing
 * overhead is measured against interleaved untraced ops), none of an
 * untraced pass.
 */
enum class TraceMode
{
    Off,
    Alternate,
    All,
};

bool
tracedOp(TraceMode mode, std::uint64_t index)
{
    return mode == TraceMode::All ||
           (mode == TraceMode::Alternate && index % 2 == 0);
}

void
recordOp(PassResult &pass, bool traced, double ms)
{
    pass.opMs.push_back(ms);
    (traced ? pass.tracedOpMs : pass.untracedOpMs).push_back(ms);
}

/**
 * Median share of each op's time covered by the spans nested inside it,
 * in %: how much of the op the named layers account for.
 */
double
spanCoveragePct(const SpanLog &log, const char *op_span)
{
    std::map<std::uint64_t, const SpanRecord *> ops;
    for (const SpanRecord &r : log.records())
        if (std::strcmp(r.name, op_span) == 0)
            ops[r.op] = &r;
    std::map<std::uint64_t, double> child_ms;
    for (const SpanRecord &r : log.records()) {
        auto it = ops.find(r.op);
        if (it == ops.end() || &r == it->second)
            continue;
        const SpanRecord &op = *it->second;
        if (r.startMs >= op.startMs &&
            r.startMs + r.durationMs <= op.startMs + op.durationMs)
            child_ms[r.op] += r.durationMs;
    }
    std::vector<double> shares;
    for (const auto &[id, op] : ops)
        shares.push_back(100.0 * ratio(child_ms[id], op->durationMs));
    return median(shares);
}

// -- open: repeated cold opens -------------------------------------------

/**
 * One cold open: a fresh session loads the file on its engine, swaps it
 * in, builds the pyramids, renders the first full-span frame and
 * computes the whole-span statistics. Returns the session (null on
 * failure); closing it is the caller's, outside the op.
 */
std::unique_ptr<Session>
openOnce(const std::string &path, SpanLog &log, std::uint64_t op,
         CpuRotation *rotation = nullptr)
{
    Span op_span(log, "open.op", op);
    std::unique_ptr<Session> s;
    {
        Span span(log, "session.create", op);
        s = std::make_unique<Session>(emptySession());
    }
    session::TraceLoadQuery load;
    load.path = path;
    std::optional<session::TraceLoadResult> loaded;
    {
        Span span(log, "trace.load", op);
        loaded = await(s->submit(load));
    }
    if (!loaded || !loaded->ok)
        return nullptr;
    // The load started the session's workers; from here on the op
    // starts no thread, so the driving thread may be pinned.
    if (rotation)
        rotation->next();
    {
        Span span(log, "session.set_trace", op);
        s->setTrace(std::move(loaded->trace));
    }
    {
        Span span(log, "index.pyramid_build", op);
        if (!await(s->submit(session::PyramidBuildQuery{})))
            return nullptr;
    }
    {
        Span span(log, "render.first_frame", op);
        render::Framebuffer fb(kFrameWidth, kFrameHeight);
        render::TimelineConfig config;
        config.resolution = Resolution::pixels(kFrameWidth);
        s->render(config, fb);
    }
    {
        Span span(log, "stats.first_stats", op);
        session::IntervalStatsQuery query{{s->trace().span()}};
        if (!await(s->submit(query)))
            return nullptr;
    }
    return s;
}

PassResult
runOpen(const Options &o, const std::string &path, double seconds,
        TraceMode mode)
{
    PassResult pass;
    const std::vector<std::uint8_t> expected = readFileBytes(path);
    const double file_mib = mib(static_cast<double>(expected.size()));

    // Two untimed ops so the page cache and allocator are warm.
    for (int i = 0; i < 2; i++)
        openOnce(path, pass.spans, ~0ull);

    // The run lasts `seconds` of op time. The measured loop's wall time
    // also counts each session's close, but not the output checks (a
    // full re-encode).
    std::uint64_t index = 0;
    double op_s = 0.0, check_s = 0.0;
    CpuRotation rotation;
    auto loop_start = Clock::now();
    while (op_s < seconds || index == 0) {
        pass.spans.enabled = tracedOp(mode, index);
        auto start = Clock::now();
        std::unique_ptr<Session> opened =
            openOnce(path, pass.spans, index, &rotation);
        double ms = msSince(start);
        op_s += ms / 1000.0;
        pass.attempted++;
        recordOp(pass, pass.spans.enabled, ms);
        bool ok = opened != nullptr;
        // Re-encode every 4th load and compare with the written file.
        if (ok && (index % 4 == 0 || o.smoke)) {
            auto check_start = Clock::now();
            pass.checked++;
            ok = trace::writeTrace(opened->trace(),
                                   trace::Encoding::Compact) == expected;
            check_s += msSince(check_start) / 1000.0;
        }
        {
            Span span(pass.spans, "session.close", index);
            opened.reset();
        }
        // Unpinned again before the next session starts its workers.
        rotation.release();
        if (!ok)
            pass.failed++;
        index++;
    }
    pass.measuredS = msSince(loop_start) / 1000.0 - check_s;
    pass.spans.enabled = false;
    pass.peakRssMib = peakRssMib();

    if (o.badPathOp) {
        Session s = emptySession();
        session::TraceLoadQuery load;
        load.path = path + ".missing";
        std::optional<session::TraceLoadResult> r = await(s.submit(load));
        pass.attempted++;
        if (!r || !r->ok)
            pass.failed++;
    }

    const SpanLog &log = pass.spans;
    double load_ms = median(log.durations("trace.load"));
    pass.layer["trace.load_ms"] = load_ms;
    pass.layer["trace.load_mib_per_s"] = ratio(file_mib, load_ms / 1000.0);
    pass.layer["session.set_trace_ms"] =
        median(log.durations("session.set_trace"));
    pass.layer["index.pyramid_build_ms"] =
        median(log.durations("index.pyramid_build"));
    pass.layer["render.first_frame_ms"] =
        median(log.durations("render.first_frame"));
    pass.layer["stats.first_stats_ms"] =
        median(log.durations("stats.first_stats"));
    pass.layer["session.create_ms"] = median(log.durations("session.create"));
    pass.layer["session.close_ms"] = median(log.durations("session.close"));
    pass.layer["bench.open_span_coverage_pct"] =
        spanCoveragePct(log, "open.op");
    return pass;
}

// -- explore: a seeded drill-down script ---------------------------------

/** One interaction of the drill-down script. */
struct Step
{
    TimeInterval view;
    bool toggleFilter = false;
    bool anomalyScan = false;
};

/**
 * The drill-down script: episodes that zoom from the full span down to
 * about span/3500 and back out, with a zoom and two pans at every
 * level. Zoom level L maps to span / 2^z with z = 0 at L = 0 and
 * z = L + 0.5 +- 0.3 otherwise, so no level straddles the pixel/leaf
 * boundary where State-mode renders switch between the pyramid and the
 * exact path (z ~ 1.09 at 1920 px). Every episode has the same level
 * mix; the seed moves the zoom centres, the pans and the jitter. The
 * task filter is switched on when the walk passes level 8 going in and
 * off when it passes it coming out, so overview frames never carry a
 * filter. Every 25th step of an episode adds an anomaly scan.
 */
class DrillDown
{
  public:
    static constexpr int kDeepestLevel = 11;
    static constexpr int kFilterLevel = 8;
    static constexpr int kStepsPerLevel = 3; // one zoom + two pans

    DrillDown(const TimeInterval &span, std::uint64_t seed)
        : span_(span), rng_(seed)
    {}

    /** The steps of the next episode. */
    std::vector<Step>
    nextEpisode()
    {
        std::vector<Step> steps;
        std::vector<int> levels;
        for (int l = 0; l <= kDeepestLevel; l++)
            levels.push_back(l);
        for (int l = kDeepestLevel - 1; l >= 1; l--)
            levels.push_back(l);
        double centre = mid(span_);
        for (int level : levels) {
            double z = level == 0 ? 0.0
                                  : level + 0.5 + rng_.nextRange(-0.3, 0.3);
            double width = widthAt(z);
            // Zoom around a point near the centre of the current view.
            centre += rng_.nextRange(-0.25, 0.25) * width;
            for (int k = 0; k < kStepsPerLevel; k++) {
                if (k > 0)
                    centre += rng_.nextRange(-0.5, 0.5) * width;
                Step step;
                step.view = clampView(centre, width);
                centre = mid(step.view);
                step.toggleFilter = k == 0 && level == kFilterLevel;
                step.anomalyScan = steps.size() % 25 == 24;
                steps.push_back(step);
            }
        }
        return steps;
    }

  private:
    static double
    mid(const TimeInterval &iv)
    {
        return 0.5 * (static_cast<double>(iv.start) +
                      static_cast<double>(iv.end));
    }

    double
    widthAt(double z) const
    {
        return static_cast<double>(span_.end - span_.start) /
               std::pow(2.0, z);
    }

    TimeInterval
    clampView(double centre, double width) const
    {
        double lo = static_cast<double>(span_.start);
        double hi = static_cast<double>(span_.end);
        double start = std::clamp(centre - width / 2, lo, hi - width);
        TimeStamp s = static_cast<TimeStamp>(start);
        TimeStamp e = std::min<TimeStamp>(
            span_.end, s + std::max<TimeStamp>(1, static_cast<TimeStamp>(width)));
        return {s, e};
    }

    TimeInterval span_;
    Rng rng_;
};

/** The serial reference of one exact interval-stats query. */
stats::IntervalStats
serialIntervalStats(const trace::Trace &tr, const TimeInterval &interval)
{
    stats::IntervalStats merged;
    merged.interval = interval;
    for (CpuId c = 0; c < tr.numCpus(); c++)
        merged.mergeFrom(stats::intervalStateChunk(tr.cpu(c), interval));
    const auto &instances = tr.taskInstances();
    merged.mergeFrom(stats::intervalTaskChunk(
        instances.data(), instances.data() + instances.size(), interval));
    return merged;
}

/** The explore session plus the per-run constants of its script. */
/** One traced frame: its time, provenance and RenderStats counts. */
struct FrameInfo
{
    double ms;
    bool exact;
    std::uint64_t events, rects, nodes;
};

struct ExploreFixture
{
    Session session = emptySession();
    std::vector<FrameInfo> frames;
    std::vector<CpuId> overlayCpus;
    filter::FilterSet filter;
    render::Framebuffer fb{kFrameWidth, kFrameHeight};
};

bool
loadInto(Session &s, const std::string &path)
{
    session::TraceLoadQuery load;
    load.path = path;
    std::optional<session::TraceLoadResult> loaded = await(s.submit(load));
    if (!loaded || !loaded->ok)
        return false;
    s.setTrace(loaded->trace);
    return true;
}

/** One drill-down step; false if a query came back without a result. */
bool
exploreStep(ExploreFixture &fx, const Step &step, std::uint64_t op,
            SpanLog &log, std::optional<stats::IntervalStats> &stats_out)
{
    Session &s = fx.session;
    Span op_span(log, "explore.op", op);
    {
        Span span(log, "session.set_view", op);
        s.setView(step.view);
    }
    if (step.toggleFilter) {
        Span span(log, "session.set_filters", op);
        if (s.filters().size() == 0)
            s.setFilters(fx.filter);
        else
            s.clearFilters();
    }
    {
        render::TimelineConfig config;
        config.resolution = Resolution::pixels(kFrameWidth);
        auto start = Clock::now();
        const render::RenderStats &frame = s.render(config, fx.fb);
        auto end = Clock::now();
        if (log.enabled) {
            log.add("render.frame", op, start, end);
            fx.frames.push_back(
                {std::chrono::duration<double, std::milli>(end - start)
                     .count(),
                 frame.resolution.exact, frame.eventsVisited,
                 frame.rectOps, frame.resolution.nodesTouched});
        }
    }
    {
        render::TimelineLayout layout = s.layoutFor(fx.fb);
        render::CounterOverlayConfig overlay;
        for (std::size_t i = 0; i < fx.overlayCpus.size(); i++) {
            Span span(log, "render.counter_lane", op);
            s.renderCounterLane(fx.overlayCpus[i],
                                static_cast<CounterId>(i % 2), layout,
                                overlay, fx.fb);
        }
    }
    {
        Span span(log, "stats.interval", op);
        session::IntervalStatsQuery query{{step.view}};
        stats_out = await(s.submit(query));
    }
    if (step.toggleFilter) {
        Span span(log, "stats.histogram", op);
        s.histogram(kHistogramBins);
    }
    if (step.anomalyScan) {
        Span span(log, "stats.anomaly_scan", op);
        s.scanForAnomalies();
    }
    return stats_out.has_value();
}

PassResult
runExplore(const Options &o, const std::string &path, double seconds,
           TraceMode mode)
{
    PassResult pass;
    ExploreFixture fx;
    if (!loadInto(fx.session, path) ||
        !await(fx.session.submit(session::PyramidBuildQuery{}))) {
        pass.attempted = pass.failed = 1;
        return pass;
    }
    Session &s = fx.session;
    // Exact stats of a drill-down are mostly distinct windows: bound the
    // memo the way an interactive client must.
    s.setStatsCacheCapacity(256);
    const trace::Trace &tr = s.trace();
    Rng setup_rng(o.seed * 0x9e3779b97f4a7c15ull + 17);
    // Four watched lanes: the counter overlays of a user following a
    // few workers through the drill-down.
    for (int i = 0; i < 4; i++)
        fx.overlayCpus.push_back(
            static_cast<CpuId>(setup_rng.nextBounded(tr.numCpus())));
    // The filter keeps the dominant task type (the seidel block
    // updates), hiding initialization.
    fx.filter.add(std::make_shared<filter::TaskTypeFilter>(
        std::unordered_set<TaskTypeId>{workloads::kSeidelBlockType}));

    DrillDown script(tr.span(), o.seed);
    // Warm-up: one untimed overview and one zoomed step build the
    // overlay indexes and renderers every later step reuses.
    {
        std::optional<stats::IntervalStats> unused;
        std::vector<Step> warm = DrillDown(tr.span(), ~o.seed).nextEpisode();
        exploreStep(fx, warm.front(), ~0ull, pass.spans, unused);
        exploreStep(fx, warm[warm.size() / 2], ~0ull, pass.spans, unused);
        if (s.filters().size() != 0)
            s.clearFilters();
    }

    struct Sample
    {
        TimeInterval view;
        std::vector<std::uint8_t> bytes;
        std::uint64_t op;
    };
    std::vector<Sample> samples;

    std::uint64_t op = 0;
    double op_s = 0.0;
    // The session's workers exist by now (the load and the warm-up
    // used them), so the steps may be pinned.
    CpuRotation rotation;
    auto loop_start = Clock::now();
    // The run lasts `seconds` of op time, in whole episodes only, so
    // every run has the same zoom-level mix.
    while (op_s < seconds || op == 0) {
        for (const Step &step : script.nextEpisode()) {
            rotation.next();
            pass.spans.enabled = tracedOp(mode, op);
            std::optional<stats::IntervalStats> result;
            auto start = Clock::now();
            bool ok = exploreStep(fx, step, op, pass.spans, result);
            double ms = msSince(start);
            op_s += ms / 1000.0;
            pass.attempted++;
            recordOp(pass, pass.spans.enabled, ms);
            if (!ok)
                pass.failed++;
            else if (op % 8 == 0)
                samples.push_back(
                    {step.view,
                     encoded(*result, stats::encodeIntervalStats), op});
            op++;
        }
    }
    pass.measuredS = msSince(loop_start) / 1000.0;
    rotation.release();
    pass.spans.enabled = false;
    pass.peakRssMib = peakRssMib();

    // Output check: each sampled engine answer is byte-identical to the
    // serial chunk replay of the same window, timed on this thread.
    std::vector<double> serial_ms;
    for (const Sample &sample : samples) {
        auto start = Clock::now();
        stats::IntervalStats serial = serialIntervalStats(tr, sample.view);
        serial_ms.push_back(msSince(start));
        pass.checked++;
        if (encoded(serial, stats::encodeIntervalStats) != sample.bytes)
            pass.failed++;
    }

    if (o.badPathOp) {
        session::TraceLoadQuery load;
        load.path = path + ".missing";
        std::optional<session::TraceLoadResult> r = await(s.submit(load));
        pass.attempted++;
        if (!r || !r->ok)
            pass.failed++;
    }

    // Engine time of the sampled windows, from their stats spans.
    std::map<std::uint64_t, double> stats_by_op;
    for (const SpanRecord &r : pass.spans.records())
        if (std::strcmp(r.name, "stats.interval") == 0)
            stats_by_op[r.op] = r.durationMs;
    std::vector<double> engine_ms, serial_traced_ms;
    for (std::size_t i = 0; i < samples.size(); i++) {
        auto it = stats_by_op.find(samples[i].op);
        if (it == stats_by_op.end())
            continue;
        engine_ms.push_back(it->second);
        serial_traced_ms.push_back(serial_ms[i]);
    }

    const SpanLog &log = pass.spans;
    std::vector<double> all_frames, exact_frames, pyramid_frames, events,
        rects, nodes;
    for (const FrameInfo &f : fx.frames) {
        all_frames.push_back(f.ms);
        (f.exact ? exact_frames : pyramid_frames).push_back(f.ms);
        events.push_back(static_cast<double>(f.events));
        rects.push_back(static_cast<double>(f.rects));
        if (!f.exact) // Exact frames touch no pyramid nodes.
            nodes.push_back(static_cast<double>(f.nodes));
    }
    pass.layer["render.frame_ms_p50"] = median(all_frames);
    pass.layer["render.frame_ms_p90"] = percentile(all_frames, 0.9);
    pass.layer["render.frame_exact_ms_p50"] = median(exact_frames);
    pass.layer["render.frame_pyramid_ms_p50"] = median(pyramid_frames);
    pass.layer["render.events_per_frame"] = median(events);
    pass.layer["render.rects_per_frame"] = median(rects);
    pass.layer["render.nodes_per_frame"] = median(nodes);
    pass.layer["render.counter_lane_ms"] =
        median(log.perOpTotals("render.counter_lane"));
    pass.layer["stats.interval_ms_p50"] =
        median(log.durations("stats.interval"));
    pass.layer["stats.interval_serial_ms_p50"] = median(serial_traced_ms);
    pass.layer["session.stats_speedup"] =
        ratio(median(serial_traced_ms), median(engine_ms));
    pass.layer["stats.histogram_ms"] = median(log.durations("stats.histogram"));
    pass.layer["stats.anomaly_scan_ms"] =
        median(log.durations("stats.anomaly_scan"));
    pass.layer["session.set_view_ms"] =
        median(log.durations("session.set_view"));
    pass.layer["bench.explore_span_coverage_pct"] =
        spanCoveragePct(log, "explore.op");

    session::SessionCacheStats cache = s.cacheStats();
    pass.layer["session.stats_memo_hit_ratio"] =
        ratio(cache.intervalStats.hits, cache.intervalStats.total());
    pass.layer["session.counter_index_hit_ratio"] =
        ratio(cache.counterIndex.hits, cache.counterIndex.total());
    pass.layer["session.renderer_reuse_ratio"] =
        ratio(cache.renderer.hits, cache.renderer.total());
    return pass;
}

// -- serve: an in-process aftermathd with concurrent clients -------------
//
// Traced runs only: it supplies the daemon layer's figures. As an
// end-to-end workload its latencies and throughput moved 2-6x from run
// to run with the host's CPU steal (each request wakes several threads
// across vCPUs), far past any usable bound.

enum class ReqKind
{
    Stats,
    Extrema,
    Histogram,
    Anomaly,
};

const char *
reqSpanName(ReqKind kind)
{
    switch (kind) {
    case ReqKind::Stats: return "daemon.stats_req";
    case ReqKind::Extrema: return "daemon.extrema_req";
    case ReqKind::Histogram: return "daemon.histogram_req";
    case ReqKind::Anomaly: return "daemon.anomaly_req";
    }
    return "daemon.req";
}

/** One request of a client's script. */
struct Request
{
    ReqKind kind = ReqKind::Stats;
    TimeInterval window;
    CpuId cpu = 0;
    CounterId counter = 0;
};

/**
 * A window of log-uniform width between span/2^@p max_log2 and
 * span/2^@p min_log2.
 */
TimeInterval
randomWindow(Rng &rng, const TimeInterval &span, double min_log2 = 2.0,
             double max_log2 = 12.0)
{
    double total = static_cast<double>(span.end - span.start);
    double width = total / std::pow(2.0, rng.nextRange(min_log2, max_log2));
    double start = static_cast<double>(span.start) +
                   rng.nextDouble() * (total - width);
    TimeStamp s = static_cast<TimeStamp>(start);
    return {s, std::min<TimeStamp>(span.end,
                                   s + std::max<TimeStamp>(
                                           1, static_cast<TimeStamp>(width)))};
}

/**
 * A client's seeded request mix: 70% exact interval stats (a fifth of
 * them from the hot set shared by every client), 10% counter extrema,
 * 15% interval histograms and 5% Background anomaly scans of windows
 * up to span/64 — client 0 only; the other clients send those 5% as
 * stats too.
 */
class RequestScript
{
  public:
    RequestScript(std::uint64_t seed, unsigned client, const TimeInterval &span,
                  const std::vector<TimeInterval> &hot, std::uint32_t cpus)
        : rng_(seed * 0x100000001b3ull + client), client_(client),
          span_(span), hot_(hot), cpus_(cpus)
    {}

    Request
    next()
    {
        Request r;
        std::uint64_t roll = rng_.nextBounded(100);
        if (roll < 70 || (roll >= 95 && client_ != 0)) {
            r.kind = ReqKind::Stats;
            r.window = rng_.nextBounded(5) == 0
                ? hot_[rng_.nextBounded(hot_.size())]
                : randomWindow(rng_, span_);
        } else if (roll < 80) {
            r.kind = ReqKind::Extrema;
            r.cpu = static_cast<CpuId>(rng_.nextBounded(cpus_));
            r.counter = static_cast<CounterId>(rng_.nextBounded(2));
            r.window = randomWindow(rng_, span_);
        } else if (roll < 95) {
            r.kind = ReqKind::Histogram;
            r.window = randomWindow(rng_, span_);
        } else {
            r.kind = ReqKind::Anomaly;
            // A region of interest: at most span/64.
            r.window = randomWindow(rng_, span_, 6.0, 12.0);
        }
        return r;
    }

  private:
    Rng rng_;
    unsigned client_;
    TimeInterval span_;
    const std::vector<TimeInterval> &hot_;
    std::uint32_t cpus_;
};

/** Send @p r; the encoded reply, or nullopt if it did not come back Ok. */
std::optional<std::vector<std::uint8_t>>
sendRequest(daemon::Client &client, std::uint64_t trace_id, const Request &r)
{
    switch (r.kind) {
    case ReqKind::Stats: {
        daemon::IntervalStatsRequest q;
        q.head = {trace_id, daemon::WirePriority::Interactive};
        q.interval = r.window;
        auto reply = client.intervalStats(q);
        if (!reply.ok())
            return std::nullopt;
        return encoded(reply.value, stats::encodeIntervalStats);
    }
    case ReqKind::Extrema: {
        daemon::CounterExtremaRequest q;
        q.head = {trace_id, daemon::WirePriority::Interactive};
        q.cpu = r.cpu;
        q.counter = r.counter;
        q.interval = r.window;
        auto reply = client.counterExtrema(q);
        if (!reply.ok())
            return std::nullopt;
        return encoded(reply.value, stats::encodeMinMax);
    }
    case ReqKind::Histogram: {
        daemon::HistogramRequest q;
        q.head = {trace_id, daemon::WirePriority::Interactive};
        q.numBins = kHistogramBins;
        q.interval = r.window;
        auto reply = client.histogram(q);
        if (!reply.ok())
            return std::nullopt;
        return encoded(reply.value, stats::encodeHistogram);
    }
    case ReqKind::Anomaly: {
        daemon::AnomalyScanRequest q;
        q.head = {trace_id, daemon::WirePriority::Background};
        q.interval = r.window;
        auto reply = client.anomalyScan(q);
        if (!reply.ok())
            return std::nullopt;
        return encoded(reply.value, stats::encodeAnomalies);
    }
    }
    return std::nullopt;
}

/** The same request answered by a local Session. */
std::optional<std::vector<std::uint8_t>>
answerLocally(Session &s, const Request &r)
{
    switch (r.kind) {
    case ReqKind::Stats: {
        auto v = await(s.submit(session::IntervalStatsQuery{{r.window}}));
        if (!v)
            return std::nullopt;
        return encoded(*v, stats::encodeIntervalStats);
    }
    case ReqKind::Extrema: {
        session::CounterExtremaQuery q{{r.window}, r.cpu, r.counter};
        auto v = await(s.submit(q));
        if (!v)
            return std::nullopt;
        return encoded(*v, stats::encodeMinMax);
    }
    case ReqKind::Histogram: {
        session::HistogramQuery q{{r.window}, kHistogramBins};
        auto v = await(s.submit(q));
        if (!v)
            return std::nullopt;
        return encoded(*v, stats::encodeHistogram);
    }
    case ReqKind::Anomaly: {
        session::AnomalyScanQuery q;
        q.context.interval = r.window;
        auto v = await(s.submit(q));
        if (!v)
            return std::nullopt;
        return encoded(*v, stats::encodeAnomalies);
    }
    }
    return std::nullopt;
}

/** A started server with every client connected and the trace open. */
struct ServeFixture
{
    std::unique_ptr<daemon::Server> server;
    std::vector<std::unique_ptr<daemon::Client>> clients;
    std::vector<std::uint64_t> traceIds;
    TimeInterval span;
    std::uint32_t numCpus = 0;
    double openMs = 0.0; ///< First (loading) OpenTrace round trip.
    bool ok = false;
};

std::unique_ptr<ServeFixture>
startServer(const std::string &path)
{
    auto fx = std::make_unique<ServeFixture>();
    fx->server = std::make_unique<daemon::Server>(
        daemon::Server::Options{kEngineWorkers, 16});
    for (unsigned c = 0; c < kServeClients; c++) {
        auto client = std::make_unique<daemon::Client>();
        std::string error;
        if (!client->adopt(fx->server->connectInProcess(), error))
            return fx;
        daemon::OpenTraceRequest open;
        open.path = path;
        auto start = Clock::now();
        auto reply = client->openTrace(open);
        if (c == 0)
            fx->openMs = msSince(start);
        if (!reply.ok())
            return fx;
        fx->traceIds.push_back(reply.value.traceId);
        fx->span = reply.value.span;
        fx->numCpus = reply.value.numCpus;
        fx->clients.push_back(std::move(client));
    }
    fx->ok = true;
    return fx;
}

PassResult
runServe(const Options &o, const std::string &path, double seconds)
{
    PassResult pass;
    std::unique_ptr<ServeFixture> fx = startServer(path);
    if (!fx->ok) {
        pass.attempted = pass.failed = 1;
        return pass;
    }
    Rng hot_rng(o.seed ^ 0x5eed);
    std::vector<TimeInterval> hot;
    for (std::size_t i = 0; i < kHotWindows; i++)
        hot.push_back(randomWindow(hot_rng, fx->span));

    struct Sample
    {
        Request request;
        std::vector<std::uint8_t> bytes;
        double ms;
    };
    std::vector<PassResult> results(kServeClients);
    std::vector<std::vector<Sample>> samples(kServeClients);
    std::vector<RequestScript> scripts;
    for (unsigned c = 0; c < kServeClients; c++)
        scripts.emplace_back(o.seed, c, fx->span, hot, fx->numCpus);

    auto drive = [&](unsigned c, Clock::time_point deadline, bool measure) {
        PassResult &cr = results[c];
        std::uint64_t index = 0;
        while (Clock::now() < deadline) {
            Request r = scripts[c].next();
            cr.spans.enabled = measure;
            std::uint64_t op = (static_cast<std::uint64_t>(c) << 48) | index;
            auto start = Clock::now();
            std::optional<std::vector<std::uint8_t>> reply;
            {
                Span span(cr.spans, reqSpanName(r.kind), op);
                reply = sendRequest(*fx->clients[c], fx->traceIds[c], r);
            }
            double ms = msSince(start);
            index++;
            if (!measure)
                continue;
            cr.attempted++;
            recordOp(cr, cr.spans.enabled, ms);
            if (!reply)
                cr.failed++;
            else if (index % 16 == 1 || o.smoke)
                samples[c].push_back({r, std::move(*reply), ms});
        }
        cr.spans.enabled = false;
    };
    auto run_phase = [&](double phase_s, bool measure) {
        auto deadline =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(phase_s));
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < kServeClients; c++)
            threads.emplace_back(drive, c, deadline, measure);
        for (std::thread &t : threads)
            t.join();
    };
    // Warm-up: a short untimed stretch of each client's own script.
    run_phase(std::min(0.5, seconds / 4), false);
    auto phase_start = Clock::now();
    run_phase(seconds, true);
    pass.measuredS = msSince(phase_start) / 1000.0;
    pass.peakRssMib = peakRssMib();

    for (const PassResult &cr : results) {
        pass.opMs.insert(pass.opMs.end(), cr.opMs.begin(), cr.opMs.end());
        pass.tracedOpMs.insert(pass.tracedOpMs.end(), cr.tracedOpMs.begin(),
                               cr.tracedOpMs.end());
        pass.untracedOpMs.insert(pass.untracedOpMs.end(),
                                 cr.untracedOpMs.begin(),
                                 cr.untracedOpMs.end());
        pass.attempted += cr.attempted;
        pass.failed += cr.failed;
        pass.spans.append(cr.spans);
    }

    daemon::Server::Stats server_stats = fx->server->stats();
    pass.layer["daemon.requests"] = static_cast<double>(server_stats.requests);
    pass.layer["daemon.rejected"] = static_cast<double>(server_stats.rejected);
    pass.layer["daemon.protocol_errors"] =
        static_cast<double>(server_stats.protocolErrors);
    pass.layer["daemon.open_ms"] = fx->openMs;
    fx.reset(); // Stop serving before the local replay.

    // Output check: every sampled reply is byte-identical to a fresh
    // local Session answering the same request; the stats replays time
    // the local engine for the wire-overhead estimate.
    Session local = emptySession();
    std::vector<double> daemon_stats_ms, local_stats_ms;
    if (!loadInto(local, path)) {
        pass.failed++;
    } else {
        for (const std::vector<Sample> &client_samples : samples) {
            for (const Sample &sample : client_samples) {
                auto start = Clock::now();
                auto bytes = answerLocally(local, sample.request);
                double ms = msSince(start);
                pass.checked++;
                if (!bytes || *bytes != sample.bytes)
                    pass.failed++;
                if (sample.request.kind == ReqKind::Stats) {
                    daemon_stats_ms.push_back(sample.ms);
                    local_stats_ms.push_back(ms);
                }
            }
        }
    }

    const SpanLog &log = pass.spans;
    pass.layer["daemon.stats_req_ms_p50"] =
        median(log.durations("daemon.stats_req"));
    pass.layer["daemon.histogram_req_ms_p50"] =
        median(log.durations("daemon.histogram_req"));
    pass.layer["daemon.extrema_req_ms_p50"] =
        median(log.durations("daemon.extrema_req"));
    pass.layer["daemon.anomaly_req_ms_p50"] =
        median(log.durations("daemon.anomaly_req"));
    pass.layer["daemon.wire_overhead_ms"] =
        median(daemon_stats_ms) - median(local_stats_ms);
    return pass;
}

// -- base: the thread pool's fixed per-job cost --------------------------

void
probeThreadPool(bool smoke, std::map<std::string, double> &layer)
{
    base::ThreadPool pool(kEngineWorkers);
    const int reps = smoke ? 50 : 2000;
    std::vector<double> roundtrip_us, parallel_for_us;
    for (int i = 0; i < reps; i++) {
        auto start = Clock::now();
        pool.submitTracked([] {}).wait();
        roundtrip_us.push_back(msSince(start) * 1000.0);
    }
    std::atomic<std::uint64_t> sink{0};
    for (int i = 0; i < reps; i++) {
        auto start = Clock::now();
        pool.parallelFor(192, [&](std::size_t u) {
            sink.fetch_add(u, std::memory_order_relaxed);
        });
        parallel_for_us.push_back(msSince(start) * 1000.0);
    }
    layer["base.pool_roundtrip_us"] = median(roundtrip_us);
    layer["base.parallel_for_us"] = median(parallel_for_us);
}

// -- The per-layer metric table ------------------------------------------

struct LayerSpec
{
    const char *name;
    const char *unit;
};

/** Every per-layer metric of a traced run, in output order. */
const LayerSpec kLayerMetrics[] = {
    {"runtime.simulate_s", "s"},
    {"trace.write_ms", "ms"},
    {"trace.file_mib", "MiB"},
    {"trace.load_ms", "ms"},
    {"trace.load_mib_per_s", "MiB/s"},
    {"session.set_trace_ms", "ms"},
    {"index.pyramid_build_ms", "ms"},
    {"render.first_frame_ms", "ms"},
    {"stats.first_stats_ms", "ms"},
    {"session.create_ms", "ms"},
    {"session.close_ms", "ms"},
    {"render.frame_ms_p50", "ms"},
    {"render.frame_ms_p90", "ms"},
    {"render.frame_exact_ms_p50", "ms"},
    {"render.frame_pyramid_ms_p50", "ms"},
    {"render.counter_lane_ms", "ms"},
    {"render.events_per_frame", "count"},
    {"render.rects_per_frame", "count"},
    {"render.nodes_per_frame", "count"},
    {"session.set_view_ms", "ms"},
    {"stats.interval_ms_p50", "ms"},
    {"stats.interval_serial_ms_p50", "ms"},
    {"session.stats_speedup", "x"},
    {"stats.histogram_ms", "ms"},
    {"stats.anomaly_scan_ms", "ms"},
    {"session.stats_memo_hit_ratio", "ratio"},
    {"session.counter_index_hit_ratio", "ratio"},
    {"session.renderer_reuse_ratio", "ratio"},
    {"base.pool_roundtrip_us", "us"},
    {"base.parallel_for_us", "us"},
    {"daemon.stats_req_ms_p50", "ms"},
    {"daemon.histogram_req_ms_p50", "ms"},
    {"daemon.extrema_req_ms_p50", "ms"},
    {"daemon.anomaly_req_ms_p50", "ms"},
    {"daemon.wire_overhead_ms", "ms"},
    {"daemon.open_ms", "ms"},
    {"daemon.requests", "count"},
    {"daemon.rejected", "count"},
    {"daemon.protocol_errors", "count"},
    {"bench.open_span_coverage_pct", "%"},
    {"bench.explore_span_coverage_pct", "%"},
    {"bench.traced_op_ms_p50", "ms"},
    {"bench.untraced_op_ms_p50", "ms"},
    {"bench.trace_overhead_pct", "%"},
};

} // namespace

int
main(int argc, char **argv)
{
    SpanLog::epoch();
    const Options o = parseOptions(argc, argv);
    // Keep freed memory in the process. By default glibc unmaps large
    // blocks and trims the heap when a session closes, so every open
    // faults its ~130 MiB back in. On a VM that hands free guest pages
    // back to its host, those faults cost whatever the host's memory
    // state makes them cost, and they made `open` the noisiest number
    // here. With this, an op pays for the library's work, not for the
    // host's page reclaim.
    mallopt(M_MMAP_MAX, 0);
    mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
    const int setup_reps = o.smoke ? kSmokeSetupReps : kSetupReps;
    const unsigned nproc = availableCpus();
    // A traced run also drives the serve pass's client connections.
    const unsigned load_threads = o.traced ? kServeClients : 1;
    const unsigned connections = o.traced ? kServeClients : 0;
    if (kEngineWorkers > nproc || load_threads > nproc ||
        connections > nproc) {
        std::fprintf(stderr,
                     "perfbench_driver: thread budget exceeded: %u engine "
                     "workers, %u load threads, %u connections on %u "
                     "CPUs\n",
                     kEngineWorkers, load_threads, connections, nproc);
        return 3;
    }
    std::printf("{\"perfbench_config\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"default_seed\": %llu, \"holdout_seed\": %llu, "
                "\"seconds\": %g, \"trace\": %d, \"smoke\": %d, "
                "\"nproc\": %u, \"engine_workers\": %u, "
                "\"load_threads\": %u, \"client_connections\": %u, "
                "\"setup_reps\": %d}}\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                static_cast<unsigned long long>(kDefaultSeed),
                static_cast<unsigned long long>(kHoldoutSeed), o.seconds,
                o.traced ? 1 : 0, o.smoke ? 1 : 0, nproc, kEngineWorkers,
                load_threads, connections, setup_reps);
    std::fflush(stdout);

    std::error_code ec;
    std::filesystem::create_directories(kWorkDir, ec);
    const std::string path = std::string(kWorkDir) + "/seidel-" +
                             o.workload + "-" + std::to_string(o.seed) + "-" +
                             std::to_string(getpid()) + ".ostv";

    // Set-up, several times: the simulation and the write (in a child,
    // see simulateInChild).
    std::vector<double> setup_s, simulate_s, write_ms;
    double file_mib = 0.0;
    for (int rep = 0; rep < setup_reps; rep++) {
        auto start = Clock::now();
        SimReport sim = simulateInChild(o, path);
        if (!sim.ok) {
            std::fprintf(stderr, "perfbench_driver: set-up failed: %s\n",
                         sim.error);
            std::filesystem::remove(path, ec);
            return 1;
        }
        setup_s.push_back(msSince(start) / 1000.0);
        simulate_s.push_back(sim.simulateS);
        write_ms.push_back(sim.writeMs);
        file_mib = mib(static_cast<double>(sim.fileBytes));
    }

    // Flush the written trace now, so its write-back does not land in
    // the measured phase.
    int fd = open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
        fdatasync(fd);
        close(fd);
    }

    const double companion_s = std::max(o.smoke ? 0.05 : 1.0, o.seconds / 5);
    const TraceMode main_mode = o.traced ? TraceMode::Alternate : TraceMode::Off;
    PassResult main_pass = o.workload == "open"
        ? runOpen(o, path, o.seconds, main_mode)
        : runExplore(o, path, o.seconds, main_mode);

    std::uint64_t attempted = main_pass.attempted;
    std::uint64_t failed = main_pass.failed;
    bool checked = main_pass.checked > 0;
    MetricSet metrics;
    if (!o.traced) {
        metrics.add("setup_s", median(setup_s), "s");
        metrics.add("op_ms_p50", median(main_pass.opMs), "ms");
        metrics.add("op_ms_p90", percentile(main_pass.opMs, 0.9), "ms");
        metrics.add("ops_per_s",
                    ratio(static_cast<double>(main_pass.opMs.size()),
                          main_pass.measuredS),
                    "1/s");
        metrics.add("peak_rss_mib", main_pass.peakRssMib, "MiB");
    } else {
        // Companion passes: the layers this workload leaves idle are
        // measured on a short traced pass of the other workload and of
        // serve, so every traced run reports every layer.
        std::map<std::string, double> layer = main_pass.layer;
        auto merge = [&](PassResult pass) {
            attempted += pass.attempted;
            failed += pass.failed;
            checked = checked && pass.checked > 0;
            for (const auto &[name, value] : pass.layer)
                layer.emplace(name, value);
        };
        if (o.workload != "open")
            merge(runOpen(o, path, companion_s, TraceMode::All));
        if (o.workload != "explore")
            merge(runExplore(o, path, companion_s, TraceMode::All));
        merge(runServe(o, path, companion_s));
        probeThreadPool(o.smoke, layer);

        layer["runtime.simulate_s"] = median(simulate_s);
        layer["trace.write_ms"] = median(write_ms);
        layer["trace.file_mib"] = file_mib;
        double traced = median(main_pass.tracedOpMs);
        double untraced = median(main_pass.untracedOpMs);
        layer["bench.traced_op_ms_p50"] = traced;
        layer["bench.untraced_op_ms_p50"] = untraced;
        layer["bench.trace_overhead_pct"] =
            100.0 * ratio(traced - untraced, untraced);
        for (const LayerSpec &spec : kLayerMetrics) {
            auto it = layer.find(spec.name);
            if (it == layer.end()) {
                std::fprintf(stderr, "perfbench_driver: no value for %s\n",
                             spec.name);
                failed++;
                metrics.add(spec.name, 0.0, spec.unit);
            } else {
                metrics.add(spec.name, it->second, spec.unit);
            }
        }
    }
    std::filesystem::remove(path, ec);

    bool correct = failed == 0 && checked;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                metrics.json().c_str());
    return 0;
}
