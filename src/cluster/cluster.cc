#include "cluster/cluster.h"

#include <algorithm>
#include <limits>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "cluster/epoch_pool.h"
#include "common/logging.h"
#include "core/litmus_probe.h"
#include "sim/machine_catalog.h"
#include "workload/suite.h"

namespace litmus::cluster
{

namespace
{

/** Retry-heap order: the earliest (due time, seq) is the front. */
bool
retryLater(const Invocation &a, const Invocation &b)
{
    return std::tie(a.arrival, a.seq) > std::tie(b.arrival, b.seq);
}

} // namespace

unsigned
ClusterConfig::totalMachines() const
{
    unsigned total = 0;
    for (const MachineGroup &group : fleet)
        total += group.count;
    return total;
}

void
ClusterConfig::validate() const
{
    if (fleet.empty())
        fatal("ClusterConfig: fleet spec is empty — need at least "
              "one machine group, e.g. {\"cascade-5218\", 4}");
    for (const MachineGroup &group : fleet) {
        if (group.count == 0)
            fatal("ClusterConfig: machine group '", group.machine,
                  "' has zero machines — drop the group or give it a "
                  "positive count");
        // Resolving an unknown name fatal()s with the catalog listing.
        (void)sim::MachineCatalog::get(group.machine);
    }
    // The dispatch epoch is a whole number of quanta and the fleet
    // clock lives on one shared grid, so every machine type in a
    // fleet must agree on the engine quantum (satisfied trivially by
    // homogeneous fleets and the built-in presets).
    const Seconds quantum =
        sim::MachineCatalog::get(fleet.front().machine).quantum;
    for (const MachineGroup &group : fleet) {
        const sim::MachineConfig mc =
            sim::MachineCatalog::get(group.machine);
        if (mc.quantum != quantum) {
            fatal("ClusterConfig: machine types '",
                  fleet.front().machine, "' (quantum ", quantum,
                  " s) and '", group.machine, "' (quantum ",
                  mc.quantum,
                  " s) disagree on the simulation quantum — a fleet "
                  "shares one quantum grid; give every type the same "
                  "quantum_us (or register variants that agree)");
        }
    }
    if (functionPool.empty())
        fatal("ClusterConfig: functionPool is empty — traffic needs "
              "at least one function to sample (the default is "
              "workload::allFunctions())");
    if (epoch <= 0)
        fatal("ClusterConfig: epoch must be positive");
    if (keepAlive < 0)
        fatal("ClusterConfig: negative keep-alive");
    if (drainCap <= 0)
        fatal("ClusterConfig: drain cap must be positive");
    if (sharingFactor <= 0)
        fatal("ClusterConfig: sharing factor must be positive");
    faults.validate();
}

Seconds
FleetReport::sumMachineBilledSeconds() const
{
    Seconds sum = 0;
    for (const MachineReport &m : machines)
        sum += m.billedCpuSeconds;
    return sum;
}

Seconds
FleetReport::sumMachineLostSeconds() const
{
    Seconds sum = 0;
    for (const MachineReport &m : machines)
        sum += m.lostCpuSeconds;
    return sum;
}

Seconds
FleetReport::sumMachineAbsorbedSeconds() const
{
    Seconds sum = 0;
    for (const MachineReport &m : machines)
        sum += m.absorbedCpuSeconds;
    return sum;
}

bool
identicalTotals(const FleetReport &a, const FleetReport &b)
{
    return a.arrivals == b.arrivals && a.dispatched == b.dispatched &&
           a.rejectedMemory == b.rejectedMemory &&
           a.completions == b.completions &&
           a.coldStarts == b.coldStarts &&
           a.warmStarts == b.warmStarts &&
           a.billedCpuSeconds == b.billedCpuSeconds &&
           a.commercialUsd == b.commercialUsd &&
           a.litmusUsd == b.litmusUsd &&
           a.meanLatency == b.meanLatency && a.makespan == b.makespan &&
           a.crashes == b.crashes &&
           a.killedInvocations == b.killedInvocations &&
           a.retries == b.retries && a.abandoned == b.abandoned &&
           a.lostCpuSeconds == b.lostCpuSeconds &&
           a.absorbedCpuSeconds == b.absorbedCpuSeconds &&
           a.absorbedUsd == b.absorbedUsd;
}

/**
 * One machine's serving state. The engine, the completion buffer, and
 * the live-invocation map are written by the machine's epoch job (one
 * worker thread at a time); everything else is touched only at the
 * single-threaded dispatch/harvest barriers.
 */
struct Cluster::Machine
{
    /** What the fleet remembers about one live invocation. */
    struct Live
    {
        const workload::FunctionSpec *spec = nullptr;
        bool warm = false;

        /** Arrival sequence number (deterministic retry ordering). */
        std::uint64_t seq = 0;

        /** Dispatch attempts already made when this one launched. */
        unsigned attempt = 0;
    };

    /** A completion captured during an epoch, folded in at harvest. */
    struct Completed
    {
        const workload::FunctionSpec *spec = nullptr;
        bool warm = false;
        sim::TaskCounters counters;
        sim::ProbeCapture probe;
        Seconds launchTime = 0;
        Seconds completionTime = 0;

        /** Engine tick (1-based quantum) the completion landed in;
         *  harvest groups folds by its covering epoch barrier. */
        std::uint64_t tick = 0;
    };

    Machine(unsigned idx, sim::MachineConfig machine_config,
            const ClusterConfig &cfg)
        : index(idx), config(std::move(machine_config)),
          engine(config), ledger(cfg.billing)
    {
        engine.onCompletion([this](sim::Task &task) {
            const auto it = live.find(task.id());
            if (it == live.end())
                panic("cluster machine ", index,
                      ": completion for unknown task ", task.id());
            Completed done;
            done.spec = it->second.spec;
            done.warm = it->second.warm;
            done.counters = task.counters();
            done.probe = task.probe();
            done.launchTime = task.launchTime();
            done.completionTime = task.completionTime();
            done.tick = engine.tickCount();
            completed.push_back(std::move(done));
            live.erase(it);
        });
    }

    unsigned index;

    /** The machine's hardware description; config.name is its type. */
    sim::MachineConfig config;

    sim::Engine engine;
    pricing::BillingLedger ledger;

    /** Discount model bound to this machine's type (null = bill
     *  commercially). Borrowed from the config. */
    const pricing::DiscountModel *discountModel = nullptr;

    /** Task id -> invocation bookkeeping (worker-thread local). */
    // LITMUS-LINT-ALLOW(unordered-decl): task-id keyed completion lookup only; completions fold in engine order, never map order
    std::unordered_map<std::uint64_t, Live> live;

    /** Completions buffered during the current epoch. */
    std::vector<Completed> completed;

    /** Idle warm containers: function name -> keep-alive expiries,
     *  oldest first (consumed most-recently-used from the back). */
    // LITMUS-LINT-ALLOW(unordered-decl): find() on dispatch; the only iteration is the expiry sweep in harvest(), an order-independent min+erase fold (audited below)
    std::unordered_map<std::string, std::deque<Seconds>> warmIdle;

    /** Earliest keep-alive expiry across all pools (may be stale-low
     *  after a warm dispatch; sweeps recompute it). The cluster's
     *  expiry heap holds it; the sweep waits for the clock. */
    Seconds nextWarmExpiry = std::numeric_limits<double>::infinity();

    /** Memory committed to live invocations (admission control). */
    Bytes committedMemory = 0;

    std::uint64_t dispatched = 0;
    std::uint64_t coldStarts = 0;
    std::uint64_t warmStarts = 0;
    std::uint64_t completions = 0;
    double latencySum = 0;

    /** @name Fault lifecycle (barrier-only state) @{ */
    /** Crashed and not yet restarted: no dispatch, no live work. */
    bool down = false;

    /** Inside a dispatcher-blindness window: up and serving, but the
     *  dispatcher cannot route new arrivals here. */
    bool blind = false;

    std::uint64_t crashes = 0;
    std::uint64_t killed = 0;
    Seconds lostCpuSeconds = 0;
    Seconds absorbedCpuSeconds = 0;
    double absorbedUsd = 0;
    /** @} */
};

Cluster::Cluster(ClusterConfig cfg)
    : cfg_(std::move(cfg)), rng_(cfg_.seed)
{
    cfg_.validate();
    if (!cfg_.traffic)
        fatal("ClusterConfig: traffic is required — the cluster "
              "generates no arrivals; set it to a TrafficSource");
    dispatcher_ = makeDispatcher(cfg_.policy);

    // Fleet groups and discount-model keys may both use catalog
    // aliases; canonical MachineConfig::name is the one identity
    // everything (binding, reports, profiles) agrees on.
    const auto canonical = [](const std::string &name) {
        return sim::MachineCatalog::has(name)
                   ? sim::MachineCatalog::get(name).name
                   : name;
    };
    std::map<std::string, const pricing::DiscountModel *> modelsByType;
    for (const auto &[key, model] : cfg_.discountModels) {
        if (!model)
            continue;
        const std::string type = canonical(key);
        const auto [it, inserted] = modelsByType.emplace(type, model);
        if (!inserted && it->second != model)
            fatal("ClusterConfig: two discount models bound to "
                  "machine type '", type, "' (one under an alias) — "
                  "keep one per type");
    }

    machines_.reserve(cfg_.totalMachines());
    for (const MachineGroup &group : cfg_.fleet) {
        const sim::MachineConfig machine =
            sim::MachineCatalog::get(group.machine);
        // Bind this type's discount model once per group; a profile
        // calibrated on a different generation must not price it.
        const pricing::DiscountModel *model = nullptr;
        const auto it = modelsByType.find(machine.name);
        if (it != modelsByType.end()) {
            it->second->requireMachine(machine.name);
            model = it->second;
        }
        for (unsigned i = 0; i < group.count; ++i) {
            const unsigned index =
                static_cast<unsigned>(machines_.size());
            Machine &m = *machines_.emplace_back(
                std::make_unique<Machine>(index, machine, cfg_));
            m.discountModel = model;
            snaps_.push_back({.index = index, .type = m.config.name,
                              .cores = m.config.cores,
                              .baseFrequency = m.config.baseFrequency,
                              .memoryCapacity = m.config.memoryCapacity,
                              .warmIdle = &m.warmIdle});
        }
    }
    dispatchable_ = snaps_.size();
    for (const auto &[type, model] : modelsByType) {
        if (!std::any_of(cfg_.fleet.begin(), cfg_.fleet.end(),
                         [&](const MachineGroup &g) {
                             return canonical(g.machine) == type;
                         })) {
            fatal("ClusterConfig: discount model bound to '", type,
                  "', which is not in the fleet spec");
        }
    }
}

Cluster::~Cluster() = default;

const FleetReport &
Cluster::report() const
{
    if (!ran_)
        fatal("Cluster::report: run() has not completed");
    return report_;
}

const sim::Engine &
Cluster::engine(unsigned machine) const
{
    if (machine >= machines_.size())
        fatal("Cluster::engine: no machine ", machine);
    if (!ran_)
        fatal("Cluster::engine: run() has not completed");
    return machines_[machine]->engine;
}

const pricing::BillingLedger &
Cluster::ledger(unsigned machine) const
{
    if (machine >= machines_.size())
        fatal("Cluster::ledger: no machine ", machine);
    if (!ran_)
        fatal("Cluster::ledger: run() has not completed");
    return machines_[machine]->ledger;
}

void
Cluster::refresh(Machine &m)
{
    ++report_.sched.machineVisits;
    MachineSnapshot &snap = snaps_[m.index];
    const bool open = !m.down && !m.blind;
    dispatchable_ = dispatchable_ + open - snap.dispatchable;
    snap.dispatchable = open;
    snap.speedFactor = m.engine.speedFactor();
    snap.liveTasks = static_cast<unsigned>(m.engine.taskCount());
    snap.committedMemory = m.committedMemory;
}

void
Cluster::dispatch(const Invocation &inv)
{
    unsigned chosen = dispatcher_->pick(inv, snaps_);
    if (chosen >= machines_.size())
        fatal("dispatcher returned machine ", chosen, " of ",
              machines_.size());

    const Bytes footprint = inv.spec->memoryFootprint;
    if (!snaps_[chosen].fits(footprint)) {
        // Spill to the machine with the most free memory; an overfull
        // fleet rejects the arrival (a platform's 429).
        Bytes bestFree = 0;
        bool found = false;
        for (const MachineSnapshot &snap : snaps_) {
            if (!snap.dispatchable)
                continue;
            const Bytes free =
                snap.memoryCapacity - snap.committedMemory;
            if (snap.fits(footprint) && free > bestFree) {
                bestFree = free;
                chosen = snap.index;
                found = true;
            }
        }
        if (!found) {
            ++report_.rejectedMemory;
            return;
        }
    }

    Machine &m = *machines_[chosen];
    auto warmPool = m.warmIdle.find(inv.spec->name);
    const bool warm =
        warmPool != m.warmIdle.end() && !warmPool->second.empty();

    std::unique_ptr<workload::ProgramTask> task;
    workload::InvocationOptions opts;
    if (warm) {
        // Reuse the most recently parked container (LIFO keeps the
        // oldest entries at the front for expiry sweeps).
        warmPool->second.pop_back();
        if (warmPool->second.empty())
            m.warmIdle.erase(warmPool);
        task = workload::makeWarmInvocation(*inv.spec, rng_, opts);
        ++m.warmStarts;
        ++report_.warmStarts;
    } else {
        opts.withProbe = cfg_.probes;
        task = workload::makeInvocation(*inv.spec, rng_, opts);
        ++m.coldStarts;
        ++report_.coldStarts;
    }

    // An idle machine may lag the fleet grid (the serving loop never
    // steps idle engines); land it on the canonical clock before the
    // work arrives. No-op when the engine stepped every quantum.
    if (m.engine.tickCount() < fleetTick_)
        m.engine.skipIdleQuanta(fleetTick_ - m.engine.tickCount(),
                                fleetClock_);

    sim::Task &handle = m.engine.add(std::move(task));
    m.live.emplace(handle.id(),
                   Machine::Live{inv.spec, warm, inv.seq, inv.attempt});
    m.committedMemory += footprint;
    ++m.dispatched;
    ++report_.dispatched;

    const auto pos = std::lower_bound(active_.begin(), active_.end(),
                                      m.index);
    if (pos == active_.end() || *pos != m.index)
        active_.insert(pos, m.index);
    refresh(m); // exact for the batch: nothing completes in between
}

void
Cluster::harvest(Seconds now)
{
    const auto fold = [this](Machine &m, const Machine::Completed &done) {
        // A default estimate (rates of 1) bills commercially; a
        // cold invocation with a completed Litmus probe earns the
        // model's discounted rates.
        pricing::DiscountEstimate estimate;
        if (m.discountModel && !done.warm && done.probe.complete) {
            estimate = m.discountModel->estimate(
                pricing::readProbe(done.probe),
                done.spec->language, cfg_.sharingFactor);
        }
        const pricing::PriceQuote quote =
            pricing::quoteWithEstimate(done.counters, estimate);

        m.ledger.record(workload::languageName(done.spec->language),
                        done.spec->name, done.counters, quote,
                        done.spec->memoryFootprint);

        // Fleet accumulation is independent of the ledgers; the
        // conservation test compares the two.
        report_.billedCpuSeconds +=
            done.counters.cycles / cfg_.billing.billingFrequency;
        ++report_.completions;
        ++m.completions;
        const double latency = done.completionTime - done.launchTime;
        m.latencySum += latency;
        latencySum_ += latency;
        m.committedMemory -= done.spec->memoryFootprint;

        // The container goes idle-warm until its keep-alive ends.
        const Seconds expiry = done.completionTime + cfg_.keepAlive;
        m.warmIdle[done.spec->name].push_back(expiry);
        if (expiry < m.nextWarmExpiry) {
            m.nextWarmExpiry = expiry;
            expiries_.emplace(expiry, m.index);
        }
    };

    // Only machines stepped this barrier — the active set — can hold
    // completions. Reports must not depend on how many epochs one
    // advance spans, so fold in (covering epoch barrier, machine,
    // capture) order: a k-epoch advance then accumulates fleet totals
    // in exactly the order k one-epoch advances would.
    std::vector<std::tuple<std::uint64_t, unsigned, std::size_t>> order;
    for (const unsigned i : active_) {
        const auto &completed = machines_[i]->completed;
        for (std::size_t k = 0; k < completed.size(); ++k)
            order.emplace_back(
                (completed[k].tick + epochQuanta_ - 1) / epochQuanta_, i,
                k);
    }
    std::sort(order.begin(), order.end());
    for (const auto &[barrier, i, k] : order)
        fold(*machines_[i], machines_[i]->completed[k]);
    std::erase_if(active_, [this](unsigned i) {
        Machine &m = *machines_[i];
        m.completed.clear();
        refresh(m);
        return m.engine.taskCount() == 0;
    });

    // Expire idle containers whose keep-alive has lapsed, on exactly
    // the machines whose tracked minimum the clock has reached.
    while (nextExpiry() <= now) {
        Machine &m = *machines_[expiries_.top().second];
        expiries_.pop();
        ++report_.sched.eventsKeepAlive;
        m.nextWarmExpiry = std::numeric_limits<double>::infinity();
        // LITMUS-LINT-ALLOW(unordered-iter): order-independent fold — min() over pool fronts commutes and erasing expired pools is per-key; no report, billing total, or dispatch decision sees the visit order
        for (auto it = m.warmIdle.begin(); it != m.warmIdle.end();) {
            std::deque<Seconds> &pool = it->second;
            while (!pool.empty() && pool.front() <= now)
                pool.pop_front();
            if (pool.empty()) {
                it = m.warmIdle.erase(it);
            } else {
                m.nextWarmExpiry =
                    std::min(m.nextWarmExpiry, pool.front());
                ++it;
            }
        }
        if (m.nextWarmExpiry < std::numeric_limits<double>::infinity())
            expiries_.emplace(m.nextWarmExpiry, m.index);
    }
}

Seconds
Cluster::nextExpiry()
{
    // A lower expiry, a sweep or a crash stales a machine's entries.
    for (; !expiries_.empty(); expiries_.pop()) {
        ++report_.sched.machineVisits;
        const auto [at, machine] = expiries_.top();
        if (at == machines_[machine]->nextWarmExpiry)
            return at;
    }
    return std::numeric_limits<double>::infinity();
}

void
Cluster::scheduleRetry(const workload::FunctionSpec *spec,
                       std::uint64_t seq, unsigned attempt, Seconds now)
{
    // `attempt` is the 0-based index of the dispatch the crash just
    // destroyed, so attempt + 1 dispatches have been made in total.
    const FaultSpec &f = cfg_.faults;
    bool retry = false;
    Seconds due = now;
    switch (f.retry) {
    case RetryPolicy::Drop:
        break;
    case RetryPolicy::RetryOnce:
        // One immediate re-dispatch: eligible at this very barrier.
        retry = attempt == 0;
        break;
    case RetryPolicy::RetryBackoff:
        retry = attempt + 1 < f.retryMax;
        due = now + f.retryBackoff *
                        static_cast<double>(std::uint64_t{1} << attempt);
        break;
    }
    if (!retry) {
        ++report_.abandoned;
        return;
    }
    ++report_.retries;

    Invocation inv;
    inv.spec = spec;
    inv.arrival = due;
    inv.seq = seq;
    inv.attempt = attempt + 1;
    latestRetry_ = std::max(latestRetry_, due);
    // One pending retry per invocation makes (due, seq) unique, so the
    // heap's serve order is deterministic.
    retryQueue_.push_back(inv);
    std::push_heap(retryQueue_.begin(), retryQueue_.end(), retryLater);
}

void
Cluster::crashMachine(Machine &m, Seconds now)
{
    ++m.crashes;
    ++report_.crashes;
    m.down = true;

    // Kill the in-flight invocations and account for the destroyed
    // work. The corpses come back in task-creation order, so loss
    // accounting and retry queueing are deterministic.
    for (const auto &task : m.engine.killAllTasks()) {
        const auto it = m.live.find(task->id());
        if (it == m.live.end())
            panic("cluster machine ", m.index,
                  ": crash killed unknown task ", task->id());
        const Machine::Live &live = it->second;
        const sim::TaskCounters counters = task->counters();
        const Seconds partial =
            counters.cycles / cfg_.billing.billingFrequency;

        ++m.killed;
        ++report_.killedInvocations;
        m.lostCpuSeconds += partial;
        report_.lostCpuSeconds += partial;

        if (counters.cycles == 0) {
            // Killed before it ever ran (dispatched this barrier, or
            // queued behind busy cores): no work was destroyed and
            // nothing may be billed — a zero-cycle ledger record
            // would divide 0 by 0 normalizing the Litmus price.
        } else if (cfg_.faults.billing == FaultBilling::TenantPays) {
            // Cloud reality: the tenant pays the commercial price for
            // the cycles the dead invocation burned. No probe ever
            // completes on a killed invocation, so there is never a
            // Litmus discount on failure bills.
            const pricing::PriceQuote quote = pricing::quoteWithEstimate(
                counters, pricing::DiscountEstimate{});
            m.ledger.record(
                workload::languageName(live.spec->language),
                live.spec->name, counters, quote,
                live.spec->memoryFootprint);
            report_.billedCpuSeconds += partial;
        } else {
            // The provider eats the loss; mirror the ledger's USD
            // arithmetic exactly so tenant-pays and provider-absorbs
            // split one identical total.
            const double memoryGiB =
                static_cast<double>(live.spec->memoryFootprint) /
                (1024.0 * 1024 * 1024);
            const double usd =
                partial * memoryGiB * cfg_.billing.usdPerGiBSecond;
            m.absorbedCpuSeconds += partial;
            report_.absorbedCpuSeconds += partial;
            m.absorbedUsd += usd;
            report_.absorbedUsd += usd;
        }

        scheduleRetry(live.spec, live.seq, live.attempt, now);
        m.live.erase(it);
    }
    if (!m.live.empty())
        panic("cluster machine ", m.index,
              ": live invocations survived a crash");

    // State loss: committed memory and every warm container are gone,
    // and the expiry tracker (and its heap entries) resets with them —
    // post-restart completions establish a fresh minimum.
    m.committedMemory = 0;
    m.warmIdle.clear();
    m.nextWarmExpiry = std::numeric_limits<double>::infinity();
    std::erase(active_, m.index);
}

void
Cluster::applyFaults(Seconds now)
{
    const std::vector<FaultEvent> &events = faultPlan_.events();
    while (faultCursor_ < events.size() &&
           events[faultCursor_].at <= now) {
        const FaultEvent &ev = events[faultCursor_++];
        ++report_.sched.eventsFault;
        Machine &m = *machines_[ev.machine];
        switch (ev.kind) {
        case FaultKind::Crash:
            // Scripted and stochastic windows may overlap on one
            // machine; a crash while already down merges into the
            // open outage (the earliest restart revives it).
            if (!m.down)
                crashMachine(m, now);
            break;
        case FaultKind::Restart:
            m.down = false;
            break;
        case FaultKind::SlowStart:
            m.engine.setSpeedFactor(ev.factor);
            break;
        case FaultKind::SlowEnd:
            m.engine.setSpeedFactor(1.0);
            break;
        case FaultKind::BlindStart:
            m.blind = true;
            break;
        case FaultKind::BlindEnd:
            m.blind = false;
            break;
        }
        refresh(m);
    }
}

/** Per-run serving state. */
struct Cluster::Serve
{
    explicit Serve(unsigned threads) : pool(threads) {}

    /** The arrival cursor the loop pulls lazily. */
    std::unique_ptr<ArrivalStream> stream;

    /** The next undispatched arrival (nullptr at end of stream). */
    const Invocation *head() { return stream->peek(); }

    /** @name Drain-cap bases @{ */
    /** Latest arrival *pulled* so far; the peeked head extends the
     *  drain base separately while arrivals remain. */
    Seconds lastArrival = 0;
    Seconds lastFault = 0;
    /** @} */

    /** What one epoch actually advances: epochs that are not a whole
     *  number of quanta round up to the covering quantum, so targets
     *  must be computed against this span, not cfg.epoch. */
    Seconds epochSpan = 0;

    /** Worker pool advancing busy engines between barriers. */
    EpochPool pool;
};

void
Cluster::advanceFleetEpochs(std::uint64_t epochs)
{
    const Seconds quantum = machines_.front()->engine.quantum();
    const std::uint64_t quanta = epochs * epochQuanta_;
    // One fadd per quantum — the same accumulation every stepping
    // engine performs, so synced engines land on fleetClock_ exactly.
    for (std::uint64_t q = 0; q < quanta; ++q)
        fleetClock_ += quantum;
    fleetTick_ += quanta;
}

std::uint64_t
Cluster::advanceClockToCover(Seconds target)
{
    std::uint64_t epochs = 0;
    do {
        advanceFleetEpochs(1);
        ++epochs;
    } while (fleetClock_ < target);
    return epochs;
}

void
Cluster::dispatchDue(Serve &s, Seconds now)
{
    // Arrivals are dispatched at the first epoch boundary at or after
    // their arrival time (never early), with warm containers parked
    // by this barrier's completions already visible. Due retries
    // interleave with due arrivals in (time, seq) order — a retry's
    // seq predates every pending arrival's. Dispatch keeps the
    // snapshots current through the batch; if no machine is
    // dispatchable, everything due waits for the barrier that reopens
    // the fleet. The stream head is peeked (not pulled) until the
    // batch actually takes it, so a blocked fleet buffers at most one
    // arrival.
    const Invocation *head = s.head();
    const bool anyDue =
        (head != nullptr && head->arrival <= now) ||
        (!retryQueue_.empty() && retryQueue_.front().arrival <= now);
    if (!anyDue)
        return;
    while (dispatchable_ > 0) {
        head = s.head();
        const bool arrivalDue = head != nullptr && head->arrival <= now;
        const bool retryDue = !retryQueue_.empty() &&
                              retryQueue_.front().arrival <= now;
        if (!arrivalDue && !retryDue)
            break;
        bool takeRetry = retryDue;
        if (arrivalDue && retryDue) {
            const Invocation &r = retryQueue_.front();
            takeRetry = r.arrival < head->arrival ||
                        (r.arrival == head->arrival &&
                         r.seq < head->seq);
        }
        if (takeRetry) {
            std::pop_heap(retryQueue_.begin(), retryQueue_.end(),
                          retryLater);
            const Invocation inv = retryQueue_.back();
            retryQueue_.pop_back();
            ++report_.sched.eventsRetry;
            dispatch(inv);
        } else {
            Invocation inv;
            s.stream->next(inv);
            s.lastArrival = inv.arrival;
            ++report_.sched.eventsArrival;
            dispatch(inv);
        }
    }
}

Seconds
Cluster::serve(Serve &s)
{
    const std::vector<FaultEvent> &faultEvents = faultPlan_.events();
    const Seconds inf = std::numeric_limits<double>::infinity();
    std::vector<std::function<void()>> jobs;

    while (s.head() != nullptr || !retryQueue_.empty() || anyLive()) {
        // The drain base extends over the peeked head while arrivals
        // remain: the fleet is never "failing to drain" while the
        // stream still owes it work.
        Seconds drainBase = std::max(
            s.lastArrival, std::max(s.lastFault, latestRetry_));
        if (const Invocation *head = s.head())
            drainBase = std::max(drainBase, head->arrival);
        if (fleetClock_ > drainBase + cfg_.drainCap)
            fatal("Cluster::run: fleet failed to drain within ",
                  cfg_.drainCap, " simulated seconds of the last "
                  "arrival");

        // The next event: the earliest exact time over the arrival
        // head, the retry head, the next fault transition and, while
        // work is in flight, the fleet-wide earliest keep-alive
        // expiry. Arrivals and retries already due arm nothing here:
        // they go out at the next barrier if any machine can take
        // them, and otherwise wait for the fault transition that
        // reopens the fleet. An idle fleet's keep-alive sweeps fold
        // into the next real barrier; the sweep's outcome is the
        // same either way.
        const bool live = anyLive();
        const bool workPending =
            s.head() != nullptr || !retryQueue_.empty();
        Seconds next = inf;
        bool due = false;
        const auto arm = [&](Seconds at) {
            if (at > fleetClock_)
                next = std::min(next, at);
            else
                due = true;
        };
        if (const Invocation *head = s.head())
            arm(head->arrival);
        if (!retryQueue_.empty())
            arm(retryQueue_.front().arrival);
        if (faultCursor_ < faultEvents.size())
            next = std::min(next, faultEvents[faultCursor_].at);
        if (live) {
            const Seconds warmMin = nextExpiry();
            if (warmMin > fleetClock_)
                next = std::min(next, warmMin);
        }
        const bool dueNow = due && dispatchable_ > 0;

        std::uint64_t epochs = 1;
        if (!dueNow && next < inf && (workPending || !live)) {
            if (live) {
                // Busy machines advance straight to the first barrier
                // covering the next event; every barrier in between
                // is a no-op (nothing due, fleet state frozen between
                // events) and harvest folds the whole advance as if
                // it had been taken one epoch at a time.
                epochs = advanceClockToCover(next);
            } else {
                // Idle fleet: jump floor(gap / span) epochs, then
                // single-step to the covering barrier on later
                // iterations. Reports must not depend on how many
                // epochs one advance spans; the floor keeps the jump
                // short of the event, so the event is served at the
                // barrier, and on the fleet clock, that one-epoch
                // stepping reaches.
                const double gap = next - fleetClock_;
                if (gap > s.epochSpan)
                    epochs = std::max<std::uint64_t>(
                        1, static_cast<std::uint64_t>(gap / s.epochSpan));
                advanceFleetEpochs(epochs);
            }
        } else {
            // Due work, the drain phase (live work, nothing left to
            // dispatch), or nothing armed at all (everything due is
            // blocked and no fault is pending): march one epoch, so
            // due work goes out at the next barrier, the loop exits
            // the moment the fleet drains — before any later fault
            // fires — and a blocked fleet creeps to the drain-cap
            // fatal.
            advanceFleetEpochs(1);
        }

        // Advance the active set to the new barrier in parallel; idle
        // machines are never stepped — they sync lazily at their
        // next dispatch via Engine::skipIdleQuanta.
        jobs.clear();
        const std::uint64_t quanta = epochs * epochQuanta_;
        for (const unsigned i : active_) {
            Machine *machine = machines_[i].get();
            ++report_.sched.machineVisits;
            jobs.emplace_back([machine, quanta] {
                machine->engine.runQuanta(quanta);
            });
        }
        if (!jobs.empty())
            s.pool.run(jobs);
        ++report_.sched.barriers;
        if (live)
            ++report_.sched.eventsProgress;

        // Fault transitions apply at the barrier after their
        // timestamp — the same granularity as dispatch. Completions
        // harvested first beat a crash landing at this barrier; a
        // machine restarting here accepts dispatches immediately.
        const Seconds now = fleetClock_;
        harvest(now);
        applyFaults(now);
        dispatchDue(s, now);
    }

    // Land every engine on the final barrier, so inspection (and the
    // quanta + skipped conservation identity) sees one fleet clock.
    for (const auto &m : machines_) {
        if (m->engine.tickCount() < fleetTick_)
            m->engine.skipIdleQuanta(
                fleetTick_ - m->engine.tickCount(), fleetClock_);
    }
    return fleetClock_;
}

const FleetReport &
Cluster::run()
{
    if (ran_)
        fatal("Cluster::run called twice");

    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const unsigned threads =
        cfg_.threads > 0
            ? cfg_.threads
            : std::min(static_cast<unsigned>(machines_.size()), hw);

    Serve s(threads);

    // Arrival generation draws from its own SplitMix64-derived
    // substream of the seed (rng_ keeps the raw seed for dispatch
    // jitter), so traffic is identical across dispatch policies and
    // thread counts, and pulling the stream lazily cannot perturb any
    // other draw.
    Rng trafficRng(deriveArrivalSeed(cfg_.seed));
    s.stream = cfg_.traffic->open(trafficRng, cfg_.functionPool);
    if (s.stream == nullptr)
        fatal("Cluster::run: traffic model '", cfg_.traffic->name(),
              "' opened a null stream");
    if (s.stream->peek() == nullptr)
        fatal("Cluster::run: traffic model '", cfg_.traffic->name(),
              "' generated no arrivals — check its rate/"
              "invocations/duration knobs");

    // Epoch length in whole quanta, computed once on the engines'
    // integer tick grid: every inter-barrier advance below is a whole
    // number of epochs of exactly this many quanta, so a multi-epoch
    // fast-forward executes the same quantum sequence as single-epoch
    // stepping.
    epochQuanta_ = machines_.front()->engine.quantaForDuration(cfg_.epoch);
    s.epochSpan = static_cast<double>(epochQuanta_) *
                  machines_.front()->engine.quantum();

    // Compile the fault campaign into one deterministic schedule over
    // the expected arrival window (scripted faults may land past it;
    // every crash carries its restart). The horizon is the model's
    // own estimate, fixed before the first pull, falling back to the
    // stream's. The drain deadline extends over pending fault
    // transitions and queued retries: a fleet waiting out an outage
    // is making progress, not hanging.
    Seconds horizon = cfg_.traffic->horizonHint();
    if (horizon <= 0)
        horizon = s.stream->horizonHint();
    faultPlan_ = FaultPlan::compile(cfg_.faults, cfg_.totalMachines(),
                                    horizon, cfg_.seed);
    s.lastFault = faultPlan_.events().empty()
                      ? 0
                      : faultPlan_.events().back().at;

    report_.makespan = serve(s);
    report_.sched.barriersElided =
        fleetTick_ / epochQuanta_ - report_.sched.barriers;
    // The loop pulls the stream dry before draining, so pulled
    // equals the arrivals served.
    report_.arrivals = s.stream->pulled();
    report_.arrivalFlow.model = s.stream->model();
    report_.arrivalFlow.generated = s.stream->generated();
    report_.arrivalFlow.pulled = s.stream->pulled();
    report_.arrivalFlow.bufferedMax = s.stream->bufferedMax();
    for (const auto &m : machines_)
        report_.sched.idleQuantaSkipped += static_cast<std::uint64_t>(
            m->engine.stats().skippedQuanta.value());
    report_.meanLatency = report_.completions > 0
                              ? latencySum_ / report_.completions
                              : 0.0;
    report_.machines.reserve(machines_.size());
    for (const auto &mp : machines_) {
        const Machine &m = *mp;
        MachineReport mr;
        mr.index = m.index;
        mr.type = m.config.name;
        mr.dispatched = m.dispatched;
        mr.coldStarts = m.coldStarts;
        mr.warmStarts = m.warmStarts;
        mr.completions = m.completions;
        for (const pricing::BillRecord &rec : m.ledger.records())
            mr.billedCpuSeconds += rec.cpuSeconds;
        mr.commercialUsd = m.ledger.totalCommercialUsd();
        mr.litmusUsd = m.ledger.totalLitmusUsd();
        mr.meanLatency =
            m.completions > 0 ? m.latencySum / m.completions : 0.0;
        // Quanta *covered* on the canonical grid: executed plus
        // idle-elided. Identical across thread counts even though
        // the loop never steps idle engines.
        mr.quanta = m.engine.stats().quanta.value() +
                    m.engine.stats().skippedQuanta.value();
        mr.crashes = m.crashes;
        mr.killedInvocations = m.killed;
        mr.lostCpuSeconds = m.lostCpuSeconds;
        mr.absorbedCpuSeconds = m.absorbedCpuSeconds;
        mr.absorbedUsd = m.absorbedUsd;
        report_.commercialUsd += mr.commercialUsd;
        report_.litmusUsd += mr.litmusUsd;
        report_.machines.push_back(mr);
    }

    // Per-type revenue/discount breakdown, merged by type in
    // first-seen order (a type split across several fleet groups
    // still gets one row), folded in machine order like the fleet
    // sums.
    for (const MachineReport &mr : report_.machines) {
        auto slot = std::find_if(report_.types.begin(),
                                 report_.types.end(),
                                 [&](const TypeReport &t) {
                                     return t.type == mr.type;
                                 });
        if (slot == report_.types.end()) {
            TypeReport fresh;
            fresh.type = mr.type;
            report_.types.push_back(fresh);
            slot = report_.types.end() - 1;
        }
        TypeReport &tr = *slot;
        ++tr.machines;
        tr.dispatched += mr.dispatched;
        tr.coldStarts += mr.coldStarts;
        tr.warmStarts += mr.warmStarts;
        tr.completions += mr.completions;
        tr.billedCpuSeconds += mr.billedCpuSeconds;
        tr.commercialUsd += mr.commercialUsd;
        tr.litmusUsd += mr.litmusUsd;
        tr.crashes += mr.crashes;
        tr.killedInvocations += mr.killedInvocations;
        tr.lostCpuSeconds += mr.lostCpuSeconds;
        tr.absorbedCpuSeconds += mr.absorbedCpuSeconds;
        tr.absorbedUsd += mr.absorbedUsd;
    }

    ran_ = true;
    return report_;
}

} // namespace litmus::cluster
