#include "cluster/dispatcher.h"

#include <limits>

#include "common/logging.h"

namespace litmus::cluster
{

std::string
policyName(DispatchPolicy policy)
{
    switch (policy) {
    case DispatchPolicy::RoundRobin:
        return "round-robin";
    case DispatchPolicy::LeastLoaded:
        return "least-loaded";
    case DispatchPolicy::WarmthAware:
        return "warmth-aware";
    case DispatchPolicy::CostAware:
        return "cost-aware";
    }
    fatal("policyName: unknown policy");
}

DispatchPolicy
policyByName(const std::string &context, const std::string &name)
{
    if (name == "round-robin" || name == "roundrobin" || name == "rr")
        return DispatchPolicy::RoundRobin;
    if (name == "least-loaded" || name == "leastloaded" || name == "ll")
        return DispatchPolicy::LeastLoaded;
    if (name == "warmth-aware" || name == "warmth")
        return DispatchPolicy::WarmthAware;
    if (name == "cost-aware" || name == "cost")
        return DispatchPolicy::CostAware;
    fatal(context, ": unknown dispatch policy '", name,
          "' (want round-robin | least-loaded | warmth-aware | "
          "cost-aware)");
}

const std::vector<DispatchPolicy> &
allPolicies()
{
    static const std::vector<DispatchPolicy> policies = {
        DispatchPolicy::RoundRobin,
        DispatchPolicy::LeastLoaded,
        DispatchPolicy::WarmthAware,
        DispatchPolicy::CostAware,
    };
    return policies;
}

std::size_t
MachineSnapshot::warmIdleFor(const std::string &function) const
{
    if (!warmIdle)
        return 0;
    const auto it = warmIdle->find(function);
    return it == warmIdle->end() ? 0 : it->second.size();
}

namespace
{

/**
 * The dispatchable machine with the lowest @p key, ties to the lowest
 * index (strict <, so routing is deterministic).
 */
template <typename Key>
unsigned
cheapest(const std::vector<MachineSnapshot> &machines, Key key)
{
    unsigned best = 0;
    double bestKey = std::numeric_limits<double>::infinity();
    bool found = false;
    for (const MachineSnapshot &m : machines) {
        if (!m.dispatchable)
            continue;
        if (const double k = key(m); k < bestKey) {
            bestKey = k;
            best = m.index;
            found = true;
        }
    }
    if (!found)
        fatal("dispatcher: no dispatchable machine (the cluster must "
              "hold arrivals while the whole fleet is down or blind)");
    return best;
}

class RoundRobinDispatcher final : public Dispatcher
{
  public:
    DispatchPolicy policy() const override
    {
        return DispatchPolicy::RoundRobin;
    }

    unsigned pick(const Invocation &,
                  const std::vector<MachineSnapshot> &machines) override
    {
        // Rotate, skipping machines that are down or blind. With the
        // whole fleet dispatchable this degenerates to next_++ % size,
        // so fault-free runs are untouched.
        for (std::size_t tried = 0; tried < machines.size(); ++tried) {
            const auto i =
                static_cast<std::size_t>(next_++ % machines.size());
            if (machines[i].dispatchable)
                return machines[i].index;
        }
        fatal("dispatcher: no dispatchable machine (the cluster must "
              "hold arrivals while the whole fleet is down or blind)");
    }

  private:
    std::uint64_t next_ = 0;
};

class LeastLoadedDispatcher final : public Dispatcher
{
  public:
    DispatchPolicy policy() const override
    {
        return DispatchPolicy::LeastLoaded;
    }

    unsigned pick(const Invocation &,
                  const std::vector<MachineSnapshot> &machines) override
    {
        return cheapest(machines, [](const MachineSnapshot &m) {
            return static_cast<double>(m.liveTasks);
        });
    }
};

class WarmthAwareDispatcher final : public Dispatcher
{
  public:
    DispatchPolicy policy() const override
    {
        return DispatchPolicy::WarmthAware;
    }

    unsigned pick(const Invocation &inv,
                  const std::vector<MachineSnapshot> &machines) override
    {
        // Among machines holding an idle warm container for this
        // function, take the least loaded; a cold fleet falls back to
        // plain least-loaded placement. The offset ranks every cold
        // machine after every warm one.
        return cheapest(machines, [&](const MachineSnapshot &m) {
            const double cold = m.warmIdleFor(inv.spec->name) > 0 ? 0 : 1;
            return m.liveTasks + cold * 0x1p32;
        });
    }
};

class CostAwareDispatcher final : public Dispatcher
{
  public:
    DispatchPolicy policy() const override
    {
        return DispatchPolicy::CostAware;
    }

    unsigned pick(const Invocation &,
                  const std::vector<MachineSnapshot> &machines) override
    {
        // Cheapest predicted completion wins: a slower machine with
        // idle cores beats a faster one whose cores already
        // time-share.
        return cheapest(machines, [](const MachineSnapshot &m) {
            return m.predictedCost();
        });
    }
};

} // namespace

std::unique_ptr<Dispatcher>
makeDispatcher(DispatchPolicy policy)
{
    switch (policy) {
    case DispatchPolicy::RoundRobin:
        return std::make_unique<RoundRobinDispatcher>();
    case DispatchPolicy::LeastLoaded:
        return std::make_unique<LeastLoadedDispatcher>();
    case DispatchPolicy::WarmthAware:
        return std::make_unique<WarmthAwareDispatcher>();
    case DispatchPolicy::CostAware:
        return std::make_unique<CostAwareDispatcher>();
    }
    fatal("makeDispatcher: unknown policy");
}

} // namespace litmus::cluster
