#include "pred/criticality.hh"

#include <algorithm>
#include <unordered_map>

namespace dvfs::pred {

CriticalityStack::CriticalityStack(const RunRecord &rec)
{
    std::unordered_map<os::ThreadId, CriticalityShare> acc;

    for (const Epoch ep : rec.epochs) {
        if (ep.active.empty()) {
            _idle += ep.duration();
            continue;
        }
        // Integer split with the remainder charged to the first
        // active thread keeps the decomposition exact.
        const Tick share = ep.duration() / ep.active.size();
        Tick remainder = ep.duration() - share * ep.active.size();
        for (auto row = ep.active.begin(); row != ep.active.end(); ++row) {
            auto &s = acc[row.tid()];
            s.tid = row.tid();
            s.criticality += share + remainder;
            remainder = 0;
            s.activeTime += ep.duration();
        }
    }

    _shares.reserve(acc.size());
    for (auto &[tid, s] : acc) {
        if (rec.totalTime > 0) {
            s.fraction = static_cast<double>(s.criticality) /
                         static_cast<double>(rec.totalTime);
        }
        _shares.push_back(s);
    }
    std::sort(_shares.begin(), _shares.end(),
              [](const CriticalityShare &a, const CriticalityShare &b) {
                  if (a.criticality != b.criticality)
                      return a.criticality > b.criticality;
                  return a.tid < b.tid;
              });
}

os::ThreadId
CriticalityStack::mostCritical() const
{
    return _shares.empty() ? os::kNoThread : _shares.front().tid;
}

Tick
CriticalityStack::accountedTime() const
{
    Tick sum = _idle;
    for (const auto &s : _shares)
        sum += s.criticality;
    return sum;
}

} // namespace dvfs::pred
