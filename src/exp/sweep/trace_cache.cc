#include "exp/sweep/trace_cache.hh"

#include <algorithm>
#include <filesystem>

#include "sim/log.hh"
#include "trace/writer.hh"

namespace dvfs::exp::sweep {

namespace {

namespace fs = std::filesystem;

std::string
cellPath(const SweepSpec &spec, const std::string &dir, std::size_t index)
{
    const Cell c = spec.cell(index);
    return (fs::path(dir) /
            trace::traceFileName(spec.workloads[c.workload].name,
                                 spec.frequencies[c.freq].toMHz(),
                                 spec.seeds[c.seed]))
        .string();
}

/**
 * Trace file names encode (workload name, frequency, seed), so two
 * cells may only share a name if the spec holds duplicate coordinates
 * — which would make one cell's file silently overwrite (on record)
 * or impersonate (on load) the other's.
 */
void
requireUniqueCellPaths(const SweepSpec &spec, const std::string &dir)
{
    const std::size_t n = spec.cellCount();
    std::vector<std::string> paths;
    paths.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        paths.push_back(cellPath(spec, dir, i));
    std::sort(paths.begin(), paths.end());
    auto dup = std::adjacent_find(paths.begin(), paths.end());
    if (dup != paths.end()) {
        throw trace::TraceError(
            trace::TraceError::Kind::DuplicateCell, 0,
            "two grid cells map to the same trace file '" + *dup +
                "' — workloads sharing a name need distinct "
                "WorkloadParams::name values to be trace-backed");
    }
}

} // namespace

const ObservedCell &
ObservedGrid::at(std::size_t workload, Frequency f, std::size_t seed) const
{
    const std::size_t index =
        spec.indexOf(workload, spec.freqIndex(f), seed);
    DVFS_ASSERT(index < cells.size(), "observed grid cell out of range");
    return cells[index];
}

ObservedGrid
recordGrid(const SweepSpec &spec, unsigned workers, const std::string &dir)
{
    ObservedGrid grid;
    grid.spec = spec;

    auto live = std::make_shared<SweepResult>(runSweep(spec, workers));
    grid.live = live;

    if (!dir.empty()) {
        requireUniqueCellPaths(spec, dir);
        std::error_code ec;
        fs::create_directories(dir, ec);
        if (ec) {
            throw trace::TraceError(trace::TraceError::Kind::Io, 0,
                                    "cannot create trace directory '" +
                                        dir + "': " + ec.message());
        }
    }

    grid.cells.reserve(live->cells.size());
    for (std::size_t i = 0; i < live->cells.size(); ++i) {
        const FixedRunOutput &out = live->cells[i];
        const Cell c = spec.cell(i);

        if (!dir.empty()) {
            trace::TraceMeta meta;
            meta.workload = spec.workloads[c.workload].name;
            meta.seed = spec.seeds[c.seed];
            trace::writeTraceFile(cellPath(spec, dir, i), out.record,
                                  meta);
        }

        ObservedCell cell;
        cell.freq = out.freq;
        cell.totalTime = out.totalTime;
        // The view aliases the record inside `live`; the deleter
        // captures `live` so a cell copied out of the grid keeps the
        // backing sweep result alive on its own.
        cell.run = std::shared_ptr<const pred::RunView>(
            new pred::RecordView(out.record),
            [live](const pred::RunView *v) { delete v; });
        grid.cells.push_back(std::move(cell));
    }
    return grid;
}

ObservedGrid
loadGrid(const SweepSpec &spec, const std::string &dir)
{
    ObservedGrid grid;
    grid.spec = spec;
    grid.replayed = true;
    requireUniqueCellPaths(spec, dir);

    const std::size_t n = spec.cellCount();
    grid.cells.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const Cell c = spec.cell(i);
        auto loaded = std::make_shared<trace::LoadedTrace>(
            trace::readTraceFile(cellPath(spec, dir, i)));

        // A trace that parses but describes a different run would
        // silently poison every downstream number; cross-check the
        // cell coordinates.
        const std::string &want_wl = spec.workloads[c.workload].name;
        if (loaded->meta().workload != want_wl ||
            loaded->meta().seed != spec.seeds[c.seed] ||
            loaded->baseFreq() != spec.frequencies[c.freq]) {
            throw trace::TraceError(
                trace::TraceError::Kind::CellMismatch, 0,
                "trace '" + cellPath(spec, dir, i) +
                    "' does not match its grid cell (want " + want_wl +
                    " @ " + spec.frequencies[c.freq].toString() + ")");
        }

        ObservedCell cell;
        cell.freq = loaded->baseFreq();
        cell.totalTime = loaded->totalTime();
        cell.run = std::move(loaded);
        grid.cells.push_back(std::move(cell));
    }
    return grid;
}

bool
gridTracesPresent(const SweepSpec &spec, const std::string &dir)
{
    if (dir.empty())
        return false;
    const std::size_t n = spec.cellCount();
    for (std::size_t i = 0; i < n; ++i) {
        std::error_code ec;
        if (!fs::exists(cellPath(spec, dir, i), ec) || ec)
            return false;
    }
    return true;
}

ObservedGrid
observeGrid(const SweepSpec &spec, unsigned workers, const std::string &dir)
{
    if (gridTracesPresent(spec, dir))
        return loadGrid(spec, dir);
    return recordGrid(spec, workers, dir);
}

} // namespace dvfs::exp::sweep
