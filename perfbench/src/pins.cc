#include "pins.hh"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

Pins
Pins::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open pin file '" + path + "'");
    Pins pins;
    std::string line;
    for (int lineNo = 1; std::getline(in, line); ++lineNo) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream is(line);
        std::string key, value;
        std::uint64_t ticks = 0;
        if (!(is >> key >> value >> ticks) || value.rfind("0x", 0) != 0) {
            throw std::runtime_error(path + ":" + std::to_string(lineNo) +
                                     ": malformed pin '" + line + "'");
        }
        pins._pins[key] = Pin{std::stoull(value, nullptr, 16), ticks};
    }
    return pins;
}

void
Pins::save(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write pin file '" + path + "'");
    out << "# Values the benchmark checks every run against; see "
           "src/pins.hh.\n"
           "# Regenerate only when simulated results change on purpose:\n"
           "#   python3 perfbench/run.py --pin\n";
    for (const auto &[key, pin] : _pins)
        out << key << ' ' << hex64(pin.value) << ' ' << pin.ticks << '\n';
    if (!out)
        throw std::runtime_error("short write to pin file '" + path + "'");
}

const Pin *
Pins::find(const std::string &key) const
{
    auto it = _pins.find(key);
    return it == _pins.end() ? nullptr : &it->second;
}

std::string
cellKey(const std::string &mode, const std::string &workload,
        std::uint32_t mhz, std::uint64_t seed)
{
    return "cell/" + mode + "/" + workload + "/" + std::to_string(mhz) +
           "/" + std::to_string(seed);
}

std::string
traceKey(const std::string &workload, std::uint32_t mhz, std::uint64_t seed)
{
    return "trace/" + workload + "/" + std::to_string(mhz) + "/" +
           std::to_string(seed);
}

std::string
gridKey(const std::string &name)
{
    return "grid/" + name;
}

std::string
hex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace perfbench
