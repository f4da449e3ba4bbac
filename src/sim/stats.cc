#include "sim/stats.h"

#include <charconv>
#include <iomanip>
#include <ostream>

#include "obs/histogram.h"

namespace pcmap::stats {

Writer::Writer(FlatStats &out) : flat(&out)
{
    path.reserve(64);
}

Writer::Writer(std::ostream &stream) : os(&stream)
{
    path.reserve(64);
}

Writer::Scope::Scope(Writer &w, std::string_view name)
    : writer(w), base(w.path.size())
{
    writer.path += name;
    writer.path += '.';
}

Writer::Scope::Scope(Writer &w, std::string_view name, unsigned index)
    : writer(w), base(w.path.size())
{
    char digits[16];
    const auto res = std::to_chars(digits, digits + sizeof(digits), index);
    writer.path += name;
    writer.path.append(digits, res.ptr);
    writer.path += '.';
}

void
Writer::emit(double value, std::string_view desc)
{
    if (flat != nullptr) {
        flat->emplace_back(path, value);
        return;
    }
    *os << std::left << std::setw(48) << path << " " << std::right
        << std::setw(16) << std::setprecision(6) << value << "  # "
        << desc << "\n";
}

void
Writer::scalar(std::string_view name, double value, std::string_view desc)
{
    const std::size_t base = path.size();
    path += name;
    emit(value, desc);
    path.resize(base);
}

void
Writer::percentiles(std::string_view name, const obs::LogHistogram &h,
                    double scale, std::string_view desc)
{
    const obs::LogHistogram::Summary s = h.summary();
    const std::size_t base = path.size();
    path += name;
    const std::size_t stem = path.size();
    const auto put = [&](const char *suffix, double value) {
        path.resize(stem);
        path += suffix;
        emit(value, desc);
    };
    put(".p50", s.p50 * scale);
    put(".p90", s.p90 * scale);
    put(".p99", s.p99 * scale);
    put(".p999", s.p999 * scale);
    put(".max", s.max * scale);
    put(".mean", s.mean * scale);
    put(".samples", static_cast<double>(s.samples));
    path.resize(base);
}

} // namespace pcmap::stats
