#include "spans.h"

#include <fstream>

#include "analysis/report.h"

namespace perfbench {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now())
{
}

double
SpanRecorder::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

SpanRecorder::SpanId
SpanRecorder::begin(const std::string &name, SpanId parent, int group)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.parent = parent;
    s.group = group;
    s.startUs = nowUs();
    spans_.push_back(std::move(s));
    return static_cast<SpanId>(spans_.size() - 1);
}

void
SpanRecorder::end(SpanId id)
{
    if (id >= 0)
        spans_[static_cast<std::size_t>(id)].endUs = nowUs();
}

std::map<std::string, double>
SpanRecorder::selfSeconds() const
{
    std::vector<double> childUs(spans_.size(), 0.0);
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            childUs[static_cast<std::size_t>(s.parent)] +=
                s.endUs - s.startUs;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out[s.name] += (s.endUs - s.startUs - childUs[i]) * 1e-6;
    }
    return out;
}

bool
SpanRecorder::writeChromeJson(const std::string &path,
                              const std::string &metadata) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": "
        << metadata << ",\n  \"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i ? ",\n" : "\n") << "    {\"name\": \""
            << hmcsim::jsonEscape(s.name)
            << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
            << hmcsim::jsonNumber(s.startUs)
            << ", \"dur\": " << hmcsim::jsonNumber(s.endUs - s.startUs)
            << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
            << ", \"rep\": " << s.group << "}}";
    }
    out << "\n  ]\n}\n";
    return static_cast<bool>(out);
}

}  // namespace perfbench
