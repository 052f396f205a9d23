// Span queries and the Chrome trace export (see core.h).
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/core.h"

namespace perfbench {

std::vector<double> Spans::PerCallNs(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) /
                    static_cast<double>(std::max<std::uint64_t>(s.n, 1)));
    }
  }
  return out;
}

std::vector<std::pair<std::string, double>> Spans::LayerSelfNs() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    }
  }
  std::vector<std::pair<std::string, double>> layers;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string_view name = spans_[i].name;
    const std::string layer(name.substr(0, name.find('.')));
    auto it = std::find_if(layers.begin(), layers.end(),
                           [&](const auto& entry) { return entry.first == layer; });
    if (it == layers.end()) {
      layers.emplace_back(layer, self[i]);
    } else {
      it->second += self[i];
    }
  }
  return layers;
}

bool Spans::WriteChromeTrace(const std::string& path, const std::string& process_name) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f,
               "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
               "\"args\":{\"name\":\"%s\"}}",
               process_name.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%zu,\"parent\":%d,\"n\":%llu}}",
                 s.name, static_cast<double>(s.start_ns) / 1000.0,
                 static_cast<double>(s.end_ns - s.start_ns) / 1000.0, i, s.parent,
                 static_cast<unsigned long long>(s.n));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
