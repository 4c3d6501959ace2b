#include <cinttypes>
#include <cstdio>

#include "bench.hpp"

namespace paxbench {

std::int64_t now_ns() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

namespace {

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

void Json::sep(std::string_view key) {
  if (!first_) out_ += ',';
  first_ = false;
  if (!key.empty()) {
    append_escaped(out_, key);
    out_ += ':';
  }
}

Json& Json::begin_object(std::string_view key) {
  sep(key);
  out_ += '{';
  first_ = true;
  return *this;
}

Json& Json::end_object() {
  out_ += '}';
  first_ = false;
  return *this;
}

Json& Json::begin_array(std::string_view key) {
  sep(key);
  out_ += '[';
  first_ = true;
  return *this;
}

Json& Json::end_array() {
  out_ += ']';
  first_ = false;
  return *this;
}

Json& Json::num(std::string_view key, std::uint64_t v) {
  sep(key);
  out_ += std::to_string(v);
  return *this;
}

Json& Json::num(std::string_view key, std::int64_t v) {
  sep(key);
  out_ += std::to_string(v);
  return *this;
}

Json& Json::str(std::string_view key, std::string_view v) {
  sep(key);
  append_escaped(out_, v);
  return *this;
}

Json& Json::array(std::string_view key, const std::vector<std::int64_t>& v) {
  begin_array(key);
  for (const std::int64_t x : v) num({}, x);
  return end_array();
}

Json& Json::array(std::string_view key,
                  const std::vector<std::uint64_t>& v) {
  begin_array(key);
  for (const std::uint64_t x : v) num({}, x);
  return end_array();
}

std::uint32_t Tracer::record(const char* name, std::int64_t start_ns,
                             std::int64_t end_ns, std::uint64_t op,
                             std::uint32_t parent) {
  const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back(Span{name, start_ns, end_ns, id, parent, op, tid_});
  return id;
}

void Tracer::merge(const Tracer& other) {
  const auto offset = static_cast<std::uint32_t>(spans_.size());
  for (Span s : other.spans_) {
    s.id += offset;
    if (s.parent != 0) s.parent += offset;
    spans_.push_back(s);
  }
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"paxbench\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%" PRIu32 ",\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                 "\"id\":%" PRIu32 ",\"parent\":%" PRIu32 ",\"op\":%" PRIu64
                 "}}%s\n",
                 s.name, s.tid, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                 s.parent, s.op, i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace paxbench
