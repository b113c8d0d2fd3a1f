#include "spans.h"

#include <cstdio>

namespace perfbench {

int SpanLog::Open(const std::string& name, const std::string& layout,
                  const char* op, int parent, uint32_t stmt) {
  if (spans_.size() >= kMaxSpans) {
    dropped_++;
    return -1;
  }
  Record r;
  r.name = name;
  r.layout = layout;
  r.op = op;
  r.parent = parent;
  r.stmt = stmt;
  r.start_ns = Ns(Clock::now());
  spans_.push_back(std::move(r));
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::SetTimes(int id, Clock::time_point start, Clock::time_point end) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].start_ns = Ns(start);
  spans_[static_cast<size_t>(id)].end_ns = Ns(end);
}

void SpanLog::Close(int id) {
  if (id < 0) return;
  Record& r = spans_[static_cast<size_t>(id)];
  if (r.end_ns < 0) r.end_ns = Ns(Clock::now());
}

void SpanLog::Add(const char* name, int parent, uint32_t stmt,
                  Clock::time_point start, Clock::time_point end) {
  if (parent < 0) return;
  const Record& p = spans_[static_cast<size_t>(parent)];
  const int id = Open(name, p.layout, p.op, parent, stmt);
  SetTimes(id, start, end);
}

void SpanLog::AddTree(const mtdb::trace::Span& root, int parent, uint32_t stmt,
                      Clock::time_point start, std::vector<double>* admit_us) {
  if (parent < 0) return;
  AddChildren(root, parent, stmt, Ns(start), admit_us);
}

void SpanLog::AddChildren(const mtdb::trace::Span& span, int parent,
                          uint32_t stmt, int64_t start_ns,
                          std::vector<double>* admit_us) {
  int64_t at = start_ns;
  for (const auto& child : span.children) {
    const Record& p = spans_[static_cast<size_t>(parent)];
    const int id = Open(child->name, p.layout, p.op, parent, stmt);
    if (id < 0) return;
    const int64_t len = static_cast<int64_t>(child->elapsed_ns);
    spans_[static_cast<size_t>(id)].start_ns = at;
    spans_[static_cast<size_t>(id)].end_ns = at + len;
    if (child->name.rfind("admit", 0) == 0) {
      admit_us->push_back(static_cast<double>(len) / 1000.0);
    }
    AddChildren(*child, id, stmt, at, admit_us);
    at += len;
  }
}

namespace {

std::string Escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

bool SpanLog::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"parent\": %d, \"stmt\": %u, \"name\": "
                 "\"%s\", \"layout\": \"%s\", \"op\": \"%s\", \"start_ns\": "
                 "%lld, \"end_ns\": %lld}\n",
                 i, r.parent, r.stmt, Escaped(r.name).c_str(),
                 r.layout.c_str(), r.op, static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns));
  }
  if (dropped_ > 0) {
    std::fprintf(f, "{\"dropped_spans\": %llu}\n",
                 static_cast<unsigned long long>(dropped_));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
