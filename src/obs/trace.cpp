#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <vector>

#include "util/string_utils.hpp"
#include "util/thread_pool.hpp"

namespace uniscan::obs {

namespace {

using Clock = std::chrono::steady_clock;

struct Event {
  char phase;             // 'B' or 'E'
  const char* name;       // static string; null for 'E'
  std::string arg;        // optional argument of a 'B' event
  std::uint32_t tid;      // pool worker index
  std::uint64_t ts_us;    // microseconds since trace start
};

constexpr std::size_t kMaxBuffers = 256;        // >= any realistic pool size
constexpr std::size_t kMaxEventsPerBuffer = 1 << 16;

struct Buffer {
  std::vector<Event> events;
  std::uint64_t dropped = 0;
};

std::atomic<bool> g_tracing{false};
Clock::time_point g_start;
std::string g_path;
Buffer g_buffers[kMaxBuffers];
std::mutex g_control;  // guards start/stop; the record path is lock-free
bool g_atexit_registered = false;

Buffer& buffer_here() noexcept {
  return g_buffers[ThreadPool::worker_id() & (kMaxBuffers - 1)];
}

std::uint64_t now_us() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - g_start).count());
}

void record(Event e) noexcept {
  Buffer& b = buffer_here();
  if (b.events.size() >= kMaxEventsPerBuffer) {
    ++b.dropped;
    return;
  }
  b.events.push_back(std::move(e));
}

}  // namespace

bool Tracer::enabled() noexcept { return g_tracing.load(std::memory_order_relaxed); }

void Tracer::start(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_control);
  for (Buffer& b : g_buffers) {
    b.events.clear();
    b.dropped = 0;
  }
  g_path = path;
  g_start = Clock::now();
  if (!g_atexit_registered) {
    g_atexit_registered = true;
    std::atexit([] { Tracer::stop_and_write(); });
  }
  g_tracing.store(true, std::memory_order_release);
}

void Tracer::stop_and_write() {
  std::lock_guard<std::mutex> lock(g_control);
  if (!g_tracing.load(std::memory_order_relaxed)) return;
  g_tracing.store(false, std::memory_order_release);

  std::ofstream out(g_path);
  if (!out) {
    std::fprintf(stderr, "trace: cannot write %s\n", g_path.c_str());
    return;
  }

  // One event per line: greppable, and the golden test can parse it without
  // a JSON library. Buffers are emitted per worker, preserving each lane's
  // chronological (and properly nested) order.
  std::uint64_t dropped = 0;
  out << "{\"traceEvents\": [\n";
  bool first = true;
  for (const Buffer& b : g_buffers) {
    dropped += b.dropped;
    for (const Event& e : b.events) {
      if (!first) out << ",\n";
      first = false;
      out << "{\"ph\": \"" << e.phase << "\", \"pid\": 1, \"tid\": " << e.tid
          << ", \"ts\": " << e.ts_us;
      if (e.phase == 'B') {
        out << ", \"name\": \"" << json_escape(e.name) << "\"";
        if (!e.arg.empty()) out << ", \"args\": {\"target\": \"" << json_escape(e.arg) << "\"}";
      }
      out << "}";
    }
  }
  out << "\n], \"otherData\": {\"dropped_events\": " << dropped << "}}\n";
}

void TraceSpan::begin(const char* name, std::string_view arg) noexcept {
  active_ = true;
  record(Event{'B', name, std::string(arg),
               static_cast<std::uint32_t>(ThreadPool::worker_id()), now_us()});
}

void TraceSpan::end() noexcept {
  // A span that outlives stop_and_write would record an unmatched E into
  // the next trace; drop it instead (the writer already closed its B).
  if (!Tracer::enabled()) return;
  record(Event{'E', nullptr, {}, static_cast<std::uint32_t>(ThreadPool::worker_id()), now_us()});
}

}  // namespace uniscan::obs
