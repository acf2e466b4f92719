#include "util/bytes.h"

#include <utility>

namespace cd {
namespace {

// Keep a bounded number of idle buffers per thread, and refuse to hoard
// unusually large ones (a 64 KiB cap comfortably covers a max-size DNS
// message inside a full IP packet). The idle cap covers a full burst of
// in-flight packets — the network releases each payload as its packet is
// delivered or dropped, often a whole burst before the next one acquires —
// so steady-state bursts recycle instead of round-tripping through the
// allocator.
constexpr std::size_t kMaxIdle = 1024;
constexpr std::size_t kMaxPooledCapacity = 64 * 1024;

std::vector<std::vector<std::uint8_t>>& pool() {
  thread_local std::vector<std::vector<std::uint8_t>> idle;
  return idle;
}

}  // namespace

std::vector<std::uint8_t> BufferPool::acquire() {
  auto& idle = pool();
  if (idle.empty()) return {};
  std::vector<std::uint8_t> buf = std::move(idle.back());
  idle.pop_back();
  buf.clear();
  return buf;
}

void BufferPool::release(std::vector<std::uint8_t>&& buf) {
  auto& idle = pool();
  if (buf.capacity() == 0 || buf.capacity() > kMaxPooledCapacity ||
      idle.size() >= kMaxIdle) {
    return;  // let it free normally
  }
  idle.push_back(std::move(buf));
}

std::size_t BufferPool::idle_count() {
  return pool().size();
}

}  // namespace cd
