#include "obs/events.hpp"

#include <algorithm>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>

namespace smrp::obs {

namespace {

[[noreturn]] void bad_record(std::string_view kind, std::size_t keys,
                             std::size_t values) {
  throw std::invalid_argument("event shape '" + std::string(kind) +
                              "' takes " + std::to_string(keys) +
                              " values, got " + std::to_string(values));
}

}  // namespace

const double* Event::attr(std::string_view key) const noexcept {
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (keys[i] == key) return &values[i];
  }
  return nullptr;
}

std::string_view EventLog::intern(std::string_view name) {
  for (const std::string& known : names_) {
    if (known == name) return known;
  }
  return names_.emplace_back(name);
}

EventShape EventLog::shape(std::string_view kind,
                           std::initializer_list<std::string_view> keys) {
  for (std::uint32_t id = 0; id < shapes_.size(); ++id) {
    const Shape& known = shapes_[id];
    if (known.kind == kind &&
        std::equal(known.keys.begin(), known.keys.end(), keys.begin(),
                   keys.end())) {
      return EventShape{id};
    }
  }
  Shape added;
  added.kind = intern(kind);
  added.keys.reserve(keys.size());
  for (const std::string_view key : keys) added.keys.push_back(intern(key));
  shapes_.push_back(std::move(added));
  return EventShape{static_cast<std::uint32_t>(shapes_.size() - 1)};
}

std::byte* EventLog::reserve(std::size_t bytes) {
  if (blocks_.empty() ||
      blocks_.back().capacity - blocks_.back().used < bytes) {
    // Uninitialised on purpose: every byte handed out is written before
    // it is read. A record larger than a block gets a block of its own.
    const std::size_t capacity = std::max(bytes, kBlockBytes);
    blocks_.push_back(
        Block{std::make_unique_for_overwrite<std::byte[]>(capacity), 0,
              capacity});
  }
  Block& block = blocks_.back();
  std::byte* at = block.bytes.get() + block.used;
  block.used += bytes;
  return at;
}

void EventLog::record(EventShape shape, std::int32_t node, double t,
                      std::initializer_list<double> values) {
  if (shape.id >= shapes_.size()) {
    throw std::invalid_argument("event shape " + std::to_string(shape.id) +
                                " is not interned in this log");
  }
  const Shape& s = shapes_[shape.id];
  if (values.size() != s.keys.size()) {
    bad_record(s.kind, s.keys.size(), values.size());
  }
  if (sealed_) {
    ++late_records_;
    return;
  }
  std::byte* at = reserve(record_bytes(values.size()));
  const Header header{t, node, shape.id};
  std::memcpy(at, &header, sizeof(Header));
  // Constructed in place, so view() can hand out a span over them.
  std::uninitialized_copy(values.begin(), values.end(),
                          reinterpret_cast<double*>(at + sizeof(Header)));
  ++size_;
  if (observer_ != nullptr) observer_->on_event(view(at));
}

Event EventLog::view(const std::byte* record) const noexcept {
  Header header{};
  std::memcpy(&header, record, sizeof(Header));
  const Shape& s = shapes_[header.shape];
  Event event;
  event.kind = s.kind;
  event.node = header.node;
  event.t = header.t;
  event.keys = s.keys;
  event.values = {std::launder(reinterpret_cast<const double*>(
                      record + sizeof(Header))),
                  s.keys.size()};
  return event;
}

std::size_t EventLog::count(std::string_view kind) const noexcept {
  std::size_t n = 0;
  for_each([&](const Event& event) {
    if (event.kind == kind) ++n;
  });
  return n;
}

}  // namespace smrp::obs
