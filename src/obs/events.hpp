// Point-in-time protocol events, the instantaneous counterpart of the
// episode spans: a payload forwarded by a node, a payload delivered to a
// member, a crash-restart observed. Events carry a kind, the node they
// happened at, the sim time, and flat numeric attributes — exactly the
// vocabulary the expectations checker's per-message rules ("no data is
// forwarded off-tree", "no nonce is delivered twice") need, and nothing
// protocol state could feed back on.
//
// Like spans, the log is append-only and purely observational; recording
// never schedules simulator work or consumes randomness. Emission order
// is preserved both in memory and in the JSONL export, so an online tap
// and an offline replay see the same stream.
//
// Storage (DESIGN.md §8). A producer interns each (kind, ordered keys)
// pair once as an EventShape, the way metric handles are resolved at
// attach time, and then records bare values. A record is a 16-byte header
// (t, node, shape) followed by its values, packed into fixed 64 KiB
// blocks, so recording a payload event allocates nothing: the log
// allocates once per block. Readers get Event views over the blocks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace smrp::obs {

/// Non-owning view of one event. Views handed out by an EventLog stay
/// valid while the log lives.
struct Event {
  std::string_view kind;   ///< e.g. "forward", "deliver", "restart"
  std::int64_t node = -1;  ///< protocol agent the event happened at
  double t = 0.0;          ///< sim time (ms)
  /// Attribute keys and their values, parallel, in recording order
  /// (e.g. {"seq"} and {41}).
  std::span<const std::string_view> keys;
  std::span<const double> values;

  /// Value of the first attribute named `key`, or null.
  [[nodiscard]] const double* attr(std::string_view key) const noexcept;
};

/// Online tap into the event stream, notified once per recorded event in
/// emission order.
class EventObserver {
 public:
  virtual ~EventObserver() = default;
  virtual void on_event(const Event& event) = 0;
};

/// An interned (kind, ordered attribute keys) pair of one EventLog.
struct EventShape {
  std::uint32_t id = 0;
};

class EventLog {
 public:
  EventLog() = default;
  // Shapes and views point into the log's own storage, which a move
  // hands over intact and a copy would not.
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;
  EventLog(EventLog&&) noexcept = default;
  EventLog& operator=(EventLog&&) noexcept = default;

  /// Intern `kind` with its ordered attribute `keys`; asking again for the
  /// same pair returns the same shape. The same kind with other keys is
  /// another shape.
  [[nodiscard]] EventShape shape(std::string_view kind,
                                 std::initializer_list<std::string_view> keys);

  /// Append one event of `shape`, its `values` in the shape's key order;
  /// notifies the observer after the event is stored. Throws
  /// std::invalid_argument when `shape` is not this log's or the value
  /// count does not match its keys.
  void record(EventShape shape, std::int32_t node, double t,
              std::initializer_list<double> values);

  /// Attach (or detach with nullptr) the tap; not owned.
  void set_observer(EventObserver* observer) noexcept { observer_ = observer; }

  /// Freeze the log: later record() calls are ignored (and counted in
  /// late_records()) so emission after the end-of-run flush cannot skew
  /// the exported stream or re-trigger the online tap.
  void seal() noexcept { sealed_ = true; }
  [[nodiscard]] bool sealed() const noexcept { return sealed_; }
  /// record() calls rejected after seal(); 0 under correct usage.
  [[nodiscard]] std::uint64_t late_records() const noexcept {
    return late_records_;
  }

  /// Call `visit(const Event&)` for every stored event, in emission order.
  template <class Visitor>
  void for_each(Visitor&& visit) const {
    for (const Block& block : blocks_) {
      const std::byte* at = block.bytes.get();
      const std::byte* const end = at + block.used;
      while (at < end) {
        const Event event = view(at);
        visit(event);
        at += record_bytes(event.values.size());
      }
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Events of the given kind.
  [[nodiscard]] std::size_t count(std::string_view kind) const noexcept;

 private:
  struct Shape {
    std::string_view kind;               ///< into names_
    std::vector<std::string_view> keys;  ///< into names_; never resized
  };
  struct Header {
    double t;
    std::int32_t node;
    std::uint32_t shape;
  };
  static_assert(sizeof(Header) == 16);
  struct Block {
    std::unique_ptr<std::byte[]> bytes;
    std::size_t used = 0;
    std::size_t capacity = 0;
  };

  static constexpr std::size_t kBlockBytes = 64 * 1024;

  static constexpr std::size_t record_bytes(std::size_t values) noexcept {
    return sizeof(Header) + values * sizeof(double);
  }
  std::string_view intern(std::string_view name);
  /// Room for `bytes` in the current block, or in a new one; a record
  /// never straddles two blocks.
  std::byte* reserve(std::size_t bytes);
  [[nodiscard]] Event view(const std::byte* record) const noexcept;

  std::deque<std::string> names_;  ///< stable: views point into it
  std::vector<Shape> shapes_;
  std::vector<Block> blocks_;
  std::size_t size_ = 0;
  std::uint64_t late_records_ = 0;
  bool sealed_ = false;
  EventObserver* observer_ = nullptr;
};

}  // namespace smrp::obs
