// Durable binary snapshots: the byte-level half of checkpoint/restart.
//
// A checkpoint file is
//
//   offset  size  field
//   ------  ----  -----------------------------------------------
//   0       4     magic "WPCK"
//   4       4     format version (u32 LE) — currently 2
//   8       8     generation (u64 LE, monotonically increasing per run)
//   16      8     payload length in bytes (u64 LE)
//   24      4     CRC-32 of the payload (u32 LE, IEEE polynomial)
//   28      n     payload (engine-defined, see engine/resilience.hpp)
//
// Durability protocol: every write goes to `<path>.tmp`, is fsync'd, then
// renamed over one of TWO generation slots `<path>.a` / `<path>.b` (picked by
// generation parity).  rename(2) is atomic on POSIX, so a reader never sees a
// torn file, and double-buffering means a crash DURING a checkpoint write can
// at worst lose the newest generation — the previous slot still validates.
// LoadNewestCheckpoint() reads both slots and returns the highest-generation
// payload whose magic/version/length/CRC all check out.
//
// Fault sites (util/fault.hpp): `ckpt.write` simulates an I/O failure (throws
// CheckpointError before the slot is replaced); `ckpt.corrupt` flips a payload
// byte AFTER the CRC is computed, producing an on-disk file that must be
// rejected at load time.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace wavepipe::util {

/// Anything wrong with checkpoint I/O or contents: unreadable/corrupt files,
/// truncated payloads, format-version or run-fingerprint mismatches.  Mapped
/// to its own wavespice exit code (5) so job schedulers can distinguish
/// "resume input is bad" from "the analysis itself failed".
class CheckpointError : public Error {
 public:
  explicit CheckpointError(const std::string& what) : Error(what) {}
};

/// CRC-32 (IEEE 802.3 polynomial, bit-reflected) over `bytes`.
std::uint32_t Crc32(std::span<const std::uint8_t> bytes);

/// Little-endian append-only payload builder.  All multi-byte integers are
/// written LE regardless of host order so checkpoint files are portable.
class ByteWriter {
 public:
  void U8(std::uint8_t v) { bytes_.push_back(v); }
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void F64(double v);
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Str(const std::string& v);
  void DoubleVec(std::span<const double> v);

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> Take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked sequential reader over a payload.  Every underrun throws
/// CheckpointError — a truncated file can never be silently accepted.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t U8();
  std::uint32_t U32();
  std::uint64_t U64();
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  double F64();
  bool Bool() { return U8() != 0; }
  std::string Str();
  std::vector<double> DoubleVec();

  bool AtEnd() const { return pos_ == bytes_.size(); }
  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  void Need(std::size_t n);
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// Version 2 appends the factor-cache counters to the engine's run stats; a
/// version-1 file is rejected rather than misread.
inline constexpr std::uint32_t kCheckpointFormatVersion = 2;

/// Atomically publishes `payload` as generation `generation` of checkpoint
/// `path_base` (slot `<path_base>.a` or `.b` by generation parity).  Returns
/// the number of bytes written (header + payload).  Throws CheckpointError on
/// any I/O failure (including the injected `ckpt.write` fault) — the
/// previously published slots are untouched in every failure mode.
std::size_t WriteCheckpointSlot(const std::string& path_base,
                                std::span<const std::uint8_t> payload,
                                std::uint64_t generation);

struct LoadedCheckpoint {
  std::uint64_t generation = 0;
  std::vector<std::uint8_t> payload;
};

/// Reads both generation slots of `path_base` (falling back to `path_base`
/// itself as a bare single file) and returns the highest-generation payload
/// that validates.  Throws CheckpointError when no slot holds a valid
/// checkpoint, with the per-slot rejection reasons in the message.
LoadedCheckpoint LoadNewestCheckpoint(const std::string& path_base);

}  // namespace wavepipe::util
