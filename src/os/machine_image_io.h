// Durable machine checkpoints: MachineImage <-> versioned binary file.
//
// SaveMachineImage serializes a captured MachineImage (see Os::Image) into
// a self-describing binary file: an 8-byte magic, a format version, and a
// sequence of tagged sections, each carrying its payload length and a CRC32
// of the payload. LoadMachineImage rebuilds a MachineImage that forks
// bit-identically to the original — the file carries every RNG stream
// mid-sequence, every pending event's (when, band, tie, id) key, the exact
// FlatMap slot layouts and free-list orders, and the disks' head positions,
// because any of those reconstructed "almost right" would silently diverge
// a resumed run.
//
// The save is atomic and durable: the image is written to `path + ".tmp"`,
// fsync'd, renamed over `path`, and the containing directory is fsync'd —
// the same write-order discipline the simulated kernel models. A crash
// during save leaves either the old file or the new one, never a torn mix.
//
// Each section's payload is the struct field lists of src/sim/archive.h
// run by a WriteArchive; the load runs the same lists with a ReadArchive.
// It rejects — with a clean error and no partial restore — a path that is
// not a regular file and any file that is truncated, carries the wrong
// magic or version, fails a section CRC, or parses inconsistently (see
// ReadArchive for the checks). Corruption can cost the checkpoint, never
// the process.
#ifndef SRC_OS_MACHINE_IMAGE_IO_H_
#define SRC_OS_MACHINE_IMAGE_IO_H_

#include <array>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>

#include "src/os/machine.h"

namespace graysim {

// Current checkpoint format version. Bump on any encoding change; loaders
// reject other versions outright (no cross-version migration).
inline constexpr std::uint32_t kMachineImageFormatVersion = 1;

// Writes `image` to `path` atomically (tmp + fsync + rename + dir fsync).
// Returns false and fills *error (if non-null) on any I/O failure; `path`
// then still holds its previous contents, if any.
[[nodiscard]] bool SaveMachineImage(const MachineImage& image, const std::string& path,
                                    std::string* error = nullptr);

// Number of tagged sections in a checkpoint file: identity, config, kernel,
// filesystems, disks, net, memory, tables, chaos.
inline constexpr std::size_t kImageSectionCount = 9;

// The full-state digest: one 64-bit FNV-1a per section over the exact
// payload bytes SaveMachineImage writes, so two images with equal digests
// carry the same checkpointable state, byte for byte (up to 64-bit hash
// collisions). It reads a captured image, never the live machine, so
// taking it cannot move virtual time.
struct ImageDigest {
  std::array<std::uint64_t, kImageSectionCount> sections{};

  friend bool operator==(const ImageDigest&, const ImageDigest&) = default;
};

[[nodiscard]] ImageDigest StateDigest(const MachineImage& image);

// Name of the first section in which `a` and `b` differ; empty when equal.
[[nodiscard]] std::string_view FirstDifferingSection(const ImageDigest& a,
                                                     const ImageDigest& b);

// gtest printer: every section as name=hex.
void PrintTo(const ImageDigest& digest, std::ostream* os);

// Reads a checkpoint written by SaveMachineImage. On success *out holds a
// complete image (fork it with Machine::Fork). On any validation failure —
// wrong magic, wrong version, truncation, CRC mismatch, malformed section —
// returns false with *error describing the rejection and *out untouched.
[[nodiscard]] bool LoadMachineImage(const std::string& path, MachineImage* out,
                                    std::string* error = nullptr);

}  // namespace graysim

#endif  // SRC_OS_MACHINE_IMAGE_IO_H_
