#include "src/os/machine_image_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <vector>

#include "src/sim/archive.h"

namespace graysim {

namespace {

// "GSIMIMG1" — eight ASCII bytes, written verbatim (endianness-free).
constexpr std::uint8_t kMagic[8] = {'G', 'S', 'I', 'M', 'I', 'M', 'G', '1'};

// Section tags, written (and required on load) in exactly this order. The
// order is load-bearing: CONFIG must parse before any section that needs
// the profile/config to construct its objects (MEM builds the MemSystem
// from them, DISKS needs the geometry).
enum class Section : std::uint32_t {
  kIdentity = 1,
  kConfig = 2,
  kKernel = 3,
  kFilesystems = 4,
  kDisks = 5,
  kNet = 6,
  kMem = 7,
  kTables = 8,
  kChaos = 9,
};

constexpr std::string_view kSectionNames[kImageSectionCount] = {
    "identity", "config", "kernel", "filesystems", "disks",
    "net",      "memory", "tables", "chaos",
};

void Fail(std::string* error, const std::string& msg) {
  if (error != nullptr) {
    *error = msg;
  }
}

// The config floor. The loader builds the MemSystem, PageCache and one Ffs
// per disk from the config before it reads their state, and Machine::Fork
// builds a whole Os from it, so a config those constructors cannot take is
// rejected here: a zero page size; no disks, or more than 64; no frames, or
// more than a FrameId can name; a file-cache partition outside the pool; a
// disk or file system whose block numbers overflow the 32-bit page index of
// the cache keys; cylinder groups that cannot hold their inode table; or
// more i-numbers than the 24 bits the Os tags them into.
[[nodiscard]] bool Buildable(const PlatformProfile& profile, const MachineConfig& c) {
  const FsParams& fs = c.fs_params;
  if (c.page_size == 0 || c.num_disks < 1 || c.num_disks > 64 ||
      c.phys_mem_bytes <= c.kernel_reserved_bytes || fs.inode_size == 0 ||
      fs.inode_size > c.page_size || fs.inodes_per_cg == 0 || fs.blocks_per_cg == 0) {
    return false;
  }
  const std::uint64_t frames = (c.phys_mem_bytes - c.kernel_reserved_bytes) / c.page_size;
  const std::uint64_t cache_frames = profile.file_cache_bytes / c.page_size;
  const std::uint64_t disk_pages = c.disk_geometry.capacity_bytes / c.page_size;
  const std::uint64_t fs_blocks = fs.total_blocks == 0 ? disk_pages : fs.total_blocks;
  const std::uint64_t groups = fs_blocks / fs.blocks_per_cg;
  const std::uint64_t inodes_per_block = c.page_size / fs.inode_size;
  const std::uint64_t inode_blocks = (fs.inodes_per_cg + inodes_per_block - 1) / inodes_per_block;
  return frames != 0 && frames < kNoFrame &&
         (profile.mem_policy != MemPolicy::kPartitionedFixedFile ||
          (cache_frames != 0 && cache_frames < frames)) &&
         disk_pages < (1ULL << 32) && fs_blocks < (1ULL << 32) && groups != 0 &&
         inode_blocks < fs.blocks_per_cg && groups * fs.inodes_per_cg < (1ULL << 24) - 1;
}

// The field list of each section. Reading runs it on an empty image whose
// earlier sections are already loaded (CONFIG sizes what MEM, DISKS and
// FILESYSTEMS construct); writing only reads through `image`.
template <typename Ar>
void TransferSection(Ar& ar, Section section, MachineImage& image) {
  Os::Image& os = image.os;
  const PlatformProfile& profile = os.profile;
  const MachineConfig& config = os.config;
  const auto num_disks = static_cast<std::uint64_t>(config.num_disks);
  switch (section) {
    case Section::kIdentity:
      ar(image.id, image.root_seed);
      break;
    case Section::kConfig:
      ar(os.profile, os.config);
      ar.Check(Buildable(profile, config));
      break;
    case Section::kKernel:
      ar(os.now, os.kernel, os.jitter_rng, os.events);
      break;
    case Section::kFilesystems: {
      std::uint64_t n = os.filesystems.size();
      ar.Count(n, 32);
      ar.Check(n == num_disks);
      if constexpr (Ar::kReading) {
        // Built with the config's fs params, as the Os constructor builds
        // them; the transfer then overwrites every field, params included.
        FsParams params = config.fs_params;
        params.block_size = config.page_size;
        params.allocator = profile.fs_allocator;
        for (std::uint64_t d = 0; d < n && ar.ok(); ++d) {
          os.filesystems.emplace_back(params, config.disk_geometry.capacity_bytes);
        }
      }
      for (Ffs& fs : os.filesystems) {
        ar(fs);
      }
      break;
    }
    case Section::kDisks: {
      std::uint64_t n = os.disks.size();
      ar.Count(n, 57);
      ar.Check(n == num_disks);
      if constexpr (Ar::kReading) {
        for (std::uint64_t d = 0; d < n && ar.ok(); ++d) {
          os.disks.emplace_back(config.disk_geometry, static_cast<int>(d));
        }
      }
      for (Disk& disk : os.disks) {
        ar(disk);
      }
      ar(os.disk_devices);
      ar.Check(os.disk_devices.size() == os.disks.size());
      break;
    }
    case Section::kNet:
      ar(os.net);
      break;
    case Section::kMem:
      if constexpr (Ar::kReading) {
        // Sized exactly as the Os constructor sizes the hierarchy.
        os.mem = std::make_unique<MemSystem>(MemSystem::Config{
            (config.phys_mem_bytes - config.kernel_reserved_bytes) / config.page_size,
            profile.mem_policy, profile.file_cache_bytes / config.page_size});
        os.cache = std::make_unique<PageCache>(os.mem.get());
        os.vm = std::make_unique<Vm>(os.mem.get());
      }
      ar(*os.mem, *os.cache, *os.vm);
      break;
    case Section::kTables:
      ar(os.fd_tables);
      // In-flight fills are keyed by disk page, and at most every page of
      // every disk can be on the wire at once.
      os.inflight_reads.Transfer(
          ar, std::max<std::uint64_t>(
                  16, 4 * num_disks * (config.disk_geometry.capacity_bytes / config.page_size)));
      ar(os.next_read_token, os.flush_daemon_scheduled, os.page_daemon_scheduled, os.next_pid,
         os.os_stats);
      break;
    case Section::kChaos:
      ar(os.chaos_armed, os.chaos_plan, os.chaos_rng, os.chaos_stats, os.chaos_epoch,
         os.antagonist_reader_pos, os.antagonist_dirty_pos);
      break;
  }
}

// The nine section payloads, in file order.
[[nodiscard]] std::array<std::vector<std::uint8_t>, kImageSectionCount> EncodeSections(
    const MachineImage& image) {
  std::array<std::vector<std::uint8_t>, kImageSectionCount> payloads;
  for (std::size_t i = 0; i < kImageSectionCount; ++i) {
    WriteArchive ar;
    TransferSection(ar, static_cast<Section>(i + 1), const_cast<MachineImage&>(image));
    payloads[i] = ar.Take();
  }
  return payloads;
}

// Durable write: tmp file + fsync + rename + directory fsync — the host-side
// twin of the write-order model the simulated kernel exposes through Fsync.
[[nodiscard]] bool WriteFileDurably(const std::string& path,
                                    const std::vector<std::uint8_t>& bytes,
                                    std::string* error) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    Fail(error, "open " + tmp + ": " + std::strerror(errno));
    return false;
  }
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      Fail(error, "write " + tmp + ": " + std::strerror(errno));
      ::close(fd);
      ::unlink(tmp.c_str());
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    Fail(error, "fsync " + tmp + ": " + std::strerror(errno));
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  if (::close(fd) != 0) {
    Fail(error, "close " + tmp + ": " + std::strerror(errno));
    ::unlink(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    Fail(error, "rename " + tmp + " -> " + path + ": " + std::strerror(errno));
    ::unlink(tmp.c_str());
    return false;
  }
  // fsync the directory so the rename itself is durable.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    (void)::fsync(dfd);
    ::close(dfd);
  }
  return true;
}

}  // namespace

bool SaveMachineImage(const MachineImage& image, const std::string& path, std::string* error) {
  ByteWriter file;
  file.Bytes(kMagic, sizeof kMagic);
  file.Le(kMachineImageFormatVersion, 4);
  file.Le(kImageSectionCount, 4);
  const auto payloads = EncodeSections(image);
  for (std::size_t i = 0; i < kImageSectionCount; ++i) {
    const std::vector<std::uint8_t>& body = payloads[i];
    file.Le(i + 1, 4);
    file.Le(body.size(), 8);
    file.Le(Crc32(body.data(), body.size()), 4);
    file.Bytes(body.data(), body.size());
  }
  return WriteFileDurably(path, file.data(), error);
}

bool LoadMachineImage(const std::string& path, MachineImage* out, std::string* error) {
  std::vector<std::uint8_t> bytes;
  {
    // A directory opens as a stream too, and its end offset is -1 or
    // (on ext4) 2^63 - 1: neither is a size to allocate.
    std::error_code ec;
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in || !std::filesystem::is_regular_file(path, ec)) {
      Fail(error, "cannot open " + path + " as a regular file");
      return false;
    }
    const std::streamsize size = in.tellg();
    in.seekg(0);
    if (size < 0) {
      Fail(error, "cannot read " + path);
      return false;
    }
    bytes.resize(static_cast<std::size_t>(size));
    if (!in.read(reinterpret_cast<char*>(bytes.data()), size)) {
      Fail(error, "cannot read " + path);
      return false;
    }
  }

  ByteReader header(bytes.data(), bytes.size());
  std::uint8_t magic[sizeof kMagic];
  if (!header.Bytes(magic, sizeof magic) || std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    Fail(error, path + ": not a graysim machine image (bad magic)");
    return false;
  }
  const std::uint64_t version = header.Le(4);
  if (!header.ok() || version != kMachineImageFormatVersion) {
    Fail(error, path + ": unsupported format version " + std::to_string(version));
    return false;
  }
  const std::uint64_t section_count = header.Le(4);
  if (!header.ok() || section_count != kImageSectionCount) {
    Fail(error, path + ": unexpected section count");
    return false;
  }

  // Verify framing and CRCs for EVERY section before parsing any: a file
  // with a corrupt later section must be rejected without side effects.
  struct RawSection {
    const std::uint8_t* data = nullptr;
    std::size_t size = 0;
  };
  RawSection sections[kImageSectionCount];
  for (std::size_t i = 0; i < kImageSectionCount; ++i) {
    const std::uint64_t tag = header.Le(4);
    const std::uint64_t len = header.Le(8);
    const std::uint64_t crc = header.Le(4);
    if (!header.ok() || tag != i + 1 || len > header.remaining()) {
      Fail(error, path + ": truncated or malformed section table");
      return false;
    }
    const std::uint8_t* payload = bytes.data() + (bytes.size() - header.remaining());
    if (Crc32(payload, static_cast<std::size_t>(len)) != crc) {
      Fail(error, path + ": section " + std::to_string(tag) + " checksum mismatch");
      return false;
    }
    sections[i] = RawSection{payload, static_cast<std::size_t>(len)};
    (void)header.Skip(static_cast<std::size_t>(len));
  }
  if (header.remaining() != 0) {
    Fail(error, path + ": trailing bytes after last section");
    return false;
  }

  MachineImage image;
  for (std::size_t i = 0; i < kImageSectionCount; ++i) {
    ReadArchive ar(sections[i].data, sections[i].size);
    TransferSection(ar, static_cast<Section>(i + 1), image);
    if (!ar.Done()) {
      Fail(error, path + ": malformed " + std::string(kSectionNames[i]) + " section");
      return false;
    }
  }
  *out = std::move(image);
  return true;
}

ImageDigest StateDigest(const MachineImage& image) {
  ImageDigest digest;
  const auto payloads = EncodeSections(image);
  for (std::size_t i = 0; i < kImageSectionCount; ++i) {
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (const std::uint8_t b : payloads[i]) {
      h = (h ^ b) * 0x100000001B3ULL;
    }
    digest.sections[i] = h;
  }
  return digest;
}

std::string_view FirstDifferingSection(const ImageDigest& a, const ImageDigest& b) {
  for (std::size_t i = 0; i < kImageSectionCount; ++i) {
    if (a.sections[i] != b.sections[i]) {
      return kSectionNames[i];
    }
  }
  return {};
}

void PrintTo(const ImageDigest& digest, std::ostream* os) {
  const std::ios_base::fmtflags flags = os->flags();
  *os << std::hex << std::setfill('0');
  for (std::size_t i = 0; i < kImageSectionCount; ++i) {
    *os << (i == 0 ? "{" : ", ") << kSectionNames[i] << "=" << std::setw(16)
        << digest.sections[i];
  }
  *os << "}";
  os->flags(flags);
}

}  // namespace graysim
