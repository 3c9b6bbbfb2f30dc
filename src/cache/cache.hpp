// Power-aware cache & destage tier: configuration and counters.
//
// The cache tier sits between the storage system and the disks (Behzadnia et
// al., "Energy-Aware Disk Storage Management": cache-mediated request
// reshaping is the dominant online lever on top of spin-down scheduling). It
// has two halves:
//
//   * LruBlockCache (block_cache.hpp) — a deterministic read cache. Hits
//     complete at DRAM latency and never touch a disk, which extends exactly
//     the idle windows the Eq. 6 cost schedulers and the covering-subset
//     policy exploit.
//   * WriteBackBuffer (write_back.hpp) — an NVRAM-modelled dirty tier with
//     power-aware destaging: dirty blocks are grouped per home disk and
//     written back opportunistically when that disk is spinning anyway
//     (riding an already-paid spin-up, generalizing write-offloading's lazy
//     reclaim), with watermark/deadline force-destage as the backstop.
//
// Everything here is seed-free: replacement state and destage order are pure
// functions of the request stream, so sweep results stay bit-identical at
// any EAS_THREADS. The tier's memory is not free either — validate() carries
// a W-per-GiB power figure that the storage system charges over the run
// horizon, so reported energy stays honest.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/ids.hpp"

namespace eas::cache {

/// Kept only so the end-to-end benchmark's `cc.policy = kLru` line still
/// compiles; nothing in src/ reads it. The read cache is always the LRU.
enum class CachePolicy : std::uint8_t { kLru = 0 };

struct CacheConfig {
  /// Master switch. Disabled (the default) keeps the whole tier dormant: no
  /// cache objects exist, every instrumentation point is one branch, and
  /// results and output are byte-identical to pre-cache builds.
  bool enabled = false;

  /// Read-cache capacity in blocks. 0 is legal (every lookup misses); an
  /// enabled cache with zero capacities must produce results bit-identical
  /// to a disabled one (pinned by test_cache).
  std::size_t capacity_blocks = 0;
  /// Unread, like CachePolicy itself: only the end-to-end benchmark sets it.
  CachePolicy policy = CachePolicy::kLru;

  /// Write-back (dirty) buffer capacity in blocks. 0 selects the
  /// write-through fallback: writes go to disk as if the tier only cached
  /// reads. When the buffer is full, individual writes also fall back to
  /// write-through rather than blocking.
  std::size_t dirty_capacity_blocks = 0;

  /// Service time of a cache hit / buffered write (seconds).
  double dram_latency_seconds = 20e-6;

  /// Bytes per cached block; sizes destage I/O and the memory-energy charge.
  unsigned long block_bytes = 512 * 1024;

  /// Memory power charged for the configured capacity (both halves) over
  /// the run horizon, W per GiB. DDR4 background power is ~0.375 W/GiB;
  /// NVDIMM-style parts run higher.
  double memory_watts_per_gib = 0.375;

  /// A dirty block older than this is force-destaged even if its home disk
  /// must be woken (bounds NVRAM data age).
  double destage_deadline_seconds = 30.0;

  /// Occupancy fractions of dirty_capacity_blocks: crossing `high_watermark`
  /// force-destages (largest group first) until occupancy falls back to
  /// `low_watermark`.
  double high_watermark = 0.75;
  double low_watermark = 0.5;

  /// Blocks destaged per batch (one batch = one burst of internal writes on
  /// a single disk).
  std::size_t max_destage_batch = 8;

  /// Throws InvariantError naming the field (`cache.<field>`) on nonsense:
  /// NaN/Inf or non-positive latency or deadline, negative memory power,
  /// watermarks outside (0,1] or inverted, zero batch, zero block size.
  /// The one rule set: ExperimentBuilder::cache() applies it too. Disabled
  /// configs are never checked.
  void validate() const;

  /// Total tier capacity in bytes (both halves), for the memory-energy
  /// charge.
  unsigned long long footprint_bytes() const {
    return static_cast<unsigned long long>(capacity_blocks +
                                           dirty_capacity_blocks) *
           block_bytes;
  }

  /// Memory energy over `horizon` seconds at the configured W/GiB.
  double memory_energy_joules(double horizon) const;
};

/// Why a destage batch was issued; drives the piggyback/forced counters and
/// the obs trace argument.
enum class DestageReason : std::uint8_t {
  kPiggyback = 0,  ///< home disk was spinning anyway (idle ride-along)
  kWatermark = 1,  ///< dirty occupancy crossed the high watermark
  kDeadline = 2,   ///< a block aged past destage_deadline_seconds
};

/// One run's cache-tier counters; surfaced in RunResult (and its JSON /
/// sweep columns) only when the tier is enabled.
struct CacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits_clean = 0;  ///< served from the read cache
  std::uint64_t hits_dirty = 0;  ///< served from the write-back buffer
  std::uint64_t misses = 0;

  std::uint64_t insertions = 0;  ///< blocks admitted to the read cache
  std::uint64_t evictions = 0;   ///< blocks displaced from the read cache

  std::uint64_t writes_buffered = 0;  ///< absorbed by the write-back buffer
  std::uint64_t writes_through = 0;   ///< fell through to a disk write

  std::uint64_t destage_batches = 0;
  std::uint64_t destaged_blocks = 0;
  std::uint64_t destage_piggyback = 0;  ///< batches riding a spinning disk
  std::uint64_t destage_forced = 0;     ///< watermark/deadline batches

  /// Fault interactions: dirty blocks re-homed to a replica location after
  /// their home disk died, and dirty blocks with no live location left
  /// (counted unavailable — the cache never masks a lost block).
  std::uint64_t dirty_redirected = 0;
  std::uint64_t dirty_lost = 0;
  /// Clean cached copies dropped because the last disk replica died: the
  /// read is counted unavailable exactly as it would be without the cache.
  std::uint64_t lost_copies_dropped = 0;

  /// footprint_bytes · W/GiB · horizon, filled at finish().
  double memory_energy_joules = 0.0;

  std::uint64_t hits() const { return hits_clean + hits_dirty; }
  double hit_ratio() const {
    return lookups > 0 ? static_cast<double>(hits()) /
                             static_cast<double>(lookups)
                       : 0.0;
  }
};

}  // namespace eas::cache
