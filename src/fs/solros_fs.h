// SolrosFS — the extent-based file system run by the control-plane proxy.
//
// A genuinely working file system over a BlockStore: format/mount, a
// hierarchical namespace (create/unlink/mkdir/rmdir/rename/readdir/stat),
// byte-granular read/write with extent allocation, truncate, and the
// fiemap query that the Solros proxy uses to translate file offsets into
// disk extents for peer-to-peer NVMe transfers (§4.3.2 / §5).
//
// Concurrency model: SolrosFS runs inside the single-threaded simulator;
// public operations are coroutines and must not be interleaved with other
// mutating operations mid-flight by the caller (the proxy serializes
// metadata operations per mount, as the paper's single proxy server does).
// Metadata is cached in memory and written back at the end of each mutating
// operation (bitmaps, inodes). Crash consistency comes from an optional
// write-ahead journal (journal.h): with a journal present, structural
// metadata changes (and, in data mode, file contents) are committed as
// checksummed transactions before their home locations change, and mount
// replays committed transactions / discards torn ones. Pure mtime updates
// are deferred (ext4-style async mtime) until the next structural commit
// or Sync(), so steady-state overwrites of a preallocated file stay
// commit-free in metadata mode. Without a journal the write-back behaviour
// is bit-for-bit the historical one.
#ifndef SOLROS_SRC_FS_SOLROS_FS_H_
#define SOLROS_SRC_FS_SOLROS_FS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"
#include "src/fs/block_store.h"
#include "src/fs/journal.h"
#include "src/fs/layout.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace solros {

class SolrosFs {
 public:
  // `sim` provides mtime stamps; may be nullptr (mtime stays 0).
  explicit SolrosFs(BlockStore* store, Simulator* sim = nullptr);

  // Selects what Format() journals. Must be set before Format; on Mount the
  // on-disk image decides whether a journal exists (an image formatted with
  // one is always replayed and journaled regardless of this knob — only
  // kData vs kMetadata matters for new writes).
  void set_journal_mode(JournalMode mode) { journal_mode_ = mode; }
  JournalMode journal_mode() const { return journal_mode_; }

  // -- Lifecycle -------------------------------------------------------------
  // Writes a fresh file system (clobbers the store) and mounts it. With a
  // journal mode set, `journal_blocks` blocks (default kDefaultJournalBlocks
  // when 0) are reserved between the inode table and the data region.
  Task<Status> Format(uint64_t inode_count = 4096,
                      uint64_t journal_blocks = 0);
  Task<Status> Mount();
  Task<Status> Unmount();
  bool mounted() const { return mounted_; }

  // -- Namespace (absolute '/'-separated paths) -------------------------------
  Task<Result<uint64_t>> Create(const std::string& path);
  Task<Result<uint64_t>> Lookup(const std::string& path);
  Task<Status> Mkdir(const std::string& path);
  Task<Status> Unlink(const std::string& path);
  Task<Status> Rmdir(const std::string& path);
  Task<Status> Rename(const std::string& from, const std::string& to);
  Task<Result<std::vector<DirEntry>>> Readdir(const std::string& path);
  Task<Result<FileStat>> Stat(const std::string& path);
  Task<Result<FileStat>> StatInode(uint64_t ino);

  // -- Data (by inode number, as the proxy holds open handles) ---------------
  // Returns bytes transferred (reads clamp at EOF; writes extend the file).
  Task<Result<uint64_t>> ReadAt(uint64_t ino, uint64_t offset,
                                std::span<uint8_t> out);
  Task<Result<uint64_t>> WriteAt(uint64_t ino, uint64_t offset,
                                 std::span<const uint8_t> in);
  Task<Status> Truncate(uint64_t ino, uint64_t new_size);

  // Maps [offset, offset+length) to disk extents (absolute LBAs). The
  // zero-copy P2P path feeds these directly into NVMe I/O vectors.
  Task<Result<std::vector<FsExtent>>> Fiemap(uint64_t ino, uint64_t offset,
                                             uint64_t length);

  // Allocates blocks and updates size/mtime for an out-of-band write of
  // [offset, offset+length) — the proxy's P2P write path, where the NVMe
  // device itself moves the data. Returns the extents to write. Fails with
  // kFailedPrecondition when the write would leave an unzeroed gap past the
  // current EOF (the caller falls back to the buffered path).
  Task<Result<std::vector<FsExtent>>> PrepareWrite(uint64_t ino,
                                                   uint64_t offset,
                                                   uint64_t length);

  // Flushes dirty metadata and the store.
  Task<Status> Sync();

  // Called with the inode number after every extent-map mutation
  // (StoreExtents, FreeInode). The sharded control plane hangs its
  // cross-shard invalidation protocol off this: the shared extent map
  // bumps the inode's version so every shard's memoized Fiemap results go
  // stale. Unset (the default) costs nothing.
  void set_extent_observer(std::function<void(uint64_t)> observer) {
    extent_observer_ = std::move(observer);
  }

  // -- Introspection ----------------------------------------------------------
  uint64_t free_blocks() const { return super_.free_blocks; }
  uint64_t free_inodes() const { return super_.free_inodes; }
  uint64_t total_blocks() const { return super_.total_blocks; }
  uint32_t block_size() const { return kFsBlockSize; }
  // Non-null while a journaled image is mounted.
  Journal* journal() { return journal_.get(); }
  // What the most recent Mount() replay found.
  const JournalReplayStats& last_replay() const { return replay_stats_; }

 private:
  // Inode cache entry.
  struct CachedInode {
    DiskInode inode;
    bool dirty = false;
  };

  // --- inode & bitmap plumbing ---
  Task<Result<DiskInode*>> GetInode(uint64_t ino);
  void MarkInodeDirty(uint64_t ino);
  // Unjournaled: writes dirty metadata straight to its home locations.
  // Journaled: builds one transaction from the staged data/dir blocks plus
  // every dirty metadata block and commits it — unless nothing structural
  // changed (`force` false, pure-mtime dirt only), which defers to the next
  // structural commit or Sync.
  Task<Status> FlushMetadata(bool force = false);
  Result<uint64_t> AllocInode();
  void FreeInode(uint64_t ino);
  // Allocates up to `want` contiguous blocks (at least 1); returns the run.
  Result<FsExtent> AllocExtent(uint32_t want);
  void FreeBlocks(const FsExtent& extent);

  // --- extent management ---
  Task<Result<std::vector<FsExtent>>> LoadExtents(const DiskInode& inode);
  Task<Status> StoreExtents(uint64_t ino, const std::vector<FsExtent>& ext);
  // Grows the file's allocation to cover `blocks` blocks in total.
  Task<Status> EnsureAllocated(uint64_t ino, uint64_t blocks);

  // --- directories ---
  Task<Result<uint64_t>> DirLookup(uint64_t dir_ino, std::string_view name);
  Task<Status> DirAdd(uint64_t dir_ino, std::string_view name, uint64_t ino,
                      uint8_t type);
  Task<Status> DirRemove(uint64_t dir_ino, std::string_view name);
  Task<Result<bool>> DirIsEmpty(uint64_t dir_ino);

  // --- path walking ---
  struct ResolvedParent {
    uint64_t parent_ino = 0;
    std::string leaf;
  };
  static Status SplitPath(const std::string& path,
                          std::vector<std::string>* components);
  Task<Result<uint64_t>> ResolvePath(const std::string& path);
  Task<Result<ResolvedParent>> ResolveParent(const std::string& path);

  Status CheckMounted() const;
  uint64_t NowNs() const;

  // --- journal staging ---
  // True when writes of `inode`'s contents must go through the journal:
  // directory contents always (they are metadata), file contents in data
  // mode.
  bool JournalsContent(const DiskInode& inode) const {
    return journal_ != nullptr &&
           (inode.IsDir() || journal_mode_ == JournalMode::kData);
  }
  // Queues a whole-block after-image for the next transaction (overwrites
  // any image already staged for that LBA).
  void StageWrite(uint64_t lba, std::span<const uint8_t> block);
  // Reads a metadata block, preferring a staged image over the (stale)
  // home location — needed when one operation re-reads a block it staged
  // earlier (e.g. the indirect extent block right after StoreExtents).
  Task<Status> ReadMetaBlock(uint64_t lba, std::span<uint8_t> out);

  // bitmap helpers over cached bitmap bytes
  static bool BitGet(const std::vector<uint8_t>& bits, uint64_t index);
  static void BitSet(std::vector<uint8_t>& bits, uint64_t index, bool value);

  BlockStore* store_;
  std::function<void(uint64_t)> extent_observer_;
  Simulator* sim_;
  bool mounted_ = false;
  SuperBlock super_ = {};
  std::vector<uint8_t> block_bitmap_;
  std::vector<uint8_t> inode_bitmap_;
  bool block_bitmap_dirty_ = false;
  bool inode_bitmap_dirty_ = false;
  bool super_dirty_ = false;
  uint64_t alloc_cursor_ = 0;  // rotating first-fit start
  std::map<uint64_t, CachedInode> inode_cache_;

  JournalMode journal_mode_ = JournalMode::kOff;
  std::unique_ptr<Journal> journal_;
  JournalReplayStats replay_stats_;
  // Whole-block after-images awaiting the next commit (journaled mounts
  // only); drained by FlushMetadata at the end of every mutating op.
  std::map<uint64_t, std::vector<uint8_t>> staged_writes_;
  // Set by every structural change (allocation, free, extent or size
  // update); distinguishes commits that matter from pure-mtime deferrals.
  bool meta_txn_required_ = false;
};

}  // namespace solros

#endif  // SOLROS_SRC_FS_SOLROS_FS_H_
