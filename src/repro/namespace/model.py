"""Data model for the synthetic MSS namespace.

A :class:`Namespace` is the population of files and directories that the
workload generator references and the analyses measure (Table 4, Figures 11
and 12).  It is a plain in-memory structure: lists of
:class:`DirectoryEntry` and :class:`FileEntry` with parent links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class DirectoryEntry:
    """One directory: its path, tree position, and member files."""

    dir_id: int
    path: str
    depth: int
    parent_id: Optional[int]
    file_ids: List[int] = field(default_factory=list)
    subdir_ids: List[int] = field(default_factory=list)

    @property
    def file_count(self) -> int:
        """Number of files directly inside this directory."""
        return len(self.file_ids)


@dataclass
class FileEntry:
    """One file on the MSS."""

    file_id: int
    path: str
    size: int
    dir_id: int
    sequence: int  # position among siblings, for sequential-read clustering


class Namespace:
    """The full synthetic file store."""

    def __init__(self) -> None:
        self.directories: List[DirectoryEntry] = []
        self.files: List[FileEntry] = []
        self._by_path: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Construction

    def add_directory(
        self, path: str, depth: int, parent_id: Optional[int]
    ) -> DirectoryEntry:
        """Append a directory; parent (if any) must already exist."""
        if parent_id is not None:
            if not 0 <= parent_id < len(self.directories):
                raise ValueError(f"parent directory {parent_id} does not exist")
        entry = DirectoryEntry(
            dir_id=len(self.directories),
            path=path,
            depth=depth,
            parent_id=parent_id,
        )
        self.directories.append(entry)
        if parent_id is not None:
            self.directories[parent_id].subdir_ids.append(entry.dir_id)
        return entry

    def add_file(self, path: str, size: int, dir_id: int) -> FileEntry:
        """Append a file to an existing directory."""
        if not 0 <= dir_id < len(self.directories):
            raise ValueError(f"directory {dir_id} does not exist")
        if size < 0:
            raise ValueError("file size must be non-negative")
        if path in self._by_path:
            raise ValueError(f"duplicate file path {path!r}")
        directory = self.directories[dir_id]
        entry = FileEntry(
            file_id=len(self.files),
            path=path,
            size=size,
            dir_id=dir_id,
            sequence=directory.file_count,
        )
        self.files.append(entry)
        directory.file_ids.append(entry.file_id)
        self._by_path[path] = entry.file_id
        return entry

    # ------------------------------------------------------------------
    # Lookup

    def file_by_path(self, path: str) -> FileEntry:
        """Find a file by its MSS path."""
        try:
            return self.files[self._by_path[path]]
        except KeyError as exc:
            raise KeyError(f"no such file {path!r}") from exc

    def path_of(self, file_id: int) -> str:
        """MSS path for a (possibly negative) trace file id.

        Negative ids mark references to files that never existed (the
        NO_SUCH_FILE errors); they get a synthesized ``/lost`` path.
        This is the one place that mapping lives.
        """
        if file_id >= 0:
            return self.files[file_id].path
        return f"/lost/req{-file_id:07d}.dat"

    def sibling_after(self, file_entry: FileEntry) -> Optional[FileEntry]:
        """The next file in sequence within the same directory, if any.

        Used by the cluster model: reading ``h00012.nc`` usually leads to
        reading ``h00013.nc``.
        """
        directory = self.directories[file_entry.dir_id]
        next_seq = file_entry.sequence + 1
        if next_seq < directory.file_count:
            return self.files[directory.file_ids[next_seq]]
        return None

    # ------------------------------------------------------------------
    # Table 4 aggregates

    @property
    def file_count(self) -> int:
        """Number of files (Table 4: ~900,000 at full scale)."""
        return len(self.files)

    @property
    def directory_count(self) -> int:
        """Number of directories (Table 4: 143,245 at full scale)."""
        return len(self.directories)

    @property
    def total_bytes(self) -> int:
        """Total data stored (Table 4: ~23 TB at full scale)."""
        return sum(f.size for f in self.files)

    @property
    def average_file_size(self) -> float:
        """Mean file size in bytes (Table 4: 25 MB)."""
        if not self.files:
            return 0.0
        return self.total_bytes / self.file_count

    @property
    def max_depth(self) -> int:
        """Deepest directory (Table 4: 12)."""
        if not self.directories:
            return 0
        return max(d.depth for d in self.directories)

    @property
    def largest_directory_file_count(self) -> int:
        """Files in the fullest directory (Table 4: 24,926 at full scale)."""
        if not self.directories:
            return 0
        return max(d.file_count for d in self.directories)

    def directory_file_counts(self) -> List[int]:
        """Per-directory file counts (the Figure 12 sample)."""
        return [d.file_count for d in self.directories]

    def directory_data_bytes(self) -> List[int]:
        """Per-directory direct data volume in bytes."""
        totals = [0] * len(self.directories)
        for f in self.files:
            totals[f.dir_id] += f.size
        return totals

    def file_sizes(self) -> List[int]:
        """All file sizes in bytes (the Figure 11 sample)."""
        return [f.size for f in self.files]

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on breakage."""
        for d in self.directories:
            if d.parent_id is not None:
                parent = self.directories[d.parent_id]
                if parent.depth != d.depth - 1:
                    raise ValueError(
                        f"directory {d.path!r} depth {d.depth} under parent "
                        f"depth {parent.depth}"
                    )
            for fid in d.file_ids:
                if self.files[fid].dir_id != d.dir_id:
                    raise ValueError(f"file {fid} dir link broken")
        for f in self.files:
            if not f.path.startswith("/"):
                raise ValueError(f"relative file path {f.path!r}")
