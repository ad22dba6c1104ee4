package resultcache

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// The on-disk entry format, version 1 (one file per key, named
// "<key>.prc"):
//
//	offset  bytes  field
//	0       4      magic "PMRC"
//	4       1      version (1)
//	5       1      flags (0, reserved)
//	6       -      uvarint code-version length, code-version bytes
//	...     -      uvarint key length, key bytes (must match the filename)
//	...     -      uvarint payload length, payload bytes
//	...     32     SHA-256 of the payload
//
// Get rejects — and counts as a miss — any entry that is truncated,
// carries the wrong magic/version/flags, names a different key, was
// written by a different code version, or whose payload fails the
// checksum. Rejection is silent by design: the caller recomputes and
// overwrites, exactly as if the entry had never existed.

// entryMagic identifies a result-cache entry file.
const entryMagic = "PMRC"

// entryVersion is the current entry format version.
const entryVersion = 1

// entrySuffix is the entry filename extension.
const entrySuffix = ".prc"

// Mode selects how a Store touches the disk.
type Mode int

const (
	// Off disables the cache entirely (Open returns a nil Store).
	Off Mode = iota
	// ReadWrite serves hits and persists new results.
	ReadWrite
	// ReadOnly serves hits but never writes — for sharing a cache
	// directory that something else (CI) owns.
	ReadOnly
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Off:
		return "off"
	case ReadWrite:
		return "rw"
	case ReadOnly:
		return "ro"
	}
	return "unknown"
}

// ParseMode parses the CLI spelling of a cache mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off":
		return Off, nil
	case "rw":
		return ReadWrite, nil
	case "ro":
		return ReadOnly, nil
	}
	return 0, fmt.Errorf("resultcache: unknown cache mode %q (want off, rw, or ro)", s)
}

// Stats counts cache events. Counters are cumulative; subtract two
// snapshots for a per-experiment delta.
type Stats struct {
	Hits     uint64 // Get served a valid entry
	Misses   uint64 // Get found nothing usable (includes Rejected)
	Rejected uint64 // entries present but corrupt/truncated/stale
	Stores   uint64 // Put persisted an entry
	Errors   uint64 // Put failed (cache stays best-effort; results are unaffected)

	BytesRead    uint64 // payload bytes served from hits
	BytesWritten uint64 // payload bytes persisted by stores
}

// Sub reports the counter delta s - prev.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Hits:         s.Hits - prev.Hits,
		Misses:       s.Misses - prev.Misses,
		Rejected:     s.Rejected - prev.Rejected,
		Stores:       s.Stores - prev.Stores,
		Errors:       s.Errors - prev.Errors,
		BytesRead:    s.BytesRead - prev.BytesRead,
		BytesWritten: s.BytesWritten - prev.BytesWritten,
	}
}

// String renders the counters in one line.
func (s Stats) String() string {
	return fmt.Sprintf("%d hits, %d misses (%d rejected), %d stored, %d KiB read, %d KiB written",
		s.Hits, s.Misses, s.Rejected, s.Stores, s.BytesRead>>10, s.BytesWritten>>10)
}

// Store is a content-addressed result cache rooted at one directory. It
// is safe for concurrent use by the sweep worker pool: entries are
// written to a temporary file and atomically renamed into place, and all
// counters are atomic.
type Store struct {
	dir  string
	mode Mode

	hits, misses, rejected, stores, errors atomic.Uint64
	bytesRead, bytesWritten                atomic.Uint64
}

// Open prepares a store rooted at dir. Mode Off (or an empty dir) yields
// a nil store, which every method — and sweep.MapCachedN — treats as
// caching disabled. ReadWrite creates the directory; ReadOnly requires it
// to exist only when entries are actually looked up (a missing directory
// just misses).
func Open(dir string, mode Mode) (*Store, error) {
	if mode == Off || dir == "" {
		return nil, nil
	}
	if mode != ReadWrite && mode != ReadOnly {
		return nil, fmt.Errorf("resultcache: invalid mode %d", mode)
	}
	if mode == ReadWrite {
		if err := os.MkdirAll(dir, 0o777); err != nil {
			return nil, fmt.Errorf("resultcache: creating cache dir: %w", err)
		}
	}
	return &Store{dir: dir, mode: mode}, nil
}

// OpenFlags builds a store from the CLIs' -cache-dir / -cache flag pair.
func OpenFlags(dir, mode string) (*Store, error) {
	m, err := ParseMode(mode)
	if err != nil {
		return nil, err
	}
	return Open(dir, m)
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		Rejected:     s.rejected.Load(),
		Stores:       s.stores.Load(),
		Errors:       s.errors.Load(),
		BytesRead:    s.bytesRead.Load(),
		BytesWritten: s.bytesWritten.Load(),
	}
}

// path is the entry file for one key.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+entrySuffix)
}

// Get looks one key up, returning the stored payload and whether a valid
// entry was found. Invalid entries (see the format comment) count as
// misses and are left for Put to overwrite.
func (s *Store) Get(key string) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	payload, err := decodeEntry(data, key, CodeVersion())
	if err != nil {
		s.rejected.Add(1)
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	s.bytesRead.Add(uint64(len(payload)))
	return payload, true
}

// Put persists one result. It is best-effort: failures (full disk,
// permissions) are counted and swallowed — the computed result is
// already in hand, so caching trouble must never fail a sweep. ReadOnly
// stores never write.
func (s *Store) Put(key string, payload []byte) {
	if s == nil || s.mode == ReadOnly {
		return
	}
	if err := s.write(key, payload); err != nil {
		s.errors.Add(1)
		return
	}
	s.stores.Add(1)
	s.bytesWritten.Add(uint64(len(payload)))
}

// write encodes and atomically installs one entry: the bytes land in a
// temporary file first and rename into place only when complete, so a
// crashed or interrupted writer can leave at worst a stray temp file,
// never a torn entry under a valid name.
func (s *Store) write(key string, payload []byte) error {
	data := encodeEntry(key, CodeVersion(), payload)
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return werr
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// encodeEntry renders one entry file.
func encodeEntry(key, codeVersion string, payload []byte) []byte {
	buf := make([]byte, 0, 6+3*binary.MaxVarintLen64+len(codeVersion)+len(key)+len(payload)+sha256.Size)
	buf = append(buf, entryMagic...)
	buf = append(buf, entryVersion, 0)
	buf = binary.AppendUvarint(buf, uint64(len(codeVersion)))
	buf = append(buf, codeVersion...)
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	sum := sha256.Sum256(payload)
	buf = append(buf, sum[:]...)
	return buf
}

// decodeEntry validates one entry file against the expected key and code
// version and returns its payload.
func decodeEntry(data []byte, wantKey, wantCodeVersion string) ([]byte, error) {
	if len(data) < 6 {
		return nil, fmt.Errorf("resultcache: entry truncated before header")
	}
	if string(data[:4]) != entryMagic {
		return nil, fmt.Errorf("resultcache: bad magic %q", data[:4])
	}
	if data[4] != entryVersion {
		return nil, fmt.Errorf("resultcache: unsupported entry version %d (have %d)", data[4], entryVersion)
	}
	if data[5] != 0 {
		return nil, fmt.Errorf("resultcache: unknown flags 0x%x", data[5])
	}
	rest := data[6:]
	codeVersion, rest, err := readLenPrefixed(rest, "code version")
	if err != nil {
		return nil, err
	}
	if string(codeVersion) != wantCodeVersion {
		return nil, fmt.Errorf("resultcache: stale entry (code version %q, want %q)", codeVersion, wantCodeVersion)
	}
	key, rest, err := readLenPrefixed(rest, "key")
	if err != nil {
		return nil, err
	}
	if string(key) != wantKey {
		return nil, fmt.Errorf("resultcache: entry names key %q, want %q", key, wantKey)
	}
	payload, rest, err := readLenPrefixed(rest, "payload")
	if err != nil {
		return nil, err
	}
	if len(rest) != sha256.Size {
		return nil, fmt.Errorf("resultcache: checksum truncated (%d trailing bytes, want %d)", len(rest), sha256.Size)
	}
	sum := sha256.Sum256(payload)
	if string(sum[:]) != string(rest) {
		return nil, fmt.Errorf("resultcache: payload checksum mismatch")
	}
	return payload, nil
}

// readLenPrefixed consumes one uvarint-length-prefixed field. The
// length must be minimally encoded, as encodeEntry writes it, so an
// accepted entry has exactly one encoding.
func readLenPrefixed(data []byte, what string) (field, rest []byte, err error) {
	n, used := binary.Uvarint(data)
	if used <= 0 {
		return nil, nil, fmt.Errorf("resultcache: %s length truncated", what)
	}
	var canon [binary.MaxVarintLen64]byte
	if binary.PutUvarint(canon[:], n) != used {
		return nil, nil, fmt.Errorf("resultcache: %s length not minimally encoded", what)
	}
	data = data[used:]
	if n > uint64(len(data)) {
		return nil, nil, fmt.Errorf("resultcache: %s truncated (%d bytes, want %d)", what, len(data), n)
	}
	return data[:n], data[n:], nil
}
