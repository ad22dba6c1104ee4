package resultcache

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// PruneStats counts what one Prune pass did.
type PruneStats struct {
	Scanned int // entry files examined
	Pruned  int // stale entries deleted
	Kept    int // entries matching the kept code version
	Skipped int // .prc files that are not valid entries, left untouched
}

// String renders the counters in one line.
func (s PruneStats) String() string {
	return fmt.Sprintf("scanned %d entries: pruned %d stale, kept %d, skipped %d invalid",
		s.Scanned, s.Pruned, s.Kept, s.Skipped)
}

// Prune garbage-collects a cache directory: every entry whose embedded
// code version differs from keepVersion is deleted — those entries can
// never hit again under the current build, only accumulate. Prune only
// considers files with the entry suffix whose header parses as a valid
// entry; anything else in the directory (foreign files, temp files,
// corrupt data) is left untouched and counted as skipped, so pointing
// `pimmu cache-gc` at the wrong directory cannot destroy it.
func Prune(dir, keepVersion string) (PruneStats, error) {
	var st PruneStats
	files, err := os.ReadDir(dir)
	if err != nil {
		return st, fmt.Errorf("resultcache: prune: %w", err)
	}
	for _, f := range files {
		if f.IsDir() || !strings.HasSuffix(f.Name(), entrySuffix) {
			continue
		}
		st.Scanned++
		path := filepath.Join(dir, f.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			st.Skipped++
			continue
		}
		cv, err := entryCodeVersion(data)
		if err != nil {
			st.Skipped++
			continue
		}
		if cv == keepVersion {
			st.Kept++
			continue
		}
		if err := os.Remove(path); err != nil {
			return st, fmt.Errorf("resultcache: prune: %w", err)
		}
		st.Pruned++
	}
	return st, nil
}

// entryCodeVersion parses just enough of an entry file to report the
// code version it was written under.
func entryCodeVersion(data []byte) (string, error) {
	if len(data) < 6 {
		return "", fmt.Errorf("resultcache: entry truncated before header")
	}
	if string(data[:4]) != entryMagic {
		return "", fmt.Errorf("resultcache: bad magic %q", data[:4])
	}
	if data[4] != entryVersion {
		return "", fmt.Errorf("resultcache: unsupported entry version %d", data[4])
	}
	if data[5] != 0 {
		return "", fmt.Errorf("resultcache: unknown flags 0x%x", data[5])
	}
	cv, _, err := readLenPrefixed(data[6:], "code version")
	if err != nil {
		return "", err
	}
	return string(cv), nil
}
