package resultcache

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"runtime/debug"
	"sync"
)

// The code-version stamp ties every cache key and entry to the code that
// produced it. Resolution order:
//
//  1. SetCodeVersion override (tests; simulating a code change in-process);
//  2. the PIMMU_CODE_VERSION environment variable (CI sets it to a hash
//     of the Go source tree, so doc-only commits keep a warm cache while
//     any code change is a guaranteed miss);
//  3. the VCS revision from Go buildinfo, when the working tree was
//     clean at build time (a dirty tree's revision does not identify the
//     code, so it falls through);
//  4. the SHA-256 of the running executable itself — always sound:
//     identical binaries compute identical results.
//
// The stamp participates in key derivation AND is embedded in every
// entry header: even a foreign or hand-copied cache directory cannot
// serve a stale payload.

var (
	codeVersionMu       sync.Mutex
	codeVersionOverride string
	codeVersionResolved string
)

// SetCodeVersion overrides the code-version stamp process-wide; the empty
// string restores automatic resolution. It is intended for tests that
// need to prove a code-version change forces a cache miss.
//
//pimmu:keep test hook: cache tests in other packages simulate a code change in-process
func SetCodeVersion(v string) {
	codeVersionMu.Lock()
	codeVersionOverride = v
	codeVersionMu.Unlock()
}

// CodeVersion reports the stamp identifying the code computing results.
func CodeVersion() string {
	codeVersionMu.Lock()
	defer codeVersionMu.Unlock()
	if codeVersionOverride != "" {
		return codeVersionOverride
	}
	if v := os.Getenv("PIMMU_CODE_VERSION"); v != "" {
		return "env:" + v
	}
	if codeVersionResolved == "" {
		codeVersionResolved = resolveCodeVersion()
	}
	return codeVersionResolved
}

// resolveCodeVersion computes the automatic stamp (buildinfo, then
// executable hash).
func resolveCodeVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" && modified == "false" {
			return "vcs:" + rev
		}
	}
	if sum := executableHash(); sum != "" {
		return "bin:" + sum
	}
	// Unreachable in practice (the executable is always readable on the
	// platforms we run on); a constant here keeps caching self-consistent
	// for one binary at worst.
	return "unversioned"
}

// executableHash is the SHA-256 of the running binary, or "" when it
// cannot be read.
func executableHash() string {
	path, err := os.Executable()
	if err != nil {
		return ""
	}
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))
}
