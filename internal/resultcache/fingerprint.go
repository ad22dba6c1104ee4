// Package resultcache is a content-addressed, on-disk cache for sweep
// results. Every simulated machine is fully deterministic (pinned by the
// determinism test tiers), so a design point's result is a pure function
// of its configuration and the code version — exactly the precondition
// for sound caching. A cache key therefore derives from three parts:
//
//   - a canonical fingerprint of the machine configuration (every
//     semantically meaningful exported field — see Canonical and
//     system.Config.Fingerprint);
//   - an op string naming the experiment operation and its non-config
//     inputs (direction, size, workload/trace identity, ...);
//   - a code-version stamp (CodeVersion): results computed by different
//     code never collide, so stale hits are impossible.
//
// Entries store the gob-encoded typed result payload behind an integrity
// checksum; corrupt, truncated or wrong-version entries are rejected on
// read and silently recomputed, mirroring internal/trace's codec
// discipline. internal/sweep consumes the store through its Cache
// interface (sweep.MapCachedN), which keeps hit-vs-miss invisible to
// deterministic result ordering.
package resultcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"strconv"
)

// Canonical renders every exported field of v (recursively, in
// declaration order) as one "path=value" line per leaf, producing a
// stable byte encoding of a configuration struct. Renaming, adding or
// removing a field changes the encoding — deliberately conservative:
// structural drift must invalidate cache keys, never alias them.
//
// Supported leaf kinds are booleans, integers, floats and strings;
// structs, arrays and slices recurse. Any other kind (pointers, maps,
// funcs, interfaces, channels) panics: a config type growing such a field
// must make an explicit fingerprinting decision rather than silently
// escaping the key.
func Canonical(v any) []byte {
	var buf []byte
	appendCanonical(&buf, "", reflect.ValueOf(v))
	return buf
}

// appendCanonical walks one value, appending leaf lines to buf.
func appendCanonical(buf *[]byte, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		appendLeaf(buf, path, strconv.FormatBool(v.Bool()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		appendLeaf(buf, path, strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		appendLeaf(buf, path, strconv.FormatUint(v.Uint(), 10))
	case reflect.Float32, reflect.Float64:
		// Hex float formatting is exact: distinct values (including
		// signed zero and NaN payload collapses) never alias.
		f := v.Float()
		if math.IsNaN(f) {
			appendLeaf(buf, path, "NaN")
			return
		}
		appendLeaf(buf, path, strconv.FormatFloat(f, 'x', -1, 64))
	case reflect.String:
		appendLeaf(buf, path, strconv.Quote(v.String()))
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				panic(fmt.Sprintf("resultcache: unexported field %s.%s cannot be fingerprinted; export it or restructure the config", joinPath(path, t.Name()), f.Name))
			}
			appendCanonical(buf, joinPath(path, f.Name), v.Field(i))
		}
	case reflect.Array, reflect.Slice:
		appendLeaf(buf, joinPath(path, "len"), strconv.Itoa(v.Len()))
		for i := 0; i < v.Len(); i++ {
			appendCanonical(buf, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	default:
		panic(fmt.Sprintf("resultcache: cannot fingerprint %s field at %q; give it an explicit encoding", v.Kind(), path))
	}
}

// appendLeaf writes one "path=value" line.
func appendLeaf(buf *[]byte, path, value string) {
	*buf = append(*buf, path...)
	*buf = append(*buf, '=')
	*buf = append(*buf, value...)
	*buf = append(*buf, '\n')
}

// joinPath extends a field path.
func joinPath(path, field string) string {
	if path == "" {
		return field
	}
	return path + "." + field
}

// KeyOf derives a content-addressed key from its parts: the hex SHA-256
// of the length-prefixed part sequence (length prefixes make the
// concatenation unambiguous — no two distinct part lists collide by
// boundary shifting).
func KeyOf(parts ...string) string {
	h := sha256.New()
	var lenBuf [binary.MaxVarintLen64]byte
	for _, p := range parts {
		n := binary.PutUvarint(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:n])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}
