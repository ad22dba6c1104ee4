package mem

import (
	"testing"
	"unsafe"
)

// TestReqSize pins Req to the 48-byte allocation size class: the CPU
// cores, the LLC fill path and the trace drivers allocate one per memory
// operation.
func TestReqSize(t *testing.T) {
	if n := unsafe.Sizeof(Req{}); n > 48 {
		t.Errorf("mem.Req is %d bytes, want <= 48", n)
	}
}
