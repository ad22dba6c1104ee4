package pimmmu

import (
	"fmt"

	"repro/internal/core"
)

// XferBuilder is the staged transfer API mirroring UPMEM's
// dpu_prepare_xfer / dpu_push_xfer pattern (paper Fig. 10a): each core is
// first bound to its host-buffer slice, then the whole set is pushed in
// one call. ToPIM/FromPIM are this builder with core i bound to the i-th
// consecutive slice of one buffer; binding directly allows per-core
// buffer placement:
//
//	x := sys.PrepareXfer()
//	for i, c := range myCores {
//	    x.Bind(c, buf, uint64(i)*per)  // dpu_prepare_xfer
//	}
//	res, err := x.PushToPIM(per, 0)    // dpu_push_xfer(DPU_XFER_TO_DPU, ...)
type XferBuilder struct {
	sys     *System
	cores   []int
	bufs    []*Buffer
	offsets []uint64
	pushed  bool
}

// PrepareXfer starts building a transfer.
func (s *System) PrepareXfer() *XferBuilder { return &XferBuilder{sys: s} }

// Bind associates a PIM core with its slice of a host buffer (the slice
// starts at offset and spans the eventual per-core size).
func (x *XferBuilder) Bind(coreID int, b *Buffer, offset uint64) *XferBuilder {
	x.cores = append(x.cores, coreID)
	x.bufs = append(x.bufs, b)
	x.offsets = append(x.offsets, offset)
	return x
}

// Len reports how many cores are bound.
func (x *XferBuilder) Len() int { return len(x.cores) }

// build assembles and validates the internal op.
func (x *XferBuilder) build(dir core.Direction, bytesPerCore, mramOff uint64) (core.Op, error) {
	if x.pushed {
		return core.Op{}, fmt.Errorf("pimmmu: transfer builder already pushed")
	}
	if len(x.cores) == 0 {
		return core.Op{}, fmt.Errorf("pimmmu: no cores bound")
	}
	op := core.Op{Dir: dir, BytesPerCore: bytesPerCore, MRAMOffset: mramOff}
	for i, c := range x.cores {
		b := x.bufs[i]
		if b == nil {
			return core.Op{}, fmt.Errorf("pimmmu: core %d bound to nil buffer", c)
		}
		if n, off := uint64(len(b.Data)), x.offsets[i]; off > n || bytesPerCore > n-off {
			return core.Op{}, fmt.Errorf("pimmmu: core %d slice of %d bytes at %d beyond buffer of %d bytes",
				c, bytesPerCore, off, n)
		}
		op.Cores = append(op.Cores, c)
		op.DRAMAddrs = append(op.DRAMAddrs, b.Addr+x.offsets[i])
	}
	if err := op.Validate(x.sys.inner.Cfg.PIM); err != nil {
		return core.Op{}, err
	}
	return op, nil
}

// PushToPIM executes the staged DRAM->PIM transfer: bytesPerCore bytes
// from each bound slice into the bound core's MRAM at mramOff. The
// builder is consumed.
func (x *XferBuilder) PushToPIM(bytesPerCore, mramOff uint64) (Result, error) {
	op, err := x.build(core.DRAMToPIM, bytesPerCore, mramOff)
	if err != nil {
		return Result{}, err
	}
	x.pushed = true
	for i, c := range x.cores {
		data := x.bufs[i].Data[x.offsets[i] : x.offsets[i]+bytesPerCore]
		x.sys.inner.Device.WriteMRAM(c, mramOff, data)
	}
	r := x.sys.inner.RunTransfer(op)
	return resultOf(r.Bytes, r.Duration), nil
}

// PushFromPIM executes the staged PIM->DRAM transfer: bytesPerCore bytes
// from each bound core's MRAM at mramOff into its bound slice. The
// builder is consumed.
func (x *XferBuilder) PushFromPIM(bytesPerCore, mramOff uint64) (Result, error) {
	op, err := x.build(core.PIMToDRAM, bytesPerCore, mramOff)
	if err != nil {
		return Result{}, err
	}
	x.pushed = true
	for i, c := range x.cores {
		copy(x.bufs[i].Data[x.offsets[i]:x.offsets[i]+bytesPerCore],
			x.sys.inner.Device.ReadMRAM(c, mramOff, int(bytesPerCore)))
	}
	r := x.sys.inner.RunTransfer(op)
	return resultOf(r.Bytes, r.Duration), nil
}
